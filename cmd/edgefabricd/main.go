// Command edgefabricd runs the Edge Fabric controller: one controller per
// PoP, any number of PoPs per process, behind one fleet supervisor, one
// config reconciler, one shared sFlow ingest point and one versioned,
// PoP-scoped status API (/v1/pops/{pop}/...). Every run hosts a fleet:
//
//   - --fleet fleet.json hosts the PoPs the file lists (see fleet.go).
//   - --inventory F is a remote fleet of one: it attaches to a running
//     popsim over BMP and iBGP on TCP and sFlow on UDP (--sflow-listen),
//     as the production controller attaches to peering routers, and
//     cycles every --cycle of wall-clock time, printing each decision.
//   - With neither, it is an embedded fleet of one: a self-contained
//     simulation (PoP + controller in one process) built from --prefixes,
//     --peak-gbps and --seed, fast-forwarded through a virtual day.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (served only with --pprof)
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
)

func main() {
	var (
		invPath     = flag.String("inventory", "", "inventory JSON from popsim: attach to it as a remote fleet of one")
		fleetPath   = flag.String("fleet", "", "fleet JSON hosting many PoPs in one process (see fleet.go)")
		sflowListen = flag.String("sflow-listen", "127.0.0.1:6343", "UDP address for sFlow ingest (with --inventory; a fleet file sets sflow_listen)")
		cycle       = flag.Duration("cycle", 5*time.Second, "control cycle interval (remote PoPs, wall clock)")
		threshold   = flag.Float64("threshold", 0.95, "interface utilization threshold")
		duration    = flag.Duration("duration", 0, "run time (0 = until interrupt; embedded PoPs default 24h virtual)")
		perfAware   = flag.Bool("perf-aware", false, "run the performance optimizer at k = 1: whole-prefix moves onto measurably better paths (embedded PoPs)")
		multipath   = flag.Bool("multipath", false, "run the performance optimizer at k = 3: weighted multipath splits (embedded PoPs, implies -perf-aware)")
		prefixes    = flag.Int("prefixes", 2000, "embedded fleet of one: number of prefixes")
		peakGbps    = flag.Float64("peak-gbps", 400, "embedded fleet of one: peak demand (Gbps)")
		seed        = flag.Int64("seed", 1, "embedded fleet of one: scenario seed")
		status      = flag.String("status", "", "serve the controller status API on this address (e.g. 127.0.0.1:8080)")
		metricsTopK = flag.Int("metrics-top-k", 0, "label only the K highest-traffic PoPs in /v1/metrics, folding the rest into pop=\"other\" (0 = label every PoP)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
		auditPath   = flag.String("audit", "", "append a JSON line per cycle to this file")
		verbose     = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ff *FleetFile
	var err error
	switch {
	case *fleetPath != "":
		ff, err = loadFleetFile(*fleetPath)
	case *invPath != "":
		ff, err = remoteFleetOfOne(*invPath, *sflowListen)
	default:
		ff, err = embeddedFleetOfOne(*prefixes, *peakGbps, *seed)
	}
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}

	o := runOpts{
		cycle:       *cycle,
		threshold:   *threshold,
		duration:    *duration,
		statusAddr:  *status,
		metricsTopK: *metricsTopK,
		audit:       openAudit(*auditPath),
		perfAware:   *perfAware || *multipath,
		multipath:   *multipath,
	}
	if *verbose {
		o.logf = log.Printf
	}
	servePprof(ctx, *pprofAddr)
	if ff.PoPs[0].Inventory != "" {
		runRemoteFleet(ctx, ff, o)
		return
	}
	runEmbeddedFleet(ctx, ff, o)
}

// runOpts are the flags every hosted PoP shares.
type runOpts struct {
	cycle, duration      time.Duration
	threshold            float64
	statusAddr           string
	metricsTopK          int
	audit                *core.AuditLogger
	perfAware, multipath bool
	logf                 func(string, ...any)
}

// openAudit returns an audit logger appending to path, or nil.
func openAudit(path string) *core.AuditLogger {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	return core.NewAuditLogger(f)
}

// serveStatus exposes the versioned status API when addr is nonempty.
func serveStatus(ctx context.Context, addr string, apiSrv *api.Server) {
	if addr == "" {
		return
	}
	serveHTTP(ctx, &http.Server{Addr: addr, Handler: apiSrv.Handler()},
		"status API on http://%s/v1/ (PoPs: %v)", addr, apiSrv.PoPNames())
}

// servePprof exposes net/http/pprof profiling when addr is nonempty.
// The profiler lives on its own listener so enabling it never widens
// the status API's surface.
func servePprof(ctx context.Context, addr string) {
	if addr == "" {
		return
	}
	serveHTTP(ctx, &http.Server{Addr: addr, Handler: http.DefaultServeMux},
		"pprof on http://%s/debug/pprof/", addr)
}

// serveHTTP runs srv until ctx ends, logging banner first.
func serveHTTP(ctx context.Context, srv *http.Server, banner string, args ...any) {
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	go func() {
		log.Printf(banner, args...)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("%s: %v", srv.Addr, err)
		}
	}()
}
