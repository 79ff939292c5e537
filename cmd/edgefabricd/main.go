// Command edgefabricd runs the Edge Fabric controller.
//
// In remote mode (--inventory), it attaches to a running popsim over
// real transports: BMP feeds and iBGP injection sessions over TCP, sFlow
// over UDP, exactly as the production controller attaches to peering
// routers. It then runs the 30-second (configurable) control loop,
// printing each cycle's decisions.
//
// In embedded mode (no --inventory), it builds a self-contained
// simulation (PoP + controller in one process) and fast-forwards a full
// virtual day, printing controller activity and a closing summary —
// a one-command demonstration of the whole system.
//
// In fleet mode (--fleet fleet.json), it hosts many PoPs' controllers in
// one process — each with its own inventory, feeds, injection sessions,
// and health ladder — behind one sFlow ingest point and one versioned,
// PoP-scoped status API (/v1/pops/{pop}/...). See fleet.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (served only with --pprof)
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/sflow"
)

func main() {
	var (
		invPath     = flag.String("inventory", "", "inventory JSON from popsim (remote mode)")
		fleetPath   = flag.String("fleet", "", "fleet JSON hosting many PoPs in one process (see fleet.go)")
		sflowListen = flag.String("sflow-listen", "127.0.0.1:6343", "UDP address for sFlow ingest (remote mode)")
		cycle       = flag.Duration("cycle", 5*time.Second, "control cycle interval (remote mode, wall clock)")
		threshold   = flag.Float64("threshold", 0.95, "interface utilization threshold")
		duration    = flag.Duration("duration", 0, "run time (0 = until interrupt; embedded mode default 24h virtual)")
		perfAware   = flag.Bool("perf-aware", false, "enable performance-aware overrides (embedded mode)")
		multipath   = flag.Bool("multipath", false, "upgrade the perf pass to weighted multipath splits (embedded mode, implies -perf-aware)")
		prefixes    = flag.Int("prefixes", 2000, "embedded mode: number of prefixes")
		peakGbps    = flag.Float64("peak-gbps", 400, "embedded mode: peak demand (Gbps)")
		seed        = flag.Int64("seed", 1, "embedded mode: scenario seed")
		status      = flag.String("status", "", "serve the controller status API on this address (e.g. 127.0.0.1:8080)")
		metricsTopK = flag.Int("metrics-top-k", 0, "fleet mode: label only the K highest-traffic PoPs in /v1/metrics, folding the rest into pop=\"other\" (0 = label every PoP)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
		auditPath   = flag.String("audit", "", "append a JSON line per cycle to this file")
		verbose     = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	audit := openAudit(*auditPath)
	servePprof(ctx, *pprofAddr)
	if *fleetPath != "" {
		runFleet(ctx, *fleetPath, *cycle, *threshold, *duration, *status, *metricsTopK, audit, *verbose)
		return
	}
	if *invPath != "" {
		runRemote(ctx, *invPath, *sflowListen, *cycle, *threshold, *duration, *status, audit, *verbose)
		return
	}
	runEmbedded(ctx, *prefixes, *peakGbps, *seed, *threshold, *duration, *status, audit, *perfAware || *multipath, *multipath, *verbose)
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

// attachController builds a controller over a popsim inventory file and
// supervises its BMP feeds and injection sessions through TCP dialers.
// The caller owns the traffic collector's ingest path (a dedicated UDP
// listener in single mode, a shared demux registration in fleet mode).
func attachController(invFile *core.InventoryFile, traffic *sflow.Collector, cycle time.Duration, threshold float64, audit *core.AuditLogger, logf func(string, ...any)) (*core.Controller, error) {
	inv, err := invFile.Build()
	if err != nil {
		return nil, fmt.Errorf("inventory: %w", err)
	}
	for _, p := range invFile.Peers {
		if alias := netsim.V6AliasFor(p.Addr); alias != p.Addr {
			_ = inv.RegisterPeerAlias(alias, p.Addr)
		}
	}
	ctrl, err := core.New(core.Config{
		Inventory:     inv,
		Traffic:       traffic,
		Allocator:     core.AllocatorConfig{Threshold: threshold},
		CycleInterval: cycle,
		LocalAS:       invFile.LocalAS,
		Audit:         audit,
		Logf:          logf,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	// Feeds and sessions are supervised: a dead popsim connection is
	// redialed with backoff instead of silently staying down, and the
	// injector re-announces the installed set on re-establishment.
	for _, r := range invFile.Routers {
		if r.BMP != "" {
			ctrl.AddBMPFeedDialer(r.Name, tcpDialer(r.BMP))
			log.Printf("%s: BMP feed %s supervised (%s)", invFile.PoP, r.Name, r.BMP)
		}
		if r.Inject != "" {
			addr, err := netip.ParseAddr(r.Addr)
			if err != nil {
				ctrl.Close()
				return nil, fmt.Errorf("router addr %q: %w", r.Addr, err)
			}
			if err := ctrl.AddInjectionSessionDialer(addr, tcpDialer(r.Inject)); err != nil {
				ctrl.Close()
				return nil, fmt.Errorf("injection session %s: %w", r.Name, err)
			}
			log.Printf("%s: injection session %s supervised (%s)", invFile.PoP, r.Name, r.Inject)
		}
	}
	return ctrl, nil
}

// lateStoreMapper maps sample destinations through a controller's route
// store once the controller exists (the collector is built first).
type lateStoreMapper struct {
	ctrl **core.Controller
}

func (m lateStoreMapper) MapPrefix(a netip.Addr) netip.Prefix {
	if c := *m.ctrl; c != nil {
		return c.Store().LookupPrefix(a)
	}
	return netip.Prefix{}
}

// runRemote attaches to popsim's TCP/UDP surface.
func runRemote(ctx context.Context, invPath, sflowListen string, cycle time.Duration, threshold float64, duration time.Duration, statusAddr string, audit *core.AuditLogger, verbose bool) {
	invFile, err := core.LoadInventoryFile(invPath)
	if err != nil {
		log.Fatalf("inventory: %v", err)
	}

	var logf func(string, ...any)
	if verbose {
		logf = log.Printf
	}

	// sFlow ingest: SO_REUSEPORT-duplicated sockets where the platform
	// allows, one shared socket elsewhere, served by a reader pool.
	udp, err := sflow.ListenUDP(sflowListen, sflow.DefaultReaders())
	if err != nil {
		log.Fatalf("sflow listen: %v", err)
	}

	var ctrl *core.Controller
	traffic := sflow.NewCollector(sflow.CollectorConfig{Mapper: lateStoreMapper{ctrl: &ctrl}})
	go func() {
		if err := traffic.ServeUDPConns(ctx, udp); err != nil {
			log.Printf("sflow ingest: %v", err)
		}
	}()

	ctrl, err = attachController(invFile, traffic, cycle, threshold, audit, logf)
	if err != nil {
		log.Fatalf("%v", err)
	}
	defer ctrl.Close()

	readyCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	err = ctrl.WaitReady(readyCtx, 1)
	cancel()
	if err != nil {
		log.Fatalf("ready: %v", err)
	}
	log.Printf("controller ready: %d routes collected", ctrl.Store().Table().RouteCount())
	serveStatus(ctx, statusAddr, singlePoPAPI(popName(invFile.PoP), ctrl))

	ticker := time.NewTicker(cycle)
	defer ticker.Stop()
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	for {
		select {
		case <-ctx.Done():
			log.Printf("interrupted; withdrawing overrides")
			return
		case <-deadline:
			return
		case <-ticker.C:
			report, err := ctrl.RunCycle()
			if err != nil {
				log.Printf("cycle: %v", err)
				continue
			}
			fmt.Println(core.FormatReport(report, ctrl.Inventory()))
		}
	}
}

// tcpDialer returns a context-aware TCP dial function for a supervised
// feed or injection session.
func tcpDialer(addr string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// popName defaults an unnamed PoP.
func popName(name string) string {
	if name == "" {
		return "pop-1"
	}
	return name
}

// singlePoPAPI wraps one controller in the versioned status API.
func singlePoPAPI(name string, ctrl *core.Controller) *api.Server {
	srv := api.NewServer()
	if err := srv.AddPoP(name, ctrl); err != nil {
		log.Fatalf("status API: %v", err)
	}
	return srv
}

// serveStatus exposes the versioned status API when addr is nonempty.
func serveStatus(ctx context.Context, addr string, apiSrv *api.Server) {
	if addr == "" {
		return
	}
	srv := &http.Server{Addr: addr, Handler: apiSrv.Handler()}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	go func() {
		log.Printf("status API on http://%s/v1/ (PoPs: %v)", addr, apiSrv.PoPNames())
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("status server: %v", err)
		}
	}()
}

// servePprof exposes net/http/pprof profiling when addr is nonempty.
// The profiler lives on its own listener so enabling it never widens
// the status API's surface.
func servePprof(ctx context.Context, addr string) {
	if addr == "" {
		return
	}
	srv := &http.Server{Addr: addr, Handler: http.DefaultServeMux}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	go func() {
		log.Printf("pprof on http://%s/debug/pprof/", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("pprof server: %v", err)
		}
	}()
}

// runEmbedded fast-forwards a self-contained simulation.
func runEmbedded(ctx context.Context, prefixes int, peakGbps float64, seed int64, threshold float64, duration time.Duration, statusAddr string, audit *core.AuditLogger, perfAware, multipath, verbose bool) {
	if duration == 0 {
		duration = 24 * time.Hour
	}
	var logf func(string, ...any)
	if verbose {
		logf = log.Printf
	}
	cfg := exp.HarnessConfig{
		Synth: netsim.SynthConfig{
			Seed:     seed,
			Prefixes: prefixes,
			PeakBps:  peakGbps * 1e9,
		},
		Allocator:         core.AllocatorConfig{Threshold: threshold},
		ControllerEnabled: true,
		PerfAware:         perfAware,
		Multipath:         multipath,
		Audit:             audit,
		Logf:              logf,
	}
	log.Printf("building embedded PoP (%d prefixes)...", prefixes)
	h, err := exp.NewHarness(ctx, cfg)
	if err != nil {
		log.Fatalf("harness: %v", err)
	}
	defer h.Close()
	serveStatus(ctx, statusAddr, singlePoPAPI(h.Scenario.Topo.Name, h.Controller))
	log.Printf("%s converged; simulating %s of virtual time", h, duration)

	var cycles, withOverrides int
	var peakDetour float64
	var drops, offered float64
	h.Run(duration, func(s *netsim.TickStats, r *core.CycleReport) {
		offered += s.TotalDemandBps()
		drops += s.TotalDropsBps()
		if r == nil {
			return
		}
		cycles++
		if len(r.Overrides) > 0 {
			withOverrides++
			if frac := r.DetouredBps / r.DemandBps; frac > peakDetour {
				peakDetour = frac
			}
		}
		if r.Seq%40 == 0 || len(r.ResidualOverloadBps) > 0 {
			fmt.Println(core.FormatReport(r, h.Inventory))
		}
	})
	fmt.Printf("\nsummary: %d cycles, %d with overrides (peak detour %.1f%% of demand)\n",
		cycles, withOverrides, peakDetour*100)
	fmt.Printf("dropped %.4f%% of offered bytes over the day\n", 100*drops/offered)
	fmt.Println("\ncontroller metrics:")
	fmt.Println(h.Controller.Metrics().Render())
}
