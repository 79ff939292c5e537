// Command popsim runs a stand-alone emulated point of presence: peering
// routers speaking real BGP to a fleet of synthetic neighbors, a
// synthetic traffic day flowing through the dataplane, BMP feeds, sFlow
// export, and TCP/UDP attachment points for an external Edge Fabric
// controller (see cmd/edgefabricd).
//
// Without --bmp-base/--inject-base it runs the paper's "plain BGP"
// baseline and prints interface utilization and drops, demonstrating the
// capacity crunch Edge Fabric exists to fix.
//
// Example (two terminals):
//
//	popsim --inventory /tmp/inv.json --bmp-base 11019 --inject-base 11179 \
//	       --sflow 127.0.0.1:6343 --wall-tick 500ms
//	edgefabricd --inventory /tmp/inv.json --sflow-listen 127.0.0.1:6343
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

func main() {
	var (
		prefixes   = flag.Int("prefixes", 2000, "number of user prefixes")
		edgeASes   = flag.Int("ases", 200, "number of edge ASes")
		private    = flag.Int("private-peers", 8, "PNI peers")
		public     = flag.Int("public-peers", 30, "IXP public peers")
		rsMembers  = flag.Int("rs-members", 40, "route-server member ASes")
		transits   = flag.Int("transits", 2, "transit providers")
		routers    = flag.Int("routers", 2, "peering routers")
		popIndex   = flag.Int("pop-index", 0, "router-ID block (10.255.<index>.x); give each PoP of a fleet a distinct index so their sFlow agent addresses stay disjoint")
		popName    = flag.String("name", "", "PoP name (default from the synthesizer)")
		peakGbps   = flag.Float64("peak-gbps", 400, "peak PoP demand (Gbps)")
		headroom   = flag.Float64("pni-headroom-min", 0.7, "min PNI capacity / AS peak ratio")
		headroomMx = flag.Float64("pni-headroom-max", 1.8, "max PNI capacity / AS peak ratio")
		seed       = flag.Int64("seed", 1, "scenario seed")
		startHour  = flag.Int("start-hour", 19, "virtual start hour (UTC)")
		wallTick   = flag.Duration("wall-tick", time.Second, "wall-clock time per tick")
		speedup    = flag.Float64("speedup", 1, "virtual time per wall second; keep 1 when a controller is attached (its sFlow rate estimation runs on wall time)")
		duration   = flag.Duration("duration", 0, "wall-clock run time (0 = until interrupt)")
		invPath    = flag.String("inventory", "", "write inventory JSON here")
		bmpBase    = flag.Int("bmp-base", 0, "serve router i's BMP feed on this TCP port + i (0 = off)")
		injectBase = flag.Int("inject-base", 0, "serve router i's injection session on this TCP port + i (0 = off)")
		sflowAddr  = flag.String("sflow", "", "send sFlow datagrams to this UDP host:port")
		sampling   = flag.Uint("sampling-rate", 8192, "sFlow 1-in-N sampling rate")
		report     = flag.Duration("report-every", 10*time.Second, "wall-clock interval between console reports")
		topoPath   = flag.String("topology", "", "load an explicit scenario JSON instead of synthesizing (see netsim.ScenarioFile)")
		flash      = flag.String("flash", "", "inject a flash crowd: afterMinutes:durationMinutes:multiplier on the biggest private AS (e.g. 2:15:3)")
		verbose    = flag.Bool("v", false, "verbose session logging")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	virtTick := time.Duration(float64(*wallTick) * *speedup)
	if *speedup != 1 && (*bmpBase > 0 || *injectBase > 0 || *sflowAddr != "") {
		log.Printf("warning: --speedup %.0f with a controller attached skews its "+
			"wall-clock sFlow rate estimates by the same factor", *speedup)
	}

	var sc *netsim.Scenario
	var err error
	if *topoPath != "" {
		sc, err = netsim.LoadScenarioFile(*topoPath)
		if err != nil {
			log.Fatalf("topology: %v", err)
		}
		log.Printf("loaded topology %q: %d routers, %d peers, %d prefixes",
			sc.Topo.Name, len(sc.Topo.Routers), len(sc.Topo.Peers), len(sc.Prefixes))
	} else {
		sc, err = netsim.Synthesize(netsim.SynthConfig{
			Seed:               *seed,
			Name:               *popName,
			PoPIndex:           *popIndex,
			Prefixes:           *prefixes,
			EdgeASes:           *edgeASes,
			PrivatePeers:       *private,
			PublicPeers:        *public,
			RouteServerMembers: *rsMembers,
			Transits:           *transits,
			Routers:            *routers,
			PeakBps:            *peakGbps * 1e9,
			PNIHeadroomMin:     *headroom,
			PNIHeadroomMax:     *headroomMx,
		})
		if err != nil {
			log.Fatalf("synthesize: %v", err)
		}
	}
	start := time.Date(2017, 3, 1, *startHour, 0, 0, 0, time.UTC)
	if *flash != "" {
		ev, err := parseFlash(*flash, sc)
		if err != nil {
			log.Fatalf("flash: %v", err)
		}
		sc.Events = append(sc.Events, ev)
		log.Printf("flash crowd armed: AS%d ×%.1f at %s for %s",
			ev.AS, ev.Magnitude, start.Add(ev.At).Format("15:04:05"), ev.Duration)
	}
	demand, err := sc.NewDemand(netsim.DemandConfig{PeakBps: *peakGbps * 1e9})
	if err != nil {
		log.Fatalf("demand: %v", err)
	}
	clock := netsim.NewClock(start)

	var sink sflow.Sink
	if *sflowAddr != "" {
		udp, err := sflow.NewUDPSink(*sflowAddr)
		if err != nil {
			log.Fatalf("sflow sink: %v", err)
		}
		defer udp.Close()
		sink = udp
	}
	// A scenario with a scheduled timeline gets a lossy sFlow wrapper so
	// sflow-loss events have a scriptable drop point; without --sflow the
	// wrapper feeds a discard sink (the loss events become no-ops but the
	// timeline still validates and runs).
	var loss *netsim.LossySink
	if len(sc.Events) > 0 {
		inner := sink
		if inner == nil {
			inner = discardSink{}
		}
		loss = netsim.NewLossySink(inner, *seed)
		sink = loss
	}

	var logf func(string, ...any)
	if *verbose {
		logf = log.Printf
	}
	pop, err := netsim.NewPoP(netsim.PoPConfig{
		Scenario:     sc,
		Demand:       demand,
		Clock:        clock,
		SFlowSink:    sink,
		SamplingRate: uint32(*sampling),
		Logf:         logf,
	})
	if err != nil {
		log.Fatalf("pop: %v", err)
	}
	if err := pop.Start(ctx); err != nil {
		log.Fatalf("start: %v", err)
	}
	defer pop.Close()
	convergeCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	err = pop.WaitConverged(convergeCtx)
	cancel()
	if err != nil {
		log.Fatalf("converge: %v", err)
	}
	log.Printf("PoP %s converged: %d routes for %d prefixes from %d neighbors",
		sc.Topo.Name, pop.Table.RouteCount(), len(sc.Prefixes), len(sc.Topo.Peers))

	// Scheduled event timeline (from the scenario file's "events" list):
	// the engine applies and reverts demand, topology, and fault events
	// against the live PoP as virtual time crosses each offset.
	var events *netsim.EventEngine
	if len(sc.Events) > 0 {
		events, err = netsim.NewEventEngine(netsim.EventEngineConfig{
			Start:  clock.Now(),
			Events: sc.Events,
			PoP:    pop,
			Demand: demand,
			Loss:   loss,
			Logf:   log.Printf,
		})
		if err != nil {
			log.Fatalf("events: %v", err)
		}
		log.Printf("event timeline armed (%d events):\n%s",
			len(sc.Events), netsim.FormatTimeline(events.Timeline()))
	}

	// Controller attachment points.
	invFile := &core.InventoryFile{PoP: sc.Topo.Name, LocalAS: sc.Topo.LocalAS}
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		invFile.Peers = append(invFile.Peers, core.PeerInfo{
			Name: p.Name, Addr: p.Addr, AS: p.AS, Class: p.Class,
			InterfaceID: p.InterfaceID, Router: p.Router,
		})
	}
	for i := range sc.Topo.Interfaces {
		ifc := &sc.Topo.Interfaces[i]
		invFile.Interfaces = append(invFile.Interfaces, core.InterfaceInfo{
			ID: ifc.ID, Name: ifc.Name, CapacityBps: ifc.CapacityBps, Router: ifc.Router,
		})
	}
	agentOf := make(map[string]string, len(sc.Topo.Routers))
	for i := range sc.Topo.Routers {
		r := &sc.Topo.Routers[i]
		agentOf[r.Name] = r.RouterID.String()
	}
	for i, router := range pop.Routers() {
		ep := core.RouterEndpoints{
			Name:       router,
			Addr:       pop.RouterIP(router).String(),
			SFlowAgent: agentOf[router],
		}
		if *bmpBase > 0 {
			ep.BMP = serveBridge(ctx, "bmp", router, *bmpBase+i, pop.BMPDialer(router))
			log.Printf("router %s: BMP feed on %s", router, ep.BMP)
		}
		if *injectBase > 0 {
			ep.Inject = serveBridge(ctx, "inject", router, *injectBase+i, pop.ControllerDialer(router))
			log.Printf("router %s: injection session on %s", router, ep.Inject)
		}
		invFile.Routers = append(invFile.Routers, ep)
	}
	if *invPath != "" {
		if err := invFile.WriteFile(*invPath); err != nil {
			log.Fatalf("write inventory: %v", err)
		}
		log.Printf("inventory written to %s", *invPath)
	}

	// Tick loop.
	ticker := time.NewTicker(*wallTick)
	defer ticker.Stop()
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	lastReport := time.Now()
	for {
		select {
		case <-ctx.Done():
			log.Printf("interrupted")
			return
		case <-deadline:
			log.Printf("duration reached")
			return
		case <-ticker.C:
		}
		if events != nil {
			events.Advance(clock.Now())
		}
		stats := pop.Plane.Tick(clock.Now(), virtTick)
		clock.Advance(virtTick)
		if time.Since(lastReport) >= *report {
			lastReport = time.Now()
			printStats(sc, stats)
		}
	}
}

// serveBridge exposes one of router's session dialers on a local TCP
// port and returns the listener address.
func serveBridge(ctx context.Context, kind, router string, port int, dial func(context.Context) (net.Conn, error)) string {
	br, err := netsim.NewBridge(fmt.Sprintf("127.0.0.1:%d", port), dial)
	if err != nil {
		log.Fatalf("%s bridge: %v", kind, err)
	}
	go func() {
		if err := br.Serve(ctx); err != nil {
			log.Printf("%s bridge %s: %v", kind, router, err)
		}
	}()
	return br.Addr().String()
}

// discardSink drops every sFlow datagram; it backs the loss wrapper
// when no --sflow destination is configured.
type discardSink struct{}

func (discardSink) SendDatagram([]byte) error { return nil }

// parseFlash parses "afterMinutes:durationMinutes:multiplier" into a
// flash-crowd event on the scenario's biggest private-peered AS.
func parseFlash(s string, sc *netsim.Scenario) (netsim.Event, error) {
	var afterMin, durMin int
	var mult float64
	if _, err := fmt.Sscanf(s, "%d:%d:%f", &afterMin, &durMin, &mult); err != nil {
		return netsim.Event{}, fmt.Errorf("want afterMin:durMin:multiplier, got %q", s)
	}
	var flashAS uint32
	var best float64
	for as, info := range sc.ASes {
		if info.Class == rib.ClassPrivate && info.Weight > best {
			best, flashAS = info.Weight, as
		}
	}
	if flashAS == 0 {
		return netsim.Event{}, fmt.Errorf("no private-peered AS to flash")
	}
	return netsim.Event{
		Kind:      netsim.EventFlashCrowd,
		At:        time.Duration(afterMin) * time.Minute,
		Duration:  time.Duration(durMin) * time.Minute,
		Magnitude: mult,
		AS:        flashAS,
	}, nil
}

func printStats(sc *netsim.Scenario, stats *netsim.TickStats) {
	fmt.Printf("%s virtual  demand %.1fG  drops %.2fG\n",
		stats.Time.Format("15:04:05"), stats.TotalDemandBps()/1e9, stats.TotalDropsBps()/1e9)
	type row struct {
		name string
		util float64
		drop float64
	}
	var rows []row
	for i := range sc.Topo.Interfaces {
		ifc := &sc.Topo.Interfaces[i]
		rows = append(rows, row{
			name: ifc.Name,
			util: stats.IfLoadBps[ifc.ID] / ifc.CapacityBps,
			drop: stats.IfDropsBps[ifc.ID],
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].util > rows[b].util })
	for i, r := range rows {
		if i >= 6 || r.util < 0.4 {
			break
		}
		marker := ""
		if r.util > 1 {
			marker = fmt.Sprintf("  DROPPING %.2fG", r.drop/1e9)
		}
		fmt.Printf("  %-28s %6.1f%%%s\n", r.name, r.util*100, marker)
	}
}
