// Package exp assembles the full Edge Fabric reproduction into runnable
// experiments: it wires a live emulated PoP (internal/netsim) to the
// controller (internal/core) over real BGP, BMP, and sFlow transports,
// steps virtual time, and implements every experiment indexed in
// DESIGN.md / EXPERIMENTS.md (E1–E10 plus the across-PoPs FLEET view).
package exp

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"edgefabric/internal/altpath"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// HarnessConfig parameterizes a full closed-loop simulation.
type HarnessConfig struct {
	// Synth configures the synthetic PoP scenario.
	Synth netsim.SynthConfig
	// Demand configures the traffic model (PeakBps defaults to the
	// synth peak).
	Demand netsim.DemandConfig
	// Perf configures the path performance model.
	Perf netsim.PathPerfConfig
	// Allocator configures the controller's overload algorithm.
	Allocator core.AllocatorConfig
	// ControllerEnabled wires and runs the controller; when false the
	// PoP runs on plain BGP (the paper's "without Edge Fabric"
	// baseline).
	ControllerEnabled bool
	// PerfAware turns on the controller's optimise stage
	// (core.Config.Optimizer): alternate paths are measured on the PoP's
	// dataplane and the multipath optimizer runs after the overload pass.
	// Alone it makes the paper's §6 whole-prefix moves (MaxPaths 1).
	PerfAware bool
	// Multipath lets the optimizer (PerfAware must be set) split demand
	// across up to MultipathCfg.MaxPaths egresses by headroom and
	// measured RTT/retransmit stats; without it MaxPaths is 1.
	Multipath bool
	// MultipathCfg parameterizes the optimizer.
	MultipathCfg core.MultipathConfig
	// Start is the virtual start time. Default 2017-03-01 00:00 UTC.
	Start time.Time
	// TickLen is the dataplane step and the controller's cycle
	// interval: every tick runs one cycle. Default 30 s (the paper's
	// cadence).
	TickLen time.Duration
	// Health parameterizes the controller's input-health thresholds;
	// zero fields default from the cycle interval.
	Health core.HealthConfig
	// SamplingRate is the sFlow 1-in-N rate. Default 8192.
	SamplingRate uint32
	// SFlowDemux, when set, is a shared fleet-host ingest point: the
	// PoP's routers register their agent addresses against this
	// harness's own collector and export through the demux instead of
	// straight into the collector. Requires router IDs disjoint from
	// every other PoP on the same demux (see netsim.SynthConfig.PoPIndex).
	SFlowDemux *sflow.Demux
	// Audit, when set, receives one JSON line per controller cycle.
	Audit *core.AuditLogger
	// Logf, when set, receives one-line log events.
	Logf func(format string, args ...any)
}

func (c *HarnessConfig) setDefaults() {
	if c.Start.IsZero() {
		c.Start = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.TickLen == 0 {
		c.TickLen = 30 * time.Second
	}
	if c.SamplingRate == 0 {
		c.SamplingRate = 8192
	}
}

// Harness is a running closed-loop simulation.
type Harness struct {
	Cfg        HarnessConfig
	Scenario   *netsim.Scenario
	Demand     *netsim.DemandModel
	Clock      *netsim.Clock
	PoP        *netsim.PoP
	Controller *core.Controller // nil when disabled
	Traffic    *sflow.Collector
	// Loss sits between the routers' sFlow agents and the collector;
	// fault experiments script datagram loss or total feed death on it.
	Loss *netsim.LossySink
	// Measurer is the controller's own optimise-stage measurer
	// (core.Controller.Measurer); nil unless PerfAware.
	Measurer  *altpath.Measurer
	Inventory *core.Inventory
	// Events, when attached, is advanced by Step before every tick; see
	// AttachEvents.
	Events *netsim.EventEngine

	cancel          context.CancelFunc
	eventBoundaries int
	cyclesPaused    atomic.Bool
}

// SetCyclesPaused gates the controller leg of Step: while paused, ticks
// still move the dataplane and virtual clock but no cycles run. The
// fleet supervisor uses this as a member's Pause hook so a draining
// PoP's controller stops writing overrides while its PoP keeps serving.
func (h *Harness) SetCyclesPaused(paused bool) { h.cyclesPaused.Store(paused) }

// lateMapper lets the sFlow collector be constructed before the route
// store that backs its prefix mapping exists.
type lateMapper struct {
	fn atomic.Pointer[sflow.PrefixMapper]
}

// MapPrefix implements sflow.PrefixMapper.
func (l *lateMapper) MapPrefix(a netip.Addr) netip.Prefix {
	if m := l.fn.Load(); m != nil {
		return (*m).MapPrefix(a)
	}
	return netip.Prefix{}
}

// InventoryFromTopology converts a netsim topology into the controller's
// inventory, registering the IPv6 next-hop aliases the simulator derives
// for v4-addressed sessions.
func InventoryFromTopology(topo *netsim.Topology) (*core.Inventory, error) {
	var peers []core.PeerInfo
	for i := range topo.Peers {
		p := &topo.Peers[i]
		peers = append(peers, core.PeerInfo{
			Name:        p.Name,
			Addr:        p.Addr,
			AS:          p.AS,
			Class:       p.Class,
			InterfaceID: p.InterfaceID,
			Router:      p.Router,
		})
	}
	var ifs []core.InterfaceInfo
	for i := range topo.Interfaces {
		ifc := &topo.Interfaces[i]
		ifs = append(ifs, core.InterfaceInfo{
			ID:          ifc.ID,
			Name:        ifc.Name,
			CapacityBps: ifc.CapacityBps,
			Router:      ifc.Router,
		})
	}
	inv, err := core.NewInventory(peers, ifs)
	if err != nil {
		return nil, err
	}
	for i := range topo.Peers {
		p := &topo.Peers[i]
		// Register the derived IPv6 next-hop identity the simulator
		// uses for v4-addressed sessions, so v6 routes resolve.
		if v6 := netsim.V6AliasFor(p.Addr); v6 != p.Addr {
			_ = inv.RegisterPeerAlias(v6, p.Addr) // best effort; aliases may collide
		}
	}
	return inv, nil
}

// NewHarness synthesizes a scenario, starts the PoP, wires the
// controller (if enabled), and blocks until BGP has converged and the
// controller is ready.
func NewHarness(ctx context.Context, cfg HarnessConfig) (*Harness, error) {
	cfg.setDefaults()
	sc, err := netsim.Synthesize(cfg.Synth)
	if err != nil {
		return nil, err
	}
	demand, err := sc.NewDemand(cfg.Demand)
	if err != nil {
		return nil, err
	}
	clock := netsim.NewClock(cfg.Start)

	mapper := &lateMapper{}
	traffic := sflow.NewCollector(sflow.CollectorConfig{
		Mapper:  mapper,
		Window:  time.Minute,
		Buckets: 2,
		Now:     clock.Now,
	})

	// In fleet-host mode the PoP's agents export into the shared demux,
	// which routes each datagram back to this PoP's collector by agent
	// address — exactly the path a shared UDP listener takes.
	var sink sflow.Sink = traffic
	if cfg.SFlowDemux != nil {
		bindings := make(map[netip.Addr]*sflow.Collector, len(sc.Topo.Routers))
		for _, r := range sc.Topo.Routers {
			bindings[r.RouterID] = traffic
		}
		cfg.SFlowDemux.RegisterBatch(bindings)
		sink = cfg.SFlowDemux
	}
	// The lossy wrapper is transparent until a fault experiment scripts
	// loss on it.
	loss := netsim.NewLossySink(sink, cfg.Synth.Seed)
	pop, err := netsim.NewPoP(netsim.PoPConfig{
		Scenario:     sc,
		Demand:       demand,
		Clock:        clock,
		Perf:         cfg.Perf,
		SFlowSink:    loss,
		SamplingRate: cfg.SamplingRate,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(context.Background())
	h := &Harness{
		Cfg:      cfg,
		Scenario: sc,
		Demand:   demand,
		Clock:    clock,
		PoP:      pop,
		Traffic:  traffic,
		Loss:     loss,
		cancel:   cancel,
	}
	if err := pop.Start(runCtx); err != nil {
		cancel()
		return nil, err
	}
	convergeCtx, ccancel := context.WithTimeout(ctx, 60*time.Second)
	defer ccancel()
	if err := pop.WaitConverged(convergeCtx); err != nil {
		h.Close()
		return nil, err
	}

	inv, err := InventoryFromTopology(sc.Topo)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Inventory = inv

	if !cfg.ControllerEnabled {
		// Demand mapping still needs LPM over known prefixes: use the
		// PoP table directly.
		var m sflow.PrefixMapper = sflow.PrefixMapperFunc(pop.Table.LookupPrefix)
		mapper.fn.Store(&m)
		return h, nil
	}

	var opt core.OptimizerConfig
	if cfg.PerfAware {
		opt = core.OptimizerConfig{Source: pop.Plane, Seed: cfg.Synth.Seed, Multipath: cfg.MultipathCfg}
		if !cfg.Multipath {
			opt.Multipath.MaxPaths = 1
		}
	}
	ctrl, err := core.New(core.Config{
		Inventory:     inv,
		Traffic:       traffic,
		Allocator:     cfg.Allocator,
		CycleInterval: cfg.TickLen,
		Health:        cfg.Health,
		LocalAS:       sc.Topo.LocalAS,
		Now:           clock.Now,
		Audit:         cfg.Audit,
		Logf:          cfg.Logf,
		Optimizer:     opt,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Controller = ctrl
	h.Measurer = ctrl.Measurer()

	// Route mapping for sFlow now comes from the controller's store.
	var m sflow.PrefixMapper = h.Controller.Store()
	mapper.fn.Store(&m)

	// Wire BMP feeds and injection sessions through the PoP's dialers so
	// both self-heal (and so fault experiments can kill and restore
	// them). Each BMP dial, the first included, starts with the router's
	// Peer Up + table dump.
	for _, router := range pop.Routers() {
		h.Controller.AddBMPFeedDialer(router, pop.BMPDialer(router))
		if err := h.Controller.AddInjectionSessionDialer(pop.RouterIP(router), pop.ControllerDialer(router)); err != nil {
			h.Close()
			return nil, err
		}
	}
	readyCtx, rcancel := context.WithTimeout(ctx, 60*time.Second)
	defer rcancel()
	if err := h.Controller.WaitReady(readyCtx, pop.ExpectedRoutes()); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// AttachEvents builds an EventEngine over the harness's PoP for the
// given timeline and has Step drive it: events start applying at the
// current virtual time. Capacity events are mirrored into the
// controller's inventory (the SNMP view) in addition to the dataplane.
func (h *Harness) AttachEvents(events []netsim.Event) error {
	eng, err := netsim.NewEventEngine(netsim.EventEngineConfig{
		Start:  h.Clock.Now(),
		Events: events,
		PoP:    h.PoP,
		Demand: h.Demand,
		Loss:   h.Loss,
		OnCapacity: func(ifID int, bps float64) {
			_ = h.Inventory.SetInterfaceCapacity(ifID, bps)
		},
		Logf: h.Cfg.Logf,
	})
	if err != nil {
		return err
	}
	h.Events = eng
	return nil
}

// EventBoundaries reports how many event transitions (applies plus
// reverts) have fired during Steps so far.
func (h *Harness) EventBoundaries() int { return h.eventBoundaries }

// Step advances the simulation by one tick: scheduled events fire, the
// dataplane moves demand (feeding sFlow), virtual time advances, and
// the controller runs one cycle (unless disabled or paused). It returns
// the tick's dataplane stats and the cycle report if a cycle ran (nil
// otherwise).
func (h *Harness) Step() (*netsim.TickStats, *core.CycleReport) {
	if h.Events != nil {
		h.eventBoundaries += h.Events.Advance(h.Clock.Now())
	}
	stats := h.PoP.Plane.Tick(h.Clock.Now(), h.Cfg.TickLen)
	h.Clock.Advance(h.Cfg.TickLen)
	var report *core.CycleReport
	if h.Controller != nil && !h.cyclesPaused.Load() {
		report, _ = h.Controller.RunCycle()
		h.waitOverridesApplied(report)
	}
	return stats, report
}

// waitOverridesApplied blocks briefly until the PoP table reflects the
// injector's current override set: injection rides asynchronous BGP
// sessions, and the simulation's virtual time shouldn't race wall-clock
// message delivery. The wait is event-driven: each retry blocks on the
// next PoP-table mutation instead of sleeping.
func (h *Harness) waitOverridesApplied(report *core.CycleReport) {
	if report == nil {
		return
	}
	// A frozen or failed-back cycle may be mid-fault (killed sessions,
	// dead feeds): the table legitimately cannot converge to the report,
	// and blocking here would stall virtual time on a wall-clock timeout.
	if report.Health == core.HealthFailStatic || report.Health == core.HealthFailBack {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		ver := h.PoP.Table.Version()
		if h.overridesApplied(report) {
			return
		}
		if err := h.PoP.Table.WaitChange(ctx, ver); err != nil {
			return
		}
	}
}

// overridesApplied reports whether the PoP table holds exactly the
// report's overrides: each overridden prefix routes via the controller,
// with the override's next hop or its members' next hops and weights,
// and no other prefix holds a controller route. Comparing prefixes
// alone would pass a re-weighted set, or a whole-prefix move to another
// path, before the routers have it.
func (h *Harness) overridesApplied(report *core.CycleReport) bool {
	want := make(map[netip.Prefix]*core.Override, len(report.Overrides))
	for i := range report.Overrides {
		want[report.Overrides[i].Prefix] = &report.Overrides[i]
	}
	applied, stale := 0, false
	h.PoP.Table.EachRoutes(func(p netip.Prefix, routes []*rib.Route) {
		if o := want[p]; o != nil {
			if installedAs(routes, o) {
				applied++
			}
			return
		}
		for _, r := range routes {
			stale = stale || r.PeerClass == rib.ClassController
		}
	})
	return !stale && applied == len(want)
}

// installedAs reports whether one prefix's routes (best first) carry
// exactly o: a controller route is best, and the controller routes are
// o's next hop with no slot community, or o's members slot by slot with
// their weights.
func installedAs(routes []*rib.Route, o *core.Override) bool {
	if len(routes) == 0 || routes[0].PeerClass != rib.ClassController {
		return false
	}
	n := 0
	for _, r := range routes {
		if r.PeerClass != rib.ClassController {
			continue
		}
		n++
		slot, pct, mp := rib.ParseMultipathCommunities(r.Communities)
		if len(o.Multipath) == 0 {
			if mp || r.NextHop != o.Via.NextHop {
				return false
			}
			continue
		}
		if !mp || slot >= len(o.Multipath) {
			return false
		}
		if m := o.Multipath[slot]; r.NextHop != m.Via.NextHop || pct != m.WeightPct {
			return false
		}
	}
	if len(o.Multipath) == 0 {
		return n == 1
	}
	return n == len(o.Multipath)
}

// foldDecisions folds one cycle's override set into w in
// rib.ComparePrefixes order — prefix, next hop, egress interface, then
// each weighted member's next hop and weight — and returns how many of
// the overrides are weighted sets. It is the one form in which two
// decisions compare: the decision pins hash it, and decisionOf renders
// it for the hosted-vs-isolated and fail-static checks.
func foldDecisions(w io.Writer, overrides []core.Override) (sets int) {
	sorted := slices.Clone(overrides)
	slices.SortFunc(sorted, func(a, b core.Override) int { return rib.ComparePrefixes(a.Prefix, b.Prefix) })
	fmt.Fprintf(w, "cycle %d\n", len(sorted))
	for _, o := range sorted {
		fmt.Fprintf(w, "%s %s %d", o.Prefix, o.Via.NextHop, o.ToIF)
		for _, pw := range o.Multipath {
			fmt.Fprintf(w, " %s/%d", pw.Via.NextHop, pw.WeightPct)
		}
		w.Write([]byte{'\n'})
		if len(o.Multipath) > 0 {
			sets++
		}
	}
	return sets
}

// decisionOf renders an override set in foldDecisions form; two sets
// are the same decision when their renderings are equal.
func decisionOf(overrides []core.Override) string {
	var b strings.Builder
	foldDecisions(&b, overrides)
	return b.String()
}

// installedDecision renders a controller's installed set
// (core.Controller.Installed) in foldDecisions form.
func installedDecision(installed map[netip.Prefix]core.Override) string {
	overrides := make([]core.Override, 0, len(installed))
	for _, o := range installed {
		overrides = append(overrides, o)
	}
	return decisionOf(overrides)
}

// Run steps the simulation for the given virtual duration, invoking
// observe (if non-nil) after every tick.
func (h *Harness) Run(d time.Duration, observe func(*netsim.TickStats, *core.CycleReport)) {
	n := int(d / h.Cfg.TickLen)
	for i := 0; i < n; i++ {
		stats, report := h.Step()
		if observe != nil {
			observe(stats, report)
		}
	}
}

// Close tears the whole harness down.
func (h *Harness) Close() {
	if h.Controller != nil {
		h.Controller.Close()
	}
	if h.Cfg.SFlowDemux != nil {
		agents := make([]netip.Addr, 0, len(h.Scenario.Topo.Routers))
		for _, r := range h.Scenario.Topo.Routers {
			agents = append(agents, r.RouterID)
		}
		h.Cfg.SFlowDemux.UnregisterBatch(agents)
	}
	h.cancel()
	h.PoP.Close()
}

// String identifies the harness configuration compactly.
func (h *Harness) String() string {
	mode := "bgp-only"
	if h.Controller != nil {
		mode = "edge-fabric"
		if h.Cfg.PerfAware {
			mode = "edge-fabric+perf"
		}
	}
	return fmt.Sprintf("%s[%s, %d prefixes, %d peers]",
		h.Scenario.Topo.Name, mode, len(h.Scenario.Prefixes), len(h.Scenario.Topo.Peers))
}
