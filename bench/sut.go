package main

// sut.go is the benchmark's adapter to the system under test: every
// import of an edgefabric package, and every call into one, is in this
// file. The rest of the benchmark sees only the types declared here, so
// a refactor of the repository has one file to retarget (README.md lists
// the surface).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/altpath"
	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
	"edgefabric/internal/wire"
)

const (
	// topoSeed fixes the synthesized PoP: the topology is the fixture
	// every run shares, and -seed drives what happens on it (demand
	// noise, path performance, the event timeline, sampled traffic, the
	// perturbation windows). Capacities and peer counts move cycle time
	// by ±15 % between topologies, which would drown a 10 % bound.
	topoSeed = 1
	tickLen  = 30 * time.Second
	// installTimeout bounds the wait for a cycle's changed prefixes to
	// show up in the peering router's RIB; past it the operation failed.
	installTimeout = 5 * time.Second
)

// ---------------------------------------------------------------------
// One controller with its inputs and its injection target
// ---------------------------------------------------------------------

// system is one controller under test with the peering-router RIB its
// overrides must land in. The three constructors below build it for the
// pop_*, table_500k and ingest_flood workloads.
type system struct {
	ctrl    *core.Controller
	inv     *core.Inventory
	sc      *netsim.Scenario
	traffic core.TrafficSource
	router  *rib.Table // the peering routers' RIB (netsim PoP table or the stub's)
	acfg    core.AllocatorConfig

	// step feeds the next cycle's inputs (a dataplane tick, a demand
	// perturbation, a tick's worth of sFlow); the caller keeps it out of
	// the cycle timers.
	step    func()
	stepErr error // set by step when the inputs could not be fed
	stop    func()

	// setupParts is the set-up wall time by part, in seconds.
	setupParts map[string]float64

	// pop_* only.
	h    *exp.Harness
	mcfg core.MultipathConfig
	qual quality

	// ingest_flood only.
	col   *sflow.Collector
	feed  *routeFeed
	flood *ingestRig

	// Open-coded cycle state for traced runs: the same projector fields
	// core.New derives from Config, and the cross-cycle state RunCycle
	// keeps inside the controller (and exp.Harness inside its closure).
	pj         core.Projector
	allocState core.AllocState
	demand     map[netip.Prefix]float64
	prevMP     map[netip.Prefix]core.Override
	lastAlloc  *core.AllocResult

	// Decision tracking: the previous cycle's desired set by wire
	// signature, and the running digest of every cycle's sorted set.
	prevSig map[netip.Prefix]string
	digest  hash.Hash

	explainSet []netip.Prefix
}

// cycleOut is what one control cycle did, as seen from outside.
type cycleOut struct {
	announced, withdrawn int
	overrides            int
	sets                 int // overrides carrying a weighted member set
	changed              []change

	// Set by the open-coded (traced) cycle only.
	recomputed, measured                           int
	fullSweep, reused                              bool
	projectAllocs, allocateAllocs, multipathAllocs uint64
	rootSpan                                       int
}

// change is one prefix whose announced state moved this cycle; want is
// nil for a withdrawal.
type change struct {
	prefix netip.Prefix
	want   *core.Override
}

func newSystem() *system {
	return &system{
		prevSig:    make(map[netip.Prefix]string),
		digest:     sha256.New(),
		setupParts: make(map[string]float64),
		stop:       func() {},
	}
}

// close tears the system down and waits for its goroutines.
func (s *system) close() { s.stop() }

// digestHex is the digest of every decision since set-up.
func (s *system) digestHex() string { return hex.EncodeToString(s.digest.Sum(nil)) }

// sigOf mirrors the injector's notion of an override's identity on the
// wire: the next hop, or the ordered members with their weights.
func sigOf(o *core.Override) string {
	if len(o.Multipath) == 0 {
		return o.Via.NextHop.String()
	}
	var b strings.Builder
	for i, pw := range o.Multipath {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s@%d", pw.Via.NextHop, pw.WeightPct)
	}
	return b.String()
}

// noteDecision diffs the cycle's desired set against the previous one,
// folds the sorted set into the digest, and cross-checks the injector's
// own announce/withdraw counts against the diff.
func (s *system) noteDecision(overrides []core.Override, out *cycleOut) error {
	sorted := make([]*core.Override, len(overrides))
	for i := range overrides {
		sorted[i] = &overrides[i]
	}
	sort.Slice(sorted, func(a, b int) bool {
		return rib.ComparePrefixes(sorted[a].Prefix, sorted[b].Prefix) < 0
	})
	cur := make(map[netip.Prefix]string, len(sorted))
	ann, wd := 0, 0
	for _, o := range sorted {
		sig := sigOf(o)
		cur[o.Prefix] = sig
		fmt.Fprintf(s.digest, "%s %s\n", o.Prefix, sig)
		if len(o.Multipath) > 1 {
			out.sets++
		}
		old, had := s.prevSig[o.Prefix]
		if had && old == sig {
			continue
		}
		out.changed = append(out.changed, change{prefix: o.Prefix, want: o})
		ann++
		if had {
			wd++
		}
	}
	s.digest.Write([]byte("--\n"))
	for p := range s.prevSig {
		if _, ok := cur[p]; !ok {
			out.changed = append(out.changed, change{prefix: p})
			wd++
		}
	}
	s.prevSig = cur
	out.overrides = len(overrides)
	if ann != out.announced || wd != out.withdrawn {
		return fmt.Errorf("injector reported +%d/-%d, desired-set diff says +%d/-%d",
			out.announced, out.withdrawn, ann, wd)
	}
	return nil
}

// runCycle is the untraced cycle: one Controller.RunCycle.
func (s *system) runCycle() (cycleOut, error) {
	rep, err := s.ctrl.RunCycle()
	if err != nil {
		return cycleOut{}, err
	}
	if rep.Health != core.HealthHealthy {
		return cycleOut{}, fmt.Errorf("cycle %d ran %s: %v", rep.Seq, rep.Health, rep.HealthReasons)
	}
	out := cycleOut{announced: rep.Announced, withdrawn: rep.Withdrawn}
	return out, s.noteDecision(rep.Overrides, &out)
}

type ratesInto interface {
	RatesInto(map[netip.Prefix]float64) map[netip.Prefix]float64
}

// tracedCycle is the open-coded cycle of a traced run: the calls
// RunCycle makes, in its order, against the same controller-owned
// store and injector, with a span around each. It never runs in a timed
// run.
func (s *system) tracedCycle(rec *recorder) (cycleOut, error) {
	var out cycleOut
	rec.nextCycle()
	root := rec.begin("cycle", -1)
	out.rootSpan = root
	tr := core.NewCycleTrace(4096) // RunCycle's default TraceConfig

	id := rec.begin("sflow.rates", root)
	if ri, ok := s.traffic.(ratesInto); ok {
		s.demand = ri.RatesInto(s.demand)
	} else {
		s.demand = s.traffic.Rates()
	}
	rec.end(id)

	a0 := heapObjects()
	id = rec.begin("core.project", root)
	proj, ds := s.pj.ProjectDelta(s.ctrl.Store().Table(), s.demand)
	rec.end(id)
	a1 := heapObjects()
	out.projectAllocs = a1 - a0
	out.recomputed, out.fullSweep = ds.Recomputed, ds.Full

	id = rec.begin("core.allocate", root)
	alloc := core.AllocateDelta(proj, s.inv, s.acfg, s.ctrl.Injector().Installed(), tr, &ds, &s.allocState)
	rec.end(id)
	out.allocateAllocs = heapObjects() - a1
	out.reused = alloc == s.lastAlloc
	s.lastAlloc = alloc

	// The optimizer stages are recorded on every workload: where the
	// controller runs without one their spans enclose no call, and their
	// self time is the recorder's own cost.
	overrides := alloc.Overrides
	multipath := s.h != nil && s.h.Measurer != nil

	id = rec.begin("altpath.measure", root)
	if multipath {
		prefixes := make([]netip.Prefix, 0, len(proj.Plans))
		for p := range proj.Plans {
			prefixes = append(prefixes, p)
		}
		out.measured = s.h.Measurer.MeasureRound(prefixes)
	}
	rec.end(id)

	id = rec.begin("altpath.reports", root)
	var reports []*altpath.PrefixReport
	if multipath {
		reports = s.h.Measurer.Reports()
	}
	rec.end(id)

	a2 := heapObjects()
	id = rec.begin("core.multipath", root)
	var extra []core.Override
	if multipath {
		extra = core.MultipathAllocateTraced(proj, s.inv, reports, alloc, s.prevMP, s.acfg, s.mcfg, tr)
		s.prevMP = core.MultipathPrior(extra)
	}
	rec.end(id)
	out.multipathAllocs = heapObjects() - a2

	id = rec.begin("core.merge", root)
	if multipath {
		taken := make(map[netip.Prefix]bool, len(overrides))
		for _, o := range overrides {
			taken[o.Prefix] = true
		}
		overrides = append([]core.Override(nil), overrides...)
		for _, o := range extra {
			if taken[o.Prefix] {
				continue
			}
			taken[o.Prefix] = true
			overrides = append(overrides, o)
		}
	}
	rec.end(id)

	id = rec.begin("core.inject", root)
	res, err := s.ctrl.Injector().Sync(overrides)
	rec.end(id)
	rec.end(root)
	if err != nil {
		return out, err
	}
	out.announced, out.withdrawn = res.Announced, res.Withdrawn
	return out, s.noteDecision(overrides, &out)
}

// controllerRoutes returns the controller-class routes the router holds
// for p.
func controllerRoutes(tab *rib.Table, p netip.Prefix) []*rib.Route {
	var out []*rib.Route
	for _, r := range tab.Routes(p) {
		if r.PeerClass == rib.ClassController {
			out = append(out, r)
		}
	}
	return out
}

// installed reports whether the router's RIB reflects the change: a
// withdrawn prefix has no controller route left; an announced one has
// exactly the override's route (or member set, slot by slot, with its
// weights) and it is the best route.
func installed(tab *rib.Table, ch change) bool {
	got := controllerRoutes(tab, ch.prefix)
	if ch.want == nil {
		return len(got) == 0
	}
	best := tab.Best(ch.prefix)
	if best == nil || best.PeerClass != rib.ClassController {
		return false
	}
	if len(ch.want.Multipath) == 0 {
		if len(got) != 1 || got[0].NextHop != ch.want.Via.NextHop {
			return false
		}
		_, _, mp := rib.ParseMultipathCommunities(got[0].Communities)
		return !mp
	}
	if len(got) != len(ch.want.Multipath) {
		return false
	}
	for _, r := range got {
		slot, pct, ok := rib.ParseMultipathCommunities(r.Communities)
		if !ok || slot >= len(ch.want.Multipath) {
			return false
		}
		m := ch.want.Multipath[slot]
		if r.NextHop != m.Via.NextHop || pct != m.WeightPct {
			return false
		}
	}
	return true
}

// waitInstalled blocks until every changed prefix of the cycle is (or
// is no longer) installed in the router's RIB, woken by RIB mutations.
// It reports false when installTimeout passes first.
func (s *system) waitInstalled(out cycleOut) bool {
	pending := out.changed
	if len(pending) == 0 {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), installTimeout)
	defer cancel()
	for {
		ver := s.router.Version()
		keep := pending[:0:0]
		for _, ch := range pending {
			if !installed(s.router, ch) {
				keep = append(keep, ch)
			}
		}
		if pending = keep; len(pending) == 0 {
			return true
		}
		if err := s.router.WaitChange(ctx, ver); err != nil {
			return false
		}
	}
}

// routerOps is the count of route operations applied to the router-side
// RIB so far; its delta over a cycle is what the injection cost the
// routers.
func (s *system) routerOps() uint64 { return s.router.Version() }

// explain8 asks the controller to explain eight fixed prefixes, the
// load an operator poking the status API puts beside the cycle.
func (s *system) explain8() int {
	n := 0
	for _, p := range s.explainSet {
		n += len(s.ctrl.Explain(p))
	}
	return n
}

// journalRead replays what ProjectDelta reads from the RIB each cycle —
// ChangedSince from the caller's cursor, then SnapshotRoutesInto over
// the dirty set — so the traced run can time the two reads on their
// own. ok=false is a journal overflow.
type journalReader struct {
	tab     *rib.Table
	since   uint64
	changed []netip.Prefix
	views   []rib.RouteView
}

func (s *system) newJournalReader() *journalReader {
	tab := s.ctrl.Store().Table()
	return &journalReader{tab: tab, since: tab.Version()}
}

func (j *journalReader) read() (changedMS, snapshotMS float64, ok bool) {
	t0 := time.Now()
	j.changed, j.since, ok = j.tab.ChangedSince(j.since, j.changed[:0])
	t1 := time.Now()
	j.views = j.tab.SnapshotRoutesInto(j.changed, j.views[:0])
	t2 := time.Now()
	return ms(t1.Sub(t0)), ms(t2.Sub(t1)), ok
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sweepMS times one warm full rebuild of the open-coded projector (the
// periodic safety sweep's cost) after a traced run.
func (s *system) sweepMS() float64 {
	s.pj.ResetDelta()
	t0 := time.Now()
	s.pj.ProjectDelta(s.ctrl.Store().Table(), s.demand)
	return ms(time.Since(t0))
}

// ---------------------------------------------------------------------
// pop_overload / pop_multipath: the full closed loop over exp.Harness
// ---------------------------------------------------------------------

// popShape sizes the synthesized PoP.
type popShape struct {
	prefixes, edgeASes, private, public, rsMembers int
	peakBps                                        float64
}

var (
	paperPoP = popShape{prefixes: 4000, peakBps: 400e9}
	smokePoP = popShape{prefixes: 400, edgeASes: 60, private: 4, public: 10, rsMembers: 12, peakBps: 100e9}
)

func (p popShape) synth() netsim.SynthConfig {
	return netsim.SynthConfig{
		Seed: topoSeed, Prefixes: p.prefixes, PeakBps: p.peakBps, EdgeASes: p.edgeASes,
		PrivatePeers: p.private, PublicPeers: p.public, RouteServerMembers: p.rsMembers,
	}
}

// quality accumulates the simulated dataplane's view of a run.
type quality struct {
	keepRTT            bool
	demandBps, dropBps float64
	rtt                []wsample
}

type wsample struct{ v, w float64 }

func (q *quality) add(st *netsim.TickStats) {
	q.demandBps += st.TotalDemandBps()
	q.dropBps += st.TotalDropsBps()
	if !q.keepRTT {
		return
	}
	for _, pt := range st.Prefix {
		if pt.EgressIF >= 0 && pt.DemandBps > 0 {
			q.rtt = append(q.rtt, wsample{v: pt.RTTms, w: pt.DemandBps})
		}
	}
}

func (q *quality) dropFrac() float64 {
	if q.demandBps == 0 {
		return 0
	}
	return q.dropBps / q.demandBps
}

// rttP90 is the demand-weighted p90 of delivered RTT over every
// (prefix, tick).
func (q *quality) rttP90() float64 {
	if len(q.rtt) == 0 {
		return 0
	}
	s := q.rtt
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	var total float64
	for _, x := range s {
		total += x.w
	}
	var cum float64
	for _, x := range s {
		if cum += x.w; cum >= 0.9*total {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// popTimeline is the benchmark's event script for one lap, offsets from
// the lap start: a flash crowd on the heaviest privately-peered AS, one
// public peer lost, one PNI drained, and for the multipath workload a
// slow and a lossy transit. No telemetry faults, so every cycle must be
// healthy. The targets belong to the fixture; the seed jitters each
// start by up to two cycles and each magnitude by ±10 %.
func popTimeline(sc *netsim.Scenario, seed int64, warm, cycles int, multipath bool) []netsim.Event {
	rng := rand.New(rand.NewSource(seed ^ 0x7e11))
	at := func(frac float64) time.Duration {
		c := warm + int(frac*float64(cycles)) + rng.Intn(3)
		return time.Duration(c) * tickLen
	}
	span := func(frac float64) time.Duration {
		return time.Duration(max(2, int(frac*float64(cycles)))) * tickLen
	}
	jit := func(v float64) float64 { return v * (0.9 + 0.2*rng.Float64()) }

	var private []*netsim.EdgeAS
	for _, as := range sc.ASes {
		if as.Class == rib.ClassPrivate {
			private = append(private, as)
		}
	}
	sort.Slice(private, func(a, b int) bool {
		if private[a].Weight != private[b].Weight {
			return private[a].Weight > private[b].Weight
		}
		return private[a].AS < private[b].AS
	})
	var public, transit, pni []*netsim.Peer
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		switch p.Class {
		case rib.ClassPublic:
			public = append(public, p)
		case rib.ClassTransit:
			transit = append(transit, p)
		case rib.ClassPrivate:
			pni = append(pni, p)
		}
	}
	var ev []netsim.Event
	if len(private) > 0 {
		ev = append(ev, netsim.Event{Kind: netsim.EventFlashCrowd, At: at(0.10), Duration: span(0.30),
			Magnitude: jit(1.6), AS: private[0].AS})
	}
	if len(public) > 0 {
		ev = append(ev, netsim.Event{Kind: netsim.EventDepeer, At: at(0.35), Duration: span(0.25),
			Peer: public[0].Name})
	}
	if len(pni) > 1 {
		ev = append(ev, netsim.Event{Kind: netsim.EventDrain, At: at(0.55), Duration: span(0.25),
			Magnitude: jit(0.5), Interface: pni[1].InterfaceID})
	}
	if multipath && len(transit) > 1 {
		ev = append(ev,
			netsim.Event{Kind: netsim.EventPathRTT, At: at(0.20), Duration: span(0.30),
				Magnitude: jit(40), Peer: transit[0].Name},
			netsim.Event{Kind: netsim.EventLossyPath, At: at(0.50), Duration: span(0.30),
				Magnitude: jit(0.15), Peer: transit[1].Name})
	}
	return ev
}

// newPopSystem builds one lap's closed loop: a synthesized PoP on real
// BGP/BMP/sFlow transports with the controller attached, starting in
// the evening ramp, with the lap's event timeline armed.
func newPopSystem(seed int64, multipath bool, shape popShape, warm, cycles int, keepRTT bool) (*system, error) {
	s := newSystem()
	cfg := exp.HarnessConfig{
		Synth:     shape.synth(),
		Demand:    netsim.DemandConfig{Seed: seed},
		Perf:      netsim.PathPerfConfig{Seed: seed},
		Allocator: core.AllocatorConfig{Threshold: 0.95},
		Start:     time.Date(2017, 3, 1, 18, 30, 0, 0, time.UTC),
		TickLen:   tickLen,
		// A 4x sparser sample than the harness default: the dataplane
		// tick is simulator time (two thirds of it building sFlow), and
		// at 1-in-8192 it costs 60 ms against a 4 ms cycle.
		SamplingRate:      32768,
		ControllerEnabled: true,
		PerfAware:         multipath,
		Multipath:         multipath,
	}
	h, err := exp.NewHarness(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	if err := h.AttachEvents(popTimeline(h.Scenario, seed, warm, cycles, multipath)); err != nil {
		h.Close()
		return nil, err
	}
	s.h, s.sc = h, h.Scenario
	s.ctrl, s.inv, s.traffic = h.Controller, h.Inventory, h.Traffic
	s.router = h.PoP.Table
	s.acfg, s.mcfg = cfg.Allocator, cfg.MultipathCfg
	s.prevMP = make(map[netip.Prefix]core.Override)
	s.qual.keepRTT = keepRTT
	s.stop = h.Close
	// A depeer takes a real BGP session down and up again; the routers
	// and the BMP feed converge on wall-clock time. Every other event
	// applies synchronously. Waiting for the controller's RIB (the end of
	// that chain) to hold the expected route count before the tick keeps
	// wall-clock races out of the decisions, so a seed repeats exactly.
	total := h.PoP.ExpectedRoutes()
	start := h.Clock.Now()
	settle := func() {
		want, now := total, h.Clock.Now().Sub(start)
		for _, e := range h.Events.Timeline() {
			if e.Kind == netsim.EventDepeer && now >= e.At && now < e.End() {
				for i := range s.sc.Topo.Peers {
					if s.sc.Topo.Peers[i].Name == e.Peer {
						want -= len(s.sc.Topo.Peers[i].Announces)
					}
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), installTimeout)
		defer cancel()
		tab := s.ctrl.Store().Table()
		for {
			ver := tab.Version()
			if tab.RouteCount() == want {
				return
			}
			if err := tab.WaitChange(ctx, ver); err != nil {
				s.stepErr = fmt.Errorf("routes did not converge after an event: %d, want %d", tab.RouteCount(), want)
				return
			}
		}
	}
	s.step = func() {
		if h.Events.Advance(h.Clock.Now()) > 0 {
			settle()
		}
		st := h.PoP.Plane.Tick(h.Clock.Now(), tickLen)
		h.Clock.Advance(tickLen)
		s.qual.add(st)
	}
	s.explainSet = heaviest(s.sc, 8)
	return s, nil
}

// heaviest returns the n highest-demand prefixes of the scenario.
func heaviest(sc *netsim.Scenario, n int) []netip.Prefix {
	ps := append([]*netsim.PrefixInfo(nil), sc.Prefixes...)
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].Weight > ps[b].Weight })
	out := make([]netip.Prefix, 0, n)
	for _, p := range ps[:min(n, len(ps))] {
		out = append(out, p.Prefix)
	}
	return out
}

// ---------------------------------------------------------------------
// A bare controller with a stub peering router as its injection target
// ---------------------------------------------------------------------

// stubRouter is the benchmark's peering router for the workloads with
// no simulated PoP: a real BGP speaker that installs what the
// controller's iBGP session announces into a RIB, the way the netsim
// routers do (one route per multipath slot, prefix-scoped withdraws).
type stubRouter struct {
	bgp.NopHandler
	table   *rib.Table
	inv     *core.Inventory
	speaker *bgp.Speaker
}

var stubRouterIP = netip.MustParseAddr("10.255.0.10")

func (r *stubRouter) HandleUpdate(_ *bgp.Peer, u *bgp.Update) {
	withdraw := func(p netip.Prefix) {
		for slot := 0; slot < rib.MaxMultipathSlots; slot++ {
			r.table.Remove(p, netsim.ControllerPathAddr(slot))
		}
	}
	apply := func(p netip.Prefix, nextHop netip.Addr) {
		target, ok := r.inv.PeerByAddr(nextHop)
		if !ok {
			return // uninstallable: the install check will time out and count it
		}
		route := &rib.Route{
			Prefix: p, NextHop: nextHop, ASPath: u.Attrs.FlatASPath(), PathHops: u.Attrs.PathHopCount(),
			Origin: rib.Origin(u.Attrs.Origin), Communities: u.Attrs.Communities,
			PeerAddr: netsim.ControllerAddr, PeerClass: rib.ClassController, FromIBGP: true,
			LocalPref: u.Attrs.LocalPref, EgressIF: target.InterfaceID,
		}
		if slot, _, ok := rib.ParseMultipathCommunities(u.Attrs.Communities); ok {
			route.PeerAddr = netsim.ControllerPathAddr(slot)
		} else {
			for slot := 1; slot < rib.MaxMultipathSlots; slot++ {
				r.table.Remove(p, netsim.ControllerPathAddr(slot))
			}
		}
		r.table.Accept(route)
	}
	for _, w := range u.Withdrawn {
		withdraw(w)
	}
	if u.Attrs.MPUnreach != nil {
		for _, w := range u.Attrs.MPUnreach.Withdrawn {
			withdraw(w)
		}
	}
	for _, n := range u.NLRI {
		apply(n, u.Attrs.NextHop)
	}
	if u.Attrs.MPReach != nil {
		for _, n := range u.Attrs.MPReach.NLRI {
			apply(n, u.Attrs.MPReach.NextHop)
		}
	}
}

// attachStubRouter starts a stub peering router and establishes the
// controller's injection session to it over a buffered pipe.
func attachStubRouter(ctrl *core.Controller, inv *core.Inventory, localAS uint32) (*stubRouter, error) {
	r := &stubRouter{table: rib.NewTable(rib.DefaultPolicy()), inv: inv}
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS: localAS, RouterID: stubRouterIP, HoldTime: 30 * time.Second, Handler: r,
	})
	if err != nil {
		return nil, err
	}
	r.speaker = sp
	peer, err := sp.AddPeer(bgp.PeerConfig{PeerAddr: netsim.ControllerAddr, PeerAS: localAS})
	if err != nil {
		sp.Close()
		return nil, err
	}
	routerEnd, ctrlEnd := netsim.BufferedPipe()
	if err := peer.Accept(routerEnd); err != nil {
		sp.Close()
		return nil, err
	}
	if err := ctrl.AddInjectionSession(stubRouterIP, ctrlEnd); err != nil {
		sp.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ctrl.WaitReady(ctx, 0); err != nil {
		sp.Close()
		return nil, err
	}
	return r, nil
}

// heavyHitter is the production projector configuration for tables too
// large to scan every cycle.
func heavyHitter(c *core.Config) {
	c.HeavyHitterK, c.TailEpsilon, c.TailStride = 8192, 0.25, 32
}

// bareController builds a controller over the scenario's inventory and
// wires s to it: store, injector, stub router, and the projector fields
// core.New derives, for the open-coded cycle.
func (s *system) bareController(sc *netsim.Scenario, traffic core.TrafficSource, now func() time.Time, tune func(*core.Config)) error {
	inv, err := exp.InventoryFromTopology(sc.Topo)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Inventory: inv,
		Traffic:   traffic,
		Allocator: core.AllocatorConfig{Threshold: 0.95},
		LocalAS:   sc.Topo.LocalAS,
		Now:       now,
	}
	if tune != nil {
		tune(&cfg)
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		return err
	}
	router, err := attachStubRouter(ctrl, inv, sc.Topo.LocalAS)
	if err != nil {
		ctrl.Close()
		return err
	}
	s.ctrl, s.inv, s.sc, s.traffic = ctrl, inv, sc, traffic
	s.router, s.acfg = router.table, cfg.Allocator
	s.pj = core.Projector{
		Epsilon: cfg.ProjectionEpsilon, Workers: cfg.ProjectionWorkers, FullSweepEvery: cfg.FullSweepEvery,
		HeavyK: cfg.HeavyHitterK, TailEpsilon: cfg.TailEpsilon, TailStride: cfg.TailStride,
	}
	s.explainSet = heaviest(sc, 8)
	s.stop = func() {
		ctrl.Close()
		router.speaker.Close()
	}
	return nil
}

// routesOf renders a peer's announcements as the routes BMP would have
// delivered for them.
func routesOf(peer *netsim.Peer, fn func(*rib.Route)) {
	for _, ann := range peer.Announces {
		nh := peer.Addr
		if ann.Prefix.Addr().Is6() {
			nh = netsim.V6AliasFor(peer.Addr) // what the peer's MP_REACH carries
		}
		fn(&rib.Route{
			Prefix: ann.Prefix, NextHop: nh, ASPath: ann.Path, MED: ann.MED, HasMED: ann.MED != 0,
			PeerAddr: peer.Addr, PeerAS: peer.AS, PeerClass: peer.Class, EgressIF: peer.InterfaceID,
		})
	}
}

// ---------------------------------------------------------------------
// table_500k: the million-prefix decision path through core.Controller
// ---------------------------------------------------------------------

// staticTraffic is exact demand the driver perturbs between cycles.
type staticTraffic struct{ m map[netip.Prefix]float64 }

func (t *staticTraffic) Rates() map[netip.Prefix]float64 { return t.m }

// newTableSystem synthesizes an n-prefix table, loads it straight into
// the controller's RIB (the converged state BMP would deliver, without
// the wire), runs the cold full cycle and returns with the delta path
// warm. step then re-announces 256 transit routes and, every fourth
// cycle, raises a rotating 4 % window of demand by x2.5 and restores the
// previous one: E14's dirty-cycle ingredients on a 3:1 schedule, with a
// shift large enough that a few dozen overrides move with it.
func newTableSystem(seed int64, n int) (*system, error) {
	s := newSystem()
	t0 := time.Now()
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: topoSeed, Prefixes: n})
	if err != nil {
		return nil, err
	}
	s.setupParts["synth"] = time.Since(t0).Seconds()

	traffic := &staticTraffic{m: make(map[netip.Prefix]float64, len(sc.Prefixes))}
	base := make([]float64, len(sc.Prefixes))
	for i, pi := range sc.Prefixes {
		base[i] = pi.Weight * sc.Config.PeakBps
		traffic.m[pi.Prefix] = base[i]
	}
	if err := s.bareController(sc, traffic, nil, heavyHitter); err != nil {
		return nil, err
	}

	t0 = time.Now()
	tab := s.ctrl.Store().Table()
	for i := range sc.Topo.Peers {
		routesOf(&sc.Topo.Peers[i], func(r *rib.Route) { tab.Accept(r) })
	}
	s.setupParts["load"] = time.Since(t0).Seconds()

	var transit *netsim.Peer
	for i := range sc.Topo.Peers {
		if sc.Topo.Peers[i].Class == rib.ClassTransit {
			transit = &sc.Topo.Peers[i]
			break
		}
	}
	rng := rand.New(rand.NewSource(seed))
	window := max(1, len(sc.Prefixes)/25)
	cursor, routeCursor := rng.Intn(len(sc.Prefixes)), 0
	if transit != nil {
		routeCursor = rng.Intn(len(transit.Announces))
	}
	const routeChurn = 256
	cyc := 0
	s.step = func() {
		// Every cycle sees the route churn; every fourth also a demand
		// shift: a fresh window raised, the last raised one restored. One
		// cycle in four is then a heavy one by construction, so the median
		// sits inside the light mode and the p90 inside the heavy one,
		// neither on an edge. (E14 alternates, which puts the median on
		// the edge between its two modes.)
		if cyc++; cyc%4 == 0 {
			for k := 0; k < window; k++ {
				prev := (cursor - window + k + len(sc.Prefixes)) % len(sc.Prefixes)
				traffic.m[sc.Prefixes[prev].Prefix] = base[prev]
				next := (cursor + k) % len(sc.Prefixes)
				traffic.m[sc.Prefixes[next].Prefix] = base[next] * 2.5
			}
			cursor = (cursor + window) % len(sc.Prefixes)
		}
		if transit == nil {
			return
		}
		for k := 0; k < routeChurn; k++ {
			ann := transit.Announces[(routeCursor+k)%len(transit.Announces)]
			nh := transit.Addr
			if ann.Prefix.Addr().Is6() {
				nh = netsim.V6AliasFor(transit.Addr)
			}
			tab.Add(&rib.Route{
				Prefix: ann.Prefix, NextHop: nh, ASPath: ann.Path,
				PeerAddr: transit.Addr, PeerAS: transit.AS, PeerClass: transit.Class, EgressIF: transit.InterfaceID,
			})
		}
		routeCursor = (routeCursor + routeChurn) % len(transit.Announces)
	}
	return s, nil
}

// ---------------------------------------------------------------------
// BMP route feed: a table as wire bytes, replayed into a controller
// ---------------------------------------------------------------------

// routeFeed is one router's BMP stream toward a controller, with the
// table pre-marshalled: dump re-announces every route, down takes every
// peer down (the store flushes their routes).
type routeFeed struct {
	ctrl   *core.Controller
	conn   net.Conn
	dump   [][]byte // route-monitoring messages, in chunks of ~64 KiB
	down   []byte
	routes int
	msgs   int
}

// newRouteFeed marshals up to maxRoutes of the scenario's announcements
// as BMP and opens the stream (Initiation, then a Peer Up per peer).
func newRouteFeed(ctrl *core.Controller, sc *netsim.Scenario, maxRoutes int) (*routeFeed, error) {
	f := &routeFeed{ctrl: ctrl}
	w := wire.NewWriter(1 << 16)
	now := time.Unix(1488393000, 0)
	put := func(m bmp.Message) error { return bmp.Marshal(w, m) }

	if err := put(&bmp.Initiation{Info: [][2]string{{"sysName", "bench-pr1"}}}); err != nil {
		return nil, err
	}
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		hdr := bmp.PeerHeader{PeerAddr: p.Addr, PeerAS: p.AS, PeerBGPID: stubRouterIP, Timestamp: now}
		if err := put(&bmp.PeerUp{Peer: hdr, LocalAddr: stubRouterIP}); err != nil {
			return nil, err
		}
	}
	open := w.Take()

	var chunk *wire.Writer
	flush := func() {
		if chunk != nil && chunk.Len() > 0 {
			f.dump = append(f.dump, chunk.Take())
		}
		chunk = wire.NewWriter(1 << 16)
	}
	flush()
	down := wire.NewWriter(1 << 12)
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		hdr := bmp.PeerHeader{PeerAddr: p.Addr, PeerAS: p.AS, Timestamp: now}
		if err := bmp.Marshal(down, &bmp.PeerDown{Peer: hdr, Reason: 2}); err != nil {
			return nil, err
		}
		if f.routes >= maxRoutes {
			continue
		}
		for _, u := range netsim.BuildAnnouncements(p) {
			if err := bmp.Marshal(chunk, &bmp.RouteMonitoring{Peer: hdr, Update: u}); err != nil {
				return nil, err
			}
			f.msgs++
			f.routes += len(u.NLRI)
			if u.Attrs.MPReach != nil {
				f.routes += len(u.Attrs.MPReach.NLRI)
			}
			if chunk.Len() >= 60<<10 {
				flush()
			}
		}
	}
	flush()
	f.down = down.Take()

	feedEnd, ctrlEnd := netsim.BufferedPipe()
	f.conn = feedEnd
	ctrl.AddBMPFeed("bench-pr1", ctrlEnd)
	if _, err := f.conn.Write(open); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *routeFeed) table() *rib.Table { return f.ctrl.Store().Table() }

// replay writes the whole dump and returns once every route is in the
// controller's RIB: wire bytes to routes present.
func (f *routeFeed) replay() (time.Duration, error) {
	t0 := time.Now()
	for _, c := range f.dump {
		if _, err := f.conn.Write(c); err != nil {
			return 0, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := f.table().WaitRouteCount(ctx, f.routes); err != nil {
		return 0, fmt.Errorf("dump replay: %d/%d routes: %w", f.table().RouteCount(), f.routes, err)
	}
	return time.Since(t0), nil
}

// flush takes every peer down and waits for the RIB to empty.
func (f *routeFeed) flush() error {
	if _, err := f.conn.Write(f.down); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	tab := f.table()
	for {
		ver := tab.Version()
		if tab.RouteCount() == 0 {
			return nil
		}
		if err := tab.WaitChange(ctx, ver); err != nil {
			return fmt.Errorf("flush: %d routes left: %w", tab.RouteCount(), err)
		}
	}
}

// replayRoutesPerSec paces the dump replay that runs beside the cycles:
// about half of what the route store absorbs flat out on this class of
// host, and several times the rate at which a cycle overflows the
// table's 65 536-entry change journal, so every cycle meets the same,
// stated contention instead of whatever an unpaced writer and the
// scheduler make of two cores.
const replayRoutesPerSec = 500_000

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// replayLoop rewrites the dump over a populated RIB at
// replayRoutesPerSec until stop is called, keeping at most a few chunks
// ahead of the controller's route store (the pipe itself never pushes
// back). While the system's inputs
// are being fed (system.step) the loop holds off: sFlow ingest maps
// every record through the RIB, and its read locks queue behind the
// dump's write batches, which would put seconds of untimed waiting into
// every iteration. stop waits for the store to absorb what was written
// and returns the routes replayed.
func (s *system) replayLoop() (stop func() (routes int, err error)) {
	f := s.feed
	var quit, hold, exited atomic.Bool
	var wg sync.WaitGroup
	var sent atomic.Int64 // routes written so far; the driver reads it beside the loop
	var loopErr error     // the loop's own until wg.Wait returns
	seen := func() int64 { r, _, _ := f.ctrl.Store().Stats(); return int64(r) }
	base := seen()
	perChunk := int64(max(1, f.routes/max(1, len(f.dump))))
	behind := func() bool { return seen()-base < sent.Load()-4*perChunk }
	gap := time.Duration(float64(perChunk) / replayRoutesPerSec * float64(time.Second))
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer exited.Store(true)
		due := time.Now()
		for !quit.Load() {
			for _, c := range f.dump {
				for (hold.Load() || behind() || time.Now().Before(due)) && !quit.Load() {
					runtime.Gosched()
				}
				if quit.Load() {
					return
				}
				if _, loopErr = f.conn.Write(c); loopErr != nil {
					return
				}
				sent.Add(perChunk)
				due = maxTime(due.Add(gap), time.Now().Add(-4*gap)) // never owe more than a few chunks
			}
		}
	}()
	step := s.step
	s.step = func() {
		hold.Store(true)
		for seen()-base < sent.Load()-perChunk && !exited.Load() {
			runtime.Gosched() // let the store drain what is in flight
		}
		step()
		hold.Store(false)
	}
	return func() (int, error) {
		quit.Store(true)
		wg.Wait()
		s.step = step
		deadline := time.Now().Add(30 * time.Second)
		for last := int64(-1); time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
			n := seen()
			if n == last {
				break
			}
			last = n
		}
		return int(seen() - base), loopErr
	}
}

// ---------------------------------------------------------------------
// sFlow ingest: pre-marshalled datagrams pushed into a collector
// ---------------------------------------------------------------------

var sflowAgents = []netip.Addr{
	netip.MustParseAddr("10.255.1.1"), netip.MustParseAddr("10.255.2.1"),
	netip.MustParseAddr("10.255.3.1"), netip.MustParseAddr("10.255.4.1"),
}

const recordsPerDatagram = 16

// weightedPicker draws scenario prefixes in proportion to their demand
// weight (heavy-tailed, so the traffic is skewed the way real egress
// is).
type weightedPicker struct {
	prefixes []*netsim.PrefixInfo
	cum      []float64
}

func newWeightedPicker(prefixes []*netsim.PrefixInfo) *weightedPicker {
	p := &weightedPicker{prefixes: prefixes, cum: make([]float64, len(prefixes))}
	var t float64
	for i, pi := range prefixes {
		t += pi.Weight
		p.cum[i] = t
	}
	return p
}

func (p *weightedPicker) pick(rng *rand.Rand) *netsim.PrefixInfo {
	x := rng.Float64() * p.cum[len(p.cum)-1]
	return p.prefixes[min(sort.SearchFloat64s(p.cum, x), len(p.prefixes)-1)]
}

// Sampled frames run from minimum-size to full-size, uniformly: equal
// frames would make every prefix's demand a multiple of one quantum, and
// the exact ties between interface loads that follow are broken by
// floating-point summation order, not by the seed.
const minFrame, maxFrame, meanFrame = 64, 1500, (64 + 1500) / 2

// datagrams marshals n sFlow datagrams of 16 records each, destinations
// drawn by pick.
func datagrams(n int, rng *rand.Rand, samplingRate uint32, pick func() netip.Addr) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		recs := make([]sflow.FlowRecord, recordsPerDatagram)
		for j := range recs {
			frame := uint32(minFrame + rng.Intn(maxFrame-minFrame+1))
			recs[j] = sflow.FlowRecord{Dst: pick(), FrameLen: frame, EgressIF: uint32(j % 8)}
		}
		b, err := sflow.MarshalBytes(&sflow.Datagram{
			Agent: sflowAgents[i%len(sflowAgents)], Seq: uint32(i),
			Samples: []sflow.FlowSample{{
				Seq: uint32(i), SamplingRate: samplingRate,
				SamplePool: recordsPerDatagram * samplingRate, Records: recs,
			}},
		})
		if err != nil {
			panic(err) // generated input; cannot fail
		}
		out[i] = b
	}
	return out
}

// ingestRig pushes a pool of datagrams through a collector's wire-bytes
// entry point.
type ingestRig struct {
	col  *sflow.Collector
	pkts [][]byte
	next int
}

// newIngestRig builds a flood pool over the scenario's prefixes. The
// flood is sampled 1-in-1, so it loads the ingest path at full cost
// while adding next to nothing to demand.
func newIngestRig(col *sflow.Collector, sc *netsim.Scenario, seed int64, pool int) *ingestRig {
	rng := rand.New(rand.NewSource(seed ^ 0xf100d))
	pick := newWeightedPicker(sc.Prefixes)
	r := &ingestRig{col: col, pkts: datagrams(pool, rng, 1, func() netip.Addr { return pick.pick(rng).RepAddr })}
	r.warm()
	return r
}

// warm pushes the pool through once, so that timed blocks update window
// maps that already hold their keys.
func (r *ingestRig) warm() {
	for _, b := range r.pkts {
		_ = r.col.SendDatagram(b)
	}
}

// block pushes n datagrams and returns how long the collector took to
// absorb them; a rejected datagram is an error.
func (r *ingestRig) block(n int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := r.col.SendDatagram(r.pkts[r.next]); err != nil {
			return 0, err
		}
		if r.next++; r.next == len(r.pkts) {
			r.next = 0
		}
	}
	return time.Since(t0), nil
}

// lost reports datagrams the collector refused or records it could not
// map since the rig was built.
func (r *ingestRig) lost() uint64 {
	_, malformed, dropped := r.col.Stats()
	return malformed + dropped
}

// ---------------------------------------------------------------------
// ingest_flood: a sFlow-driven controller whose RIB and collector are
// written beside the cycle that reads them
// ---------------------------------------------------------------------

// lateMapper lets the collector exist before the route store it maps
// through.
type lateMapper struct {
	store atomic.Pointer[core.RouteStore]
}

func (l *lateMapper) MapPrefix(a netip.Addr) netip.Prefix {
	if s := l.store.Load(); s != nil {
		return s.LookupPrefix(a)
	}
	return netip.Prefix{}
}

// newIngestSystem builds an n-prefix controller fed the way production
// is: routes over a BMP stream, demand from a sFlow collector that maps
// destinations through the controller's own RIB. step advances the
// virtual clock one cycle interval and pushes that interval's samples: a
// weight-proportional base load at 85 % of peak plus a hot spot on one
// heavy AS that moves every 5 cycles, so overloads come and go: the two
// cycles after a move (the collector's window is two buckets) re-decide
// about 2000 prefixes each, the other three about 200.
func newIngestSystem(seed int64, n int) (*system, error) {
	s := newSystem()
	t0 := time.Now()
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: topoSeed, Prefixes: n})
	if err != nil {
		return nil, err
	}
	s.setupParts["synth"] = time.Since(t0).Seconds()

	clock := netsim.NewClock(time.Date(2017, 3, 1, 19, 0, 0, 0, time.UTC))
	mapper := &lateMapper{}
	col := sflow.NewCollector(sflow.CollectorConfig{Mapper: mapper, Window: time.Minute, Buckets: 2, Now: clock.Now})
	if err := s.bareController(sc, col, clock.Now, nil); err != nil {
		return nil, err
	}
	mapper.store.Store(s.ctrl.Store())
	s.col = col

	t0 = time.Now()
	if s.feed, err = newRouteFeed(s.ctrl, sc, math.MaxInt); err != nil {
		s.close()
		return nil, err
	}
	s.setupParts["marshal"] = time.Since(t0).Seconds()
	d, err := s.feed.replay()
	if err != nil {
		s.close()
		return nil, err
	}
	s.setupParts["load"] = d.Seconds()

	// Per-interval samples: base datagrams carry the PoP's demand, hot
	// datagrams a 25 % surcharge aimed at one heavy AS at a time.
	const basePerTick, hotPerTick, pool = 4000, 1000, 16000
	rng := rand.New(rand.NewSource(seed))
	pick := newWeightedPicker(sc.Prefixes)
	rate := uint32(0.85 * sc.Config.PeakBps * tickLen.Seconds() / (basePerTick * recordsPerDatagram * meanFrame * 8))
	basePool := datagrams(pool, rng, rate, func() netip.Addr { return pick.pick(rng).RepAddr })

	var heavyAS []*netsim.EdgeAS
	for _, as := range sc.ASes {
		if as.Class == rib.ClassPrivate {
			heavyAS = append(heavyAS, as)
		}
	}
	sort.Slice(heavyAS, func(a, b int) bool { return heavyAS[a].AS < heavyAS[b].AS })
	byPrefix := make(map[netip.Prefix]*netsim.PrefixInfo, len(sc.Prefixes))
	for _, pi := range sc.Prefixes {
		byPrefix[pi.Prefix] = pi
	}
	hotPools := make([][][]byte, min(4, len(heavyAS)))
	for i := range hotPools {
		var own []*netsim.PrefixInfo
		for _, p := range heavyAS[i].Prefixes {
			own = append(own, byPrefix[p])
		}
		hp := newWeightedPicker(own)
		hotPools[i] = datagrams(hotPerTick, rng, rate, func() netip.Addr { return hp.pick(rng).RepAddr })
	}

	cursor, tick := rng.Intn(pool), 0
	s.step = func() {
		clock.Advance(tickLen)
		for k := 0; k < basePerTick; k++ {
			_ = col.SendDatagram(basePool[(cursor+k)%pool])
		}
		cursor = (cursor + basePerTick) % pool
		if len(hotPools) > 0 {
			for _, b := range hotPools[(tick/5)%len(hotPools)] {
				_ = col.SendDatagram(b)
			}
		}
		tick++
	}
	s.flood = newIngestRig(col, sc, seed, 8192)
	return s, nil
}

// ---------------------------------------------------------------------
// The throughput legs a workload runs on its own table
// ---------------------------------------------------------------------

// legRoutes caps the routes a route-apply leg replays per dump.
const legRoutes = 100_000

// newRouteLeg builds a fresh controller over the workload's scenario
// with a BMP feed of its table, for timing dump absorption without
// disturbing the controller the cycles run on.
func (s *system) newRouteLeg() (*routeFeed, func(), error) {
	leg := newSystem()
	if err := leg.bareController(s.sc, &staticTraffic{m: map[netip.Prefix]float64{}}, nil, nil); err != nil {
		return nil, nil, err
	}
	feed, err := newRouteFeed(leg.ctrl, s.sc, legRoutes)
	if err != nil {
		leg.close()
		return nil, nil, err
	}
	return feed, leg.close, nil
}

// newIngestLeg builds a flood rig on a collector of its own that maps
// destinations through this system's RIB.
func (s *system) newIngestLeg(seed int64) *ingestRig {
	col := sflow.NewCollector(sflow.CollectorConfig{Mapper: s.ctrl.Store(), Window: time.Minute, Buckets: 2})
	return newIngestRig(col, s.sc, seed, 8192)
}

// ---------------------------------------------------------------------
// Layer probes: fixed-work loops over the workload's own inputs
// ---------------------------------------------------------------------

// probeLoop runs fn over n items five times and returns the median
// nanoseconds per item.
func probeLoop(n int, fn func(i int)) float64 {
	per := make([]float64, 5)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// layerProbes times the codecs, the route store, the RIB and the
// collector on their own, over inputs drawn from this workload's table:
// n datagrams (and 2n point reads) per pass, n routes per apply.
func (s *system) layerProbes(seed int64, n int) (map[string]float64, error) {
	out := make(map[string]float64)
	rig := s.newIngestLeg(seed)
	var sink uint64

	out["sflow.decode_ns_per_dgram"] = probeLoop(n, func(i int) {
		_, _ = sflow.DecodeStream(rig.pkts[i%len(rig.pkts)], nil, func(r sflow.FlowRecord, _ uint32) { sink += uint64(r.FrameLen) })
	})
	a0 := heapObjects()
	out["sflow.ingest_ns_per_dgram"] = probeLoop(n, func(i int) { _ = rig.col.SendDatagram(rig.pkts[i%len(rig.pkts)]) })
	out["sflow.ingest_allocs_per_dgram"] = float64(heapObjects()-a0) / float64(5*n)
	if rig.lost() > 0 {
		return nil, fmt.Errorf("ingest probe lost %d datagrams/records", rig.lost())
	}
	prefixes := s.sc.Prefixes
	var fsink float64
	out["sflow.rate_point_ns"] = probeLoop(2*n, func(i int) { fsink += rig.col.Rate(prefixes[i%len(prefixes)].Prefix) })
	tab := s.ctrl.Store().Table()
	var psink int
	out["rib.lookup_ns"] = probeLoop(2*n, func(i int) { psink += tab.LookupPrefix(prefixes[i%len(prefixes)].RepAddr).Bits() })

	// Codec and apply probes share one route sample.
	var routes []*rib.Route
	var bmpWire, bgpWire [][]byte
	var decoded []*bmp.RouteMonitoring
	for i := range s.sc.Topo.Peers {
		p := &s.sc.Topo.Peers[i]
		if len(routes) >= n {
			break
		}
		routesOf(p, func(r *rib.Route) { routes = append(routes, r) })
		hdr := bmp.PeerHeader{PeerAddr: p.Addr, PeerAS: p.AS}
		for _, u := range netsim.BuildAnnouncements(p) {
			m := &bmp.RouteMonitoring{Peer: hdr, Update: u}
			b, err := bmp.MarshalBytes(m)
			if err != nil {
				return nil, err
			}
			bmpWire = append(bmpWire, b)
			decoded = append(decoded, m)
			if len(bgpWire) < 4096 {
				ub, err := bgp.MarshalBytes(u, nil)
				if err != nil {
					return nil, err
				}
				bgpWire = append(bgpWire, ub)
			}
		}
	}
	out["bmp.decode_ns_per_msg"] = probeLoop(len(bmpWire), func(i int) { _, _ = bmp.Decode(bmpWire[i]) })
	out["bgp.decode_ns_per_update"] = probeLoop(len(bgpWire), func(i int) { _, _ = bgp.Decode(bgpWire[i], nil) })

	// Encode what the injector sends: one prefix per UPDATE (multipath
	// members never share one), LOCAL_PREF and four communities.
	inject := make([]*bgp.Update, min(4096, len(routes)))
	for i := range inject {
		r := routes[i]
		u := &bgp.Update{Attrs: bgp.PathAttrs{
			HasOrigin: true, ASPath: bgp.Sequence(r.ASPath...), LocalPref: rib.PrefController, HasLocalPref: true,
			Communities: []uint32{rib.Community(64999, 1), rib.Community(64999, 4),
				rib.MultipathSlotCommunity(i % 3), rib.MultipathWeightCommunity(34)},
		}}
		if r.Prefix.Addr().Is4() {
			u.Attrs.NextHop, u.NLRI = r.NextHop, []netip.Prefix{r.Prefix}
		} else {
			u.Attrs.MPReach = &bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				NextHop: r.NextHop, NLRI: []netip.Prefix{r.Prefix}}
		}
		inject[i] = u
	}
	w := wire.NewWriter(4096)
	out["bgp.encode_ns_per_update"] = probeLoop(len(inject), func(i int) {
		w.Reset()
		_ = bgp.Marshal(w, inject[i], nil)
	})

	// Route store and RIB apply, each into a fresh table, per route.
	per := make([]float64, 3)
	for r := range per {
		store := core.NewRouteStore(s.inv)
		t0 := time.Now()
		for _, m := range decoded {
			store.OnRoute("probe", m)
		}
		store.FlushRoutes()
		per[r] = float64(time.Since(t0)) / float64(max(1, store.Table().RouteCount()))
	}
	out["core.routestore_ns_per_route"] = median(per)

	heap0 := heapLiveMB()
	var fresh *rib.Table
	for r := range per {
		fresh = rib.NewTable(rib.DefaultPolicy())
		ops := make([]rib.BatchOp, len(routes))
		for i, rt := range routes {
			ops[i] = rib.BatchOp{Route: rt.Clone()}
		}
		t0 := time.Now()
		for i := 0; i < len(ops); i += 256 {
			fresh.ApplyBatch(ops[i:min(i+256, len(ops))])
		}
		per[r] = float64(time.Since(t0)) / float64(len(ops))
	}
	out["rib.apply_ns_per_route"] = median(per)
	out["rib.heap_mb_per_mroute"] = (heapLiveMB() - heap0) / (float64(fresh.RouteCount()) / 1e6)
	runtime.KeepAlive(fresh)
	_, _, _ = sink, fsink, psink
	return out, nil
}

// udpProbe offers rate datagrams per second for dur over one loopback
// UDP socket into a collector that maps through this system's RIB (open
// loop: each burst is timed from when it was due), and reports the share
// lost and how late the generator ran. With serve false nothing reads the
// socket, so every datagram is lost: the smoke test's check that loss is
// seen.
func (s *system) udpProbe(seed int64, rate int, dur time.Duration, serve bool) (lossFrac, lateP95MS float64, err error) {
	col := sflow.NewCollector(sflow.CollectorConfig{Mapper: s.ctrl.Store(), Window: time.Minute, Buckets: 2, Readers: 1})
	rig := newIngestRig(col, s.sc, seed, 4096)
	conns, err := sflow.ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		return 0, 0, err
	}
	if serve {
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- col.ServeUDPConns(ctx, conns) }()
		defer func() {
			cancel() // closes conns
			<-served
		}()
	} else {
		defer conns[0].Close()
	}
	c, err := net.Dial("udp", conns[0].LocalAddr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	uc, ok := c.(*net.UDPConn)
	if !ok {
		return 0, 0, errors.New("udp probe: not a UDP conn")
	}
	// Warming the rig went through the same counters: loss is taken from
	// what they gain from here on.
	got0, malformed0, _ := col.Stats()

	burst := max(1, rate/500) // a burst every ~2 ms
	interval := time.Duration(float64(burst) / float64(rate) * float64(time.Second))
	batch := make([][]byte, burst)
	var late []float64
	sent, i := 0, 0
	start := time.Now()
	for due := start; due.Sub(start) < dur; due = due.Add(interval) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for b := range batch {
			batch[b] = rig.pkts[i%len(rig.pkts)]
			i++
		}
		n, werr := sflow.WriteBatch(uc, batch)
		sent += n
		if werr != nil {
			return 0, 0, werr
		}
		late = append(late, ms(time.Since(due)))
	}
	// Drain: wait until the decoded count stops moving.
	var last uint64
	for k := 0; k < 100; k++ {
		time.Sleep(10 * time.Millisecond)
		d, _, _ := col.Stats()
		if d == last && k > 2 {
			break
		}
		last = d
	}
	got, malformed, _ := col.Stats()
	lost := sent - int(got-got0+malformed-malformed0)
	return float64(max(0, lost)) / float64(max(1, sent)), percentile(late, 0.95), nil
}
