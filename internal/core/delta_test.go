package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgefabric/internal/altpath"
	"edgefabric/internal/rib"
)

// churn applies one round of deterministic route + demand churn to a
// scenario: demand jitter on a slice of prefixes, a few demand
// appearances and disappearances, route adds and removes, and the
// occasional whole-peer flush — the update mix a live PoP sees.
func churn(t *testing.T, tab *rib.Table, demand map[netip.Prefix]float64, rng *rand.Rand, nPrefixes, round int) {
	t.Helper()
	pfx := func(i int) netip.Prefix {
		return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
	}
	peers := []struct {
		addr  string
		class rib.PeerClass
		ifID  int
		as    uint32
	}{
		{"172.20.0.1", rib.ClassPrivate, 0, 65010},
		{"172.20.0.2", rib.ClassPrivate, 1, 65011},
		{"172.20.0.3", rib.ClassPublic, 2, 65012},
		{"172.20.0.9", rib.ClassTransit, 3, 64601},
	}

	// Demand jitter on ~2% of prefixes.
	for i := 0; i < nPrefixes/50+1; i++ {
		demand[pfx(rng.Intn(nPrefixes))] = float64(rng.Intn(900)+100) * 1e6
	}
	// A few prefixes lose all demand; a few gain it back (or appear for
	// the first time, possibly with no routes at all → unrouted).
	for i := 0; i < 3; i++ {
		delete(demand, pfx(rng.Intn(nPrefixes)))
	}
	for i := 0; i < 3; i++ {
		demand[pfx(rng.Intn(nPrefixes))] = float64(rng.Intn(900)+100) * 1e6
	}
	demand[netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", rng.Intn(8)))] = 50e6

	// Route churn: adds (including controller injections the projection
	// must ignore) and removes.
	for i := 0; i < 4; i++ {
		p := peers[rng.Intn(len(peers))]
		tab.Add(route(pfx(rng.Intn(nPrefixes)).String(), p.addr, p.class, p.ifID, p.as))
	}
	if rng.Intn(2) == 0 {
		tab.Add(route(pfx(rng.Intn(nPrefixes)).String(), "172.20.0.250", rib.ClassController, 3, 64601))
	}
	for i := 0; i < 2; i++ {
		target := pfx(rng.Intn(nPrefixes))
		if routes := tab.Routes(target); len(routes) > 0 {
			tab.Remove(target, routes[rng.Intn(len(routes))].PeerAddr)
		}
	}
	// Every few rounds, flush a whole peer (session loss) and bring a
	// couple of its routes back.
	if round%4 == 3 {
		p := peers[rng.Intn(len(peers))]
		tab.RemovePeer(netip.MustParseAddr(p.addr))
		for i := 0; i < 2; i++ {
			tab.Add(route(pfx(rng.Intn(nPrefixes)).String(), p.addr, p.class, p.ifID, p.as))
		}
	}
}

// samePlanIndex asserts PrefixesOnInterface agrees between two
// projections for every interface either knows about.
func samePlanIndex(t *testing.T, label string, a, b *Projection) {
	t.Helper()
	ifs := map[int]bool{}
	for id := range a.IfLoadBps {
		ifs[id] = true
	}
	for id := range b.IfLoadBps {
		ifs[id] = true
	}
	for id := range ifs {
		pa, pb := a.PrefixesOnInterface(id), b.PrefixesOnInterface(id)
		if len(pa) != len(pb) {
			t.Fatalf("%s: if%d plan count %d != %d", label, id, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Prefix != pb[i].Prefix {
				t.Fatalf("%s: if%d slot %d: %v != %v", label, id, i, pa[i].Prefix, pb[i].Prefix)
			}
		}
	}
}

// TestProjectDeltaEquivalence drives the delta projector through a long
// churn sequence with the periodic sweep disabled and asserts, each
// cycle, that the incrementally-maintained projection is semantically
// identical to a from-scratch projection of the same table + demand.
func TestProjectDeltaEquivalence(t *testing.T) {
	const nPrefixes = 400
	tab, demand := equivScenario(nPrefixes, 21)
	rng := rand.New(rand.NewSource(99))
	pj := &Projector{Workers: 1, FullSweepEvery: -1}

	for round := 0; round < 40; round++ {
		if round > 0 {
			churn(t, tab, demand, rng, nPrefixes, round)
		}
		got, st := pj.ProjectDelta(tab, demand)
		want := Project(tab, demand)
		label := fmt.Sprintf("round %d (full=%v %s)", round, st.Full, st.FullReason)
		sameProjection(t, label, got, want)
		samePlanIndex(t, label, got, want)
		if round == 0 && !st.Full {
			t.Fatal("first delta cycle must be a full build")
		}
		if round > 0 && st.Full {
			t.Fatalf("round %d: unexpected full rebuild (%s)", round, st.FullReason)
		}
	}
}

// TestProjectDeltaFullSweep: the periodic safety pass fires on cadence
// and lands on the same projection.
func TestProjectDeltaFullSweep(t *testing.T) {
	const nPrefixes = 200
	tab, demand := equivScenario(nPrefixes, 5)
	rng := rand.New(rand.NewSource(7))
	pj := &Projector{Workers: 1, FullSweepEvery: 3}

	fulls := 0
	for round := 0; round < 10; round++ {
		if round > 0 {
			churn(t, tab, demand, rng, nPrefixes, round)
		}
		got, st := pj.ProjectDelta(tab, demand)
		if st.Full {
			fulls++
		}
		sameProjection(t, fmt.Sprintf("round %d", round), got, Project(tab, demand))
	}
	// Round 0 is always full; then every 3rd delta cycle.
	if fulls < 3 {
		t.Errorf("full sweeps = %d, want at least 3 in 10 rounds at cadence 3", fulls)
	}
}

// TestProjectDeltaJournalOverflow: a reader that outran the table's
// mutation journal falls back to a full rebuild — and is still
// equivalent.
func TestProjectDeltaJournalOverflow(t *testing.T) {
	const nPrefixes = 100
	tab, demand := equivScenario(nPrefixes, 11)
	pj := &Projector{Workers: 1, FullSweepEvery: -1}
	pj.ProjectDelta(tab, demand)

	// Blow straight past the journal window (rib journalCap = 64k).
	for i := 0; i < 70_000; i++ {
		tab.Add(route("10.0.1.0/24", "172.20.0.1", rib.ClassPrivate, 0, 65010, uint32(i%1000)))
	}
	got, st := pj.ProjectDelta(tab, demand)
	if !st.Full || st.FullReason != "route journal overflow" {
		t.Fatalf("stats = %+v, want full rebuild on journal overflow", st)
	}
	sameProjection(t, "post-overflow", got, Project(tab, demand))

	// And the cursor is re-anchored: the next cycle is a delta again.
	tab.Add(route("10.0.2.0/24", "172.20.0.2", rib.ClassPrivate, 1, 65011))
	got, st = pj.ProjectDelta(tab, demand)
	if st.Full {
		t.Fatalf("stats = %+v, want delta cycle after re-anchor", st)
	}
	sameProjection(t, "post-recover", got, Project(tab, demand))
}

// TestProjectDeltaStats: the cycle accounting distinguishes rate-only
// refreshes, snapshot recomputes, and removals, and flags untouched
// cycles as Unchanged.
func TestProjectDeltaStats(t *testing.T) {
	tab, demand := equivScenario(100, 3)
	pj := &Projector{Workers: 1, FullSweepEvery: -1}
	pj.ProjectDelta(tab, demand)

	// Idle cycle: nothing changed.
	_, st := pj.ProjectDelta(tab, demand)
	if !st.Unchanged || st.Recomputed != 0 || st.RateOnly != 0 || st.Removed != 0 {
		t.Fatalf("idle stats = %+v, want unchanged", st)
	}

	// Pure demand move on a routed prefix: in-place, no snapshot.
	var target netip.Prefix
	for p := range pj.cur.Plans {
		target = p
		break
	}
	demand[target] *= 3
	_, st = pj.ProjectDelta(tab, demand)
	if st.RateOnly != 1 || st.Recomputed != 0 || st.Unchanged {
		t.Fatalf("rate-move stats = %+v, want 1 rate-only", st)
	}
	if pj.cur.Plans[target].RateBps != demand[target] {
		t.Fatalf("rate not refreshed in place")
	}

	// Route change: snapshot-driven recompute. The MED makes it a change
	// whether or not the target already had this transit route — an
	// identical re-announcement is suppressed by the table.
	changed := route(target.String(), "172.20.0.9", rib.ClassTransit, 3, 64601)
	changed.MED, changed.HasMED = 7, true
	tab.Add(changed)
	_, st = pj.ProjectDelta(tab, demand)
	if st.Recomputed != 1 || st.Unchanged {
		t.Fatalf("route-change stats = %+v, want 1 recompute", st)
	}

	// Demand disappearance: removal.
	delete(demand, target)
	proj, st := pj.ProjectDelta(tab, demand)
	if st.Removed != 1 || st.Unchanged {
		t.Fatalf("removal stats = %+v, want 1 removed", st)
	}
	if _, ok := proj.Plans[target]; ok {
		t.Fatalf("%v still projected after demand vanished", target)
	}
	sameProjection(t, "after removal", proj, Project(tab, demand))
}

// TestProjectDeltaHeavyHitters: with HeavyK + TailEpsilon set, heavy
// prefixes track demand exactly while tail prefixes may coast within
// TailEpsilon — and the divergence is bounded by exactly that.
func TestProjectDeltaHeavyHitters(t *testing.T) {
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64)
	const n = 100
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		// Rates 1..100 Mbps: distinct, so the top-K set is unambiguous.
		demand[netip.MustParsePrefix(prefix)] = float64(i+1) * 1e6
	}
	pj := &Projector{Workers: 1, FullSweepEvery: -1, HeavyK: 10, TailEpsilon: 0.5}
	// The first (full) cycle computes the threshold, which applies from
	// the second cycle on (one-cycle lag). 10th largest of 1..100 Mbps
	// is 91 Mbps.
	if _, st := pj.ProjectDelta(tab, demand); st.HeavyThr != 0 {
		t.Fatalf("threshold %v applied on the very first cycle", st.HeavyThr)
	}
	if _, st := pj.ProjectDelta(tab, demand); st.HeavyThr != 91e6 {
		t.Fatalf("heavy threshold = %v, want 91e6", st.HeavyThr)
	}

	// Jitter everything by +20% (within TailEpsilon, beyond Epsilon=0):
	// tail plans coast on stale rates, heavy plans refresh exactly.
	for p := range demand {
		demand[p] *= 1.2
	}
	proj, st := pj.ProjectDelta(tab, demand)
	heavyRefreshed, tailCoasted := 0, 0
	for p, plan := range proj.Plans {
		want := demand[p]
		if want/1.2 >= 91e6 || want >= 91e6 {
			if plan.RateBps != want {
				t.Fatalf("heavy hitter %v rate %v, want exact %v", p, plan.RateBps, want)
			}
			heavyRefreshed++
		} else if plan.RateBps != want {
			// Coasting is allowed only within TailEpsilon.
			if d := want - plan.RateBps; d < 0 || d > 0.5*want {
				t.Fatalf("tail %v rate %v diverged beyond TailEpsilon from %v", p, plan.RateBps, want)
			}
			tailCoasted++
		}
	}
	if heavyRefreshed < 10 {
		t.Errorf("heavy refreshed = %d, want >= 10", heavyRefreshed)
	}
	if tailCoasted == 0 {
		t.Error("no tail prefix coasted despite TailEpsilon")
	}
	if st.RateOnly < heavyRefreshed {
		t.Errorf("stats RateOnly = %d < heavy refreshes %d", st.RateOnly, heavyRefreshed)
	}
}

// TestProjectDeltaHeavyThrBandCollapse: the periodic threshold refresh
// samples only rates within 2x of the standing threshold; when the
// K-th largest rate falls below that band between refreshes, the
// refresh must detect the collapse (fewer than K in-band samples),
// zero the threshold, and re-collect unbanded on the next cycle.
func TestProjectDeltaHeavyThrBandCollapse(t *testing.T) {
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64)
	const n = 100
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		demand[netip.MustParsePrefix(prefix)] = float64(i+1) * 1e6
	}
	pj := &Projector{Workers: 1, FullSweepEvery: -1, HeavyK: 10}
	pj.ProjectDelta(tab, demand) // full build; threshold applies next cycle
	if _, st := pj.ProjectDelta(tab, demand); st.HeavyThr != 91e6 {
		t.Fatalf("heavy threshold = %v, want 91e6", st.HeavyThr)
	}
	// Demand collapses 10x: the new 10th largest (9.1 Mbps) sits far
	// below half the standing 91 Mbps threshold, invisible to a banded
	// sample.
	for p := range demand {
		demand[p] /= 10
	}
	for cyc := 0; cyc < hhRefreshEvery+2; cyc++ {
		_, st := pj.ProjectDelta(tab, demand)
		switch st.HeavyThr {
		case 9.1e6:
			return // collapse detected and threshold re-derived exactly
		case 91e6, 0: // stale until the refresh, zero right after it
		default:
			t.Fatalf("cycle %d: threshold %v, want 91e6, 0, or 9.1e6", cyc, st.HeavyThr)
		}
	}
	t.Fatalf("threshold never recovered to 9.1e6 within %d cycles of the collapse", hhRefreshEvery+2)
}

// TestAllocateDeltaReuse: on a proven-unchanged cycle with the same
// prior set, AllocateDelta returns the previous result without a scan;
// any change falls through to the real allocator and matches
// AllocateSticky exactly.
func TestAllocateDeltaReuse(t *testing.T) {
	inv := testInventory(t)
	tab, demand := equivScenario(300, 17)
	pj := &Projector{Workers: 1, FullSweepEvery: -1}
	cfg := AllocatorConfig{Threshold: 0.95}
	var st AllocState

	proj, ds := pj.ProjectDelta(tab, demand)
	var prior OverrideSet
	r1 := AllocateDelta(proj, inv, cfg, prior, nil, &ds, &st)
	want1 := AllocateStickyTraced(proj, inv, cfg, prior, nil)
	if len(r1.Overrides) != len(want1.Overrides) {
		t.Fatalf("delta alloc %d overrides, sticky %d", len(r1.Overrides), len(want1.Overrides))
	}

	// Unchanged cycle: same pointer back.
	proj, ds = pj.ProjectDelta(tab, demand)
	if !ds.Unchanged {
		t.Fatalf("stats = %+v, want unchanged", ds)
	}
	if r2 := AllocateDelta(proj, inv, cfg, prior, nil, &ds, &st); r2 != r1 {
		t.Fatal("unchanged cycle did not reuse the previous allocation")
	}

	// With tracing on, the fast path must not swallow the trace.
	tr := NewCycleTrace(64)
	if r3 := AllocateDelta(proj, inv, cfg, prior, tr, &ds, &st); r3 == r1 {
		t.Fatal("traced cycle reused a result, leaving no fresh trace")
	}

	// A demand change invalidates reuse.
	var target netip.Prefix
	for p := range proj.Plans {
		target = p
		break
	}
	demand[target] *= 2
	proj, ds = pj.ProjectDelta(tab, demand)
	if ds.Unchanged {
		t.Fatalf("stats = %+v, want changed after demand move", ds)
	}
	r4 := AllocateDelta(proj, inv, cfg, prior, nil, &ds, &st)
	want4 := AllocateStickyTraced(proj, inv, cfg, prior, nil)
	if len(r4.Overrides) != len(want4.Overrides) || r4.DetouredBps != want4.DetouredBps {
		t.Fatalf("post-change delta alloc diverged: %d/%v vs %d/%v",
			len(r4.Overrides), r4.DetouredBps, len(want4.Overrides), want4.DetouredBps)
	}

	// A different prior set also invalidates reuse.
	proj, ds = pj.ProjectDelta(tab, demand)
	if !ds.Unchanged {
		t.Fatalf("stats = %+v, want unchanged on idle cycle", ds)
	}
	prior2 := NewOverrideSet(r4.Overrides)
	if len(prior2) > 0 {
		r5 := AllocateDelta(proj, inv, cfg, prior2, nil, &ds, &st)
		if r5 == r4 {
			t.Fatal("changed prior set reused a stale allocation")
		}
	}
}

// TestAllocateDeltaTracedKeepsNoState: a traced call keeps no reuse
// state and empties what an untraced call left, so the next untraced
// call on an unchanged projection allocates afresh instead of returning
// the result from before the traced call.
func TestAllocateDeltaTracedKeepsNoState(t *testing.T) {
	inv := testInventory(t)
	tab, demand := equivScenario(300, 17)
	pj := &Projector{Workers: 1, FullSweepEvery: -1}
	cfg := AllocatorConfig{Threshold: 0.95}
	var prior OverrideSet
	var st AllocState

	proj, ds := pj.ProjectDelta(tab, demand)
	before := AllocateDelta(proj, inv, cfg, prior, nil, &ds, &st)
	if st.last == nil {
		t.Fatal("untraced call kept no reuse state")
	}

	for p := range demand {
		demand[p] *= 1.5
	}
	proj, ds = pj.ProjectDelta(tab, demand)
	AllocateDelta(proj, inv, cfg, prior, NewCycleTrace(64), &ds, &st)
	if st.last != nil || st.lastPrior != nil || st.lastThr != 0 {
		t.Fatalf("traced call left reuse state: %d prior overrides, threshold %v", len(st.lastPrior), st.lastThr)
	}

	proj, ds = pj.ProjectDelta(tab, demand)
	if !ds.Unchanged {
		t.Fatalf("stats = %+v, want unchanged", ds)
	}
	got := AllocateDelta(proj, inv, cfg, prior, nil, &ds, &st)
	want := AllocateStickyTraced(proj, inv, cfg, prior, nil)
	if reflect.DeepEqual(before, want) {
		t.Fatal("demand change moved no decision; the check is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("untraced call after a traced one: %d overrides, %v detoured; want %d, %v",
			len(got.Overrides), got.DetouredBps, len(want.Overrides), want.DetouredBps)
	}
}

// scriptedTraffic is a static demand source whose clock and last-ingest
// time the test scripts, so a stale-traffic fail-back can be staged.
type scriptedTraffic struct {
	staticTraffic
	now, last atomic.Int64 // unix nanoseconds
}

func (s *scriptedTraffic) LastIngest() time.Time { return time.Unix(0, s.last.Load()) }
func (s *scriptedTraffic) clock() time.Time      { return time.Unix(0, s.now.Load()) }

// pathModel is a fixed per-path RTT/loss source: RTT by peer, plus a
// per-prefix slope on some peers so gaps differ across prefixes.
type pathModel map[netip.Addr]struct{ rtt, slope, loss float64 }

func (m pathModel) RTTForRoute(p netip.Prefix, r *rib.Route) float64 {
	e := m[r.PeerAddr]
	return e.rtt + e.slope*float64(p.Addr().As4()[2])
}

func (m pathModel) LossForRoute(_ netip.Prefix, r *rib.Route) float64 { return m[r.PeerAddr].loss }

// TestControllerDeltaEquivalence runs the decision oracle with the
// optimise stage off: the delta projector and AllocateDelta's reuse path
// against Decide from scratch.
func TestControllerDeltaEquivalence(t *testing.T) {
	checkDecideEquivalence(t, 0)
}

// TestControllerOptimiseEquivalence runs the decision oracle at k = 1
// and k = 3; across both runs the optimise stage must place weighted
// sets and whole-prefix moves.
func TestControllerOptimiseEquivalence(t *testing.T) {
	sets, moves := checkDecideEquivalence(t, 1, 3)
	if sets == 0 || moves == 0 {
		t.Fatalf("%d weighted sets and %d whole-prefix moves over the runs; the comparison is vacuous", sets, moves)
	}
}

// checkDecideEquivalence is the per-cycle differential check of
// RunCycle at each k in ks (0: no optimise stage): every healthy
// cycle's decision must equal Decide from scratch (a zero DecideState
// and a twin Measurer, same source and seed, fed the same rounds) over
// the same table, demand and pre-cycle installed set. The script runs
// measurement warm-up, jitter, overload onset, sticky retention, an
// unchanged cycle under a non-empty installed set (AllocateDelta's
// reuse path; tracing is off so it runs), route churn, a recovered
// cycle panic and its fail-static hold, a stale-traffic fail-back,
// recovery and decay. Exactly the first cycle and the first after the
// panic hold run a full sweep. It returns the weighted sets and
// whole-prefix moves the from-scratch decisions held.
func checkDecideEquivalence(t *testing.T, ks ...int) (sets, moves int) {
	t.Helper()
	inv := testInventory(t)
	acfg := AllocatorConfig{Threshold: 0.95}
	src := pathModel{
		netip.MustParseAddr("172.20.0.1"): {rtt: 70, loss: 0.01},
		netip.MustParseAddr("172.20.0.2"): {rtt: 62},
		netip.MustParseAddr("172.20.0.3"): {rtt: 40, slope: 3},
		netip.MustParseAddr("172.20.0.9"): {rtt: 55, loss: 0.02},
	}
	for _, maxPaths := range ks {
		mcfg := MultipathConfig{MaxPaths: maxPaths, MaxMoves: 3}
		demand := &scriptedTraffic{staticTraffic: staticTraffic{}}
		demand.now.Store(time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC).UnixNano())
		cfg := Config{
			Inventory:      inv,
			Traffic:        demand,
			LocalAS:        64500,
			Allocator:      acfg,
			Now:            demand.clock,
			Trace:          TraceConfig{Disable: true},
			FullSweepEvery: -1, // pure delta: no safety-sweep crutch
		}
		var twin *altpath.Measurer
		if maxPaths > 0 {
			cfg.Optimizer = OptimizerConfig{Source: src, Seed: 5, Multipath: mcfg}
		}
		ctrl, _ := readyController(t, cfg)
		tab := ctrl.Store().Table()
		if maxPaths > 0 {
			var err error
			if twin, err = altpath.NewMeasurer(altpath.Config{Routes: tab, Source: src, Seed: 5}); err != nil {
				t.Fatal(err)
			}
		}

		// 10 prefixes preferring the 10G PNI, with IXP and transit
		// alternates; whole-megabit demand keeps every load sum exact.
		for i := 0; i < 10; i++ {
			prefix := fmt.Sprintf("10.0.%d.0/24", i)
			tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
			tab.Add(route(prefix, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
			tab.Add(route(prefix, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
			demand.staticTraffic[netip.MustParsePrefix(prefix)] = 500e6
		}
		setAll := func(bps float64) func() {
			return func() {
				for p := range demand.staticTraffic {
					demand.staticTraffic[p] = bps
				}
			}
		}
		idle := func() {}
		want, panicked, sweepDue := HealthHealthy, false, true
		hold := func() { want = HealthFailStatic }
		steps := []func(){
			idle, idle, idle, // measurement warm-up (multipathMinSamples)
			idle, idle, // first sets, then hysteresis
			func() { // jitter
				for i := 0; i < 10; i += 3 {
					demand.staticTraffic[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = 600e6
				}
			},
			setAll(1200e6), // overload onset: the PNI is past target and congested
			idle,           // sticky retention
			idle,           // unchanged inputs and installed set: the reuse path
			func() { // route churn under overload
				tab.Add(route("10.0.3.0/24", "172.20.0.2", rib.ClassPrivate, 1, 65011))
				tab.Remove(netip.MustParsePrefix("10.0.5.0/24"), netip.MustParseAddr("172.20.0.1"))
			},
			func() { ctrl.PanicNextCycle(); panicked, sweepDue = true, true; hold() },
			hold, hold, // the rest of the panicHoldCycles hold
			idle,                             // a full sweep, from scratch
			func() { want = HealthFailBack }, // sFlow silent past the fail-back threshold
			idle, idle, idle,                 // recovery under the move budget
			setAll(200e6), // decay
			idle,
		}
		sweeps := ctrl.Metrics().Counter("edgefabric_delta_full_sweeps_total")
		detours := 0
		for i, step := range steps {
			demand.now.Add(int64(30 * time.Second))
			want, panicked = HealthHealthy, false
			step()
			if want == HealthFailBack {
				demand.last.Store(demand.now.Load() - int64(time.Hour))
			} else {
				demand.last.Store(demand.now.Load())
			}
			prior, swept := ctrl.Installed(), sweeps.Value()
			rep, err := ctrl.RunCycle()
			if (err != nil) != panicked || rep.Health != want {
				t.Fatalf("k=%d step %d: %s %v (err %v), want %s", maxPaths, i, rep.Health, rep.HealthReasons, err, want)
			}
			if want == HealthFailBack && len(ctrl.Installed()) != 0 {
				t.Fatalf("k=%d step %d: fail-back left %d installed", maxPaths, i, len(ctrl.Installed()))
			}
			if want == HealthFailStatic && !reflect.DeepEqual(ctrl.Installed(), prior) {
				t.Fatalf("k=%d step %d: fail-static changed the installed set", maxPaths, i)
			}
			if want != HealthHealthy {
				continue
			}
			if full := sweeps.Value() != swept; full != sweepDue {
				t.Fatalf("k=%d step %d: full sweep %v, want %v", maxPaths, i, full, sweepDue)
			}
			sweepDue = false

			dec, _ := Decide(CycleInput{
				Routes: tab, Demand: demand.staticTraffic, Inventory: inv,
				Allocator: acfg, Multipath: mcfg, Installed: prior,
			}, &DecideState{Measurer: twin})
			if !reflect.DeepEqual(rep.Overrides, dec.Overrides) {
				t.Fatalf("k=%d step %d: controller decided\n%v\nfrom scratch\n%v", maxPaths, i, rep.Overrides, dec.Overrides)
			}
			if !floatClose(rep.DetouredBps, dec.DetouredBps) {
				t.Fatalf("k=%d step %d: detoured %v != %v", maxPaths, i, rep.DetouredBps, dec.DetouredBps)
			}
			for _, info := range inv.Interfaces() {
				if got, u := rep.IfUtil[info.ID], dec.IfUtil[info.ID]; !floatClose(got, u) {
					t.Fatalf("k=%d step %d: if%d util %v != %v", maxPaths, i, info.ID, got, u)
				}
			}
			for _, o := range dec.Overrides {
				switch {
				case len(o.Multipath) > 0:
					sets++
				case strings.HasPrefix(o.Reason, "alt path"):
					moves++
				default:
					detours++
				}
			}
		}
		if detours == 0 {
			t.Fatalf("k=%d: the overload pass moved nothing; the comparison is vacuous", maxPaths)
		}
	}
	return sets, moves
}

// TestKthLargest pins the quickselect helper.
func TestKthLargest(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		k    int
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{5, 1, 4, 2, 3}, 3, 3},
		{[]float64{5, 1, 4, 2, 3}, 5, 1},
		{[]float64{7, 7, 7}, 2, 7},
		{[]float64{2, 1}, 2, 1},
		{[]float64{9}, 1, 9},
	} {
		in := append([]float64(nil), tc.in...)
		if got := kthLargest(in, tc.k); got != tc.want {
			t.Errorf("kthLargest(%v, %d) = %v, want %v", tc.in, tc.k, got, tc.want)
		}
	}
	// Against sort on random input.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200) + 1
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(50))
		}
		k := rng.Intn(n) + 1
		b := append([]float64(nil), a...)
		// Selection by full sort (descending).
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				if b[j] > b[i] {
					b[i], b[j] = b[j], b[i]
				}
			}
		}
		if got := kthLargest(a, k); got != b[k-1] {
			t.Fatalf("trial %d: kthLargest(n=%d, k=%d) = %v, want %v", trial, n, k, got, b[k-1])
		}
	}
}

// deltaModel drives a Projector and a naive model of it side by side.
// The model is the set of prefixes the projector should hold a record
// for and the rate it last read for each (`seen`): every demanded prefix
// at its current rate when nothing strides, and under TailStride the
// same minus what the scan is documented to skip. After every cycle the
// live projection must equal a from-scratch Project of the table and
// `seen`, and the record structure must be sound.
type deltaModel struct {
	t      *testing.T
	tab    *rib.Table
	demand map[netip.Prefix]float64
	seen   map[netip.Prefix]float64
	pj     *Projector
	ver    uint64 // the model's own cursor into the route journal
	med    uint32 // bumped per announcement so none is a suppressed duplicate
	cycle  int
}

const modelPrefixes = 48

var modelPeers = []struct {
	addr  string
	class rib.PeerClass
	ifID  int
}{
	{"172.20.0.1", rib.ClassPrivate, 0},
	{"172.20.0.2", rib.ClassPrivate, 1},
	{"172.20.0.3", rib.ClassPublic, 2},
	{"172.20.0.9", rib.ClassTransit, 3},
}

const modelController = "172.20.0.250"

// Model operations; each takes a prefix ordinal and one argument byte.
const (
	opDemandSet  = iota // demand appears or moves
	opDemandGone        // entry deleted
	opDemandZero        // entry present at zero
	opRouteAdd
	opRouteDel
	opEgressMove   // a peer's route re-announced on another interface
	opInject       // controller route beside whatever is there
	opOnlyInjected // every organic route withdrawn, an injected one left
	opDupJournal   // the same prefix journaled several times in one cycle
	opForceSweep
	opStep
	modelOps
)

func newDeltaModel(t *testing.T, stride int) *deltaModel {
	m := &deltaModel{
		t:      t,
		tab:    rib.NewTable(rib.DefaultPolicy()),
		demand: make(map[netip.Prefix]float64),
		seen:   make(map[netip.Prefix]float64),
		pj:     &Projector{Workers: 1, FullSweepEvery: 23, TailStride: stride},
	}
	if stride > 1 {
		m.pj.HeavyK = 6
	}
	// Start from a populated PoP so the first cycles have something to
	// lose: most prefixes routed, a third demanded.
	for i := 0; i < modelPrefixes; i++ {
		m.apply(opRouteAdd, i, byte(i))
		if i%3 == 0 {
			m.apply(opRouteAdd, i, byte(i+1))
		}
		if i%3 != 1 {
			m.apply(opDemandSet, i, byte(i*5))
		}
	}
	return m
}

func (m *deltaModel) announce(p netip.Prefix, peer string, class rib.PeerClass, ifID int) {
	r := route(p.String(), peer, class, ifID, 65000)
	m.med++
	r.MED, r.HasMED = m.med, true
	m.tab.Add(r)
}

func (m *deltaModel) apply(op, ord int, arg byte) {
	p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(ord % modelPrefixes), 0}), 24)
	peer := modelPeers[int(arg)%len(modelPeers)]
	switch op % modelOps {
	case opDemandSet:
		// Whole megabits: every load sum is exact in float64, so the
		// incremental and from-scratch sums agree whatever their order.
		m.demand[p] = float64(int(arg)%200+1) * 1e6
	case opDemandGone:
		delete(m.demand, p)
	case opDemandZero:
		m.demand[p] = 0
	case opRouteAdd:
		m.announce(p, peer.addr, peer.class, peer.ifID)
	case opRouteDel:
		m.tab.Remove(p, netip.MustParseAddr(peer.addr))
	case opEgressMove:
		m.announce(p, peer.addr, peer.class, (peer.ifID+1+int(arg)/4%3)%4)
	case opInject:
		m.announce(p, modelController, rib.ClassController, 3)
	case opOnlyInjected:
		for _, peer := range modelPeers {
			m.tab.Remove(p, netip.MustParseAddr(peer.addr))
		}
		m.announce(p, modelController, rib.ClassController, 3)
	case opDupJournal:
		for i := 0; i < 2+int(arg)%3; i++ {
			m.announce(p, peer.addr, peer.class, peer.ifID)
		}
	case opForceSweep:
		m.pj.ResetDelta()
	case opStep:
		m.step()
	}
}

// step runs one delta cycle, advances the model, and compares.
func (m *deltaModel) step() {
	t := m.t
	m.cycle++
	changed, now, ok := m.tab.ChangedSince(m.ver, nil)
	if !ok {
		t.Fatal("model outran the route journal")
	}
	m.ver = now
	got, st := m.pj.ProjectDelta(m.tab, m.demand)
	label := fmt.Sprintf("cycle %d (stride %d, full=%v %s, thr %v)", m.cycle, m.pj.TailStride, st.Full, st.FullReason, st.HeavyThr)

	live, demandBps := 0, 0.0
	for _, bps := range m.demand {
		demandBps += bps
		if bps > 0 {
			live++
		}
	}
	if st.Live != live {
		t.Fatalf("%s: Live = %d, want %d", label, st.Live, live)
	}
	stride := uint64(max(m.pj.TailStride, 1))
	striding := !st.Full && m.pj.HeavyK > 0 && stride > 1 && st.HeavyThr > 0
	dirty := make(map[netip.Prefix]bool, len(changed))
	for _, p := range changed {
		dirty[p] = true
		// A journaled prefix without demand loses its record at once,
		// even in a cycle whose removal pass does not run.
		if m.demand[p] <= 0 {
			delete(m.seen, p)
		}
	}
	if st.Full {
		clear(m.seen)
	}
	for p, bps := range m.demand {
		// A striding scan reads a tail rate only on its stripe's cycle;
		// heavy rates and journaled prefixes are read every cycle.
		if bps > 0 && (!striding || bps >= st.HeavyThr || dirty[p] || stripeOf(p)%stride == m.pj.seq%stride) {
			m.seen[p] = bps
		}
	}
	// Vanished demand is noticed once records outnumber live prefixes.
	if len(m.seen) > live {
		for p := range m.seen {
			if m.demand[p] <= 0 {
				delete(m.seen, p)
			}
		}
	}
	if !striding && len(m.seen) != live {
		t.Fatalf("%s: model holds %d prefixes, %d live", label, len(m.seen), live)
	}

	want := Project(m.tab, m.seen)
	m.checkRecords(label, got)
	sameProjection(t, label, got, want)
	samePlanIndex(t, label, got, want) // sorts the buckets, rewriting pos
	m.checkRecords(label+" after sort", got)
	if !floatClose(got.DemandBps, demandBps) {
		t.Fatalf("%s: DemandBps %v, want %v", label, got.DemandBps, demandBps)
	}
}

// checkRecords asserts the structural invariants: one record per
// prefix the model holds, routed records in Plans and in exactly the
// bucket slot they name, unrouted ones in neither.
func (m *deltaModel) checkRecords(label string, got *Projection) {
	t := m.t
	if got != m.pj.cur || reflect.ValueOf(m.pj.cache).Pointer() != reflect.ValueOf(got.Plans).Pointer() {
		t.Fatalf("%s: the cache is not the live projection's Plans", label)
	}
	inBuckets := 0
	for ifID, bucket := range got.byIF {
		for i, plan := range bucket {
			if plan.pos != i || got.Plans[plan.Prefix] != plan || plan.Preferred == nil || plan.Preferred.EgressIF != ifID {
				t.Fatalf("%s: if%d slot %d holds %v (pos %d, preferred %v)", label, ifID, i, plan.Prefix, plan.pos, plan.Preferred)
			}
		}
		inBuckets += len(bucket)
		if _, loaded := got.IfLoadBps[ifID]; loaded != (len(bucket) > 0) {
			t.Fatalf("%s: if%d has %d plans but load entry present=%v", label, ifID, len(bucket), loaded)
		}
	}
	if inBuckets != len(got.Plans) {
		t.Fatalf("%s: %d plans in buckets, %d in Plans", label, inBuckets, len(got.Plans))
	}
	unroutedBps := 0.0
	for p, rec := range m.pj.unrouted {
		if _, routed := got.Plans[p]; routed || rec.Preferred != nil || rec.Prefix != p {
			t.Fatalf("%s: unrouted record %v is routed (preferred %v)", label, p, rec.Preferred)
		}
		if rec.RateBps != m.seen[p] {
			t.Fatalf("%s: unrouted %v rate %v, model %v", label, p, rec.RateBps, m.seen[p])
		}
		unroutedBps += rec.RateBps
	}
	if !floatClose(got.UnroutedBps, unroutedBps) {
		t.Fatalf("%s: UnroutedBps %v, records sum to %v", label, got.UnroutedBps, unroutedBps)
	}
	if n := len(got.Plans) + len(m.pj.unrouted); n != len(m.seen) {
		t.Fatalf("%s: %d records, model holds %d prefixes", label, n, len(m.seen))
	}
	for p := range got.Plans {
		if _, ok := m.seen[p]; !ok {
			t.Fatalf("%s: plan for %v, which the model does not hold", label, p)
		}
	}
}

// modelStrides are the TailStride settings the model runs under: off,
// the power-of-two mask path, and the modulo path.
var modelStrides = []int{1, 32, 3}

// FuzzProjectDeltaModel decodes the input as three-byte operations
// (kind, prefix, argument) and holds the delta projector to the model
// after every cycle.
func FuzzProjectDeltaModel(f *testing.F) {
	f.Add(uint8(0), []byte{opStep, 0, 0, opDemandGone, 0, 0, opStep, 0, 0})
	f.Add(uint8(1), []byte{opStep, 0, 0, opDupJournal, 3, 1, opOnlyInjected, 6, 0, opStep, 0, 0, opEgressMove, 3, 9, opStep, 0, 0})
	f.Add(uint8(2), flickerOps(rand.New(rand.NewSource(5)), 12))
	f.Fuzz(func(t *testing.T, strideSel uint8, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		m := newDeltaModel(t, modelStrides[int(strideSel)%len(modelStrides)])
		for ; len(data) >= 3; data = data[3:] {
			m.apply(int(data[0]), int(data[1]), data[2])
		}
		m.step()
	})
}

// flickerOps renders `cycles` cycles of long-tail flicker as model
// operations: each cycle a quarter of the prefixes gain or change demand
// and a quarter lose it, beside a handful of every kind of route event.
func flickerOps(rng *rand.Rand, cycles int) []byte {
	var ops []byte
	for c := 0; c < cycles; c++ {
		for i := 0; i < modelPrefixes/4; i++ {
			ops = append(ops, opDemandSet, byte(rng.Intn(modelPrefixes)), byte(rng.Intn(256)))
			ops = append(ops, byte(opDemandGone+rng.Intn(2)), byte(rng.Intn(modelPrefixes)), 0)
		}
		for i := 0; i < 4; i++ {
			ops = append(ops, byte(opRouteAdd+rng.Intn(opForceSweep-opRouteAdd)), byte(rng.Intn(modelPrefixes)), byte(rng.Intn(256)))
		}
		if rng.Intn(40) == 0 {
			ops = append(ops, opForceSweep, 0, 0)
		}
		ops = append(ops, opStep, 0, 0)
	}
	return ops
}

// TestProjectDeltaFlickerModel: 300 cycles of seeded flicker per stride
// setting, the live projection equal to the model after every one.
func TestProjectDeltaFlickerModel(t *testing.T) {
	for _, stride := range modelStrides {
		m := newDeltaModel(t, stride)
		ops := flickerOps(rand.New(rand.NewSource(int64(stride))), 300)
		for ; len(ops) >= 3; ops = ops[3:] {
			m.apply(int(ops[0]), int(ops[1]), ops[2])
		}
		if m.cycle != 300 {
			t.Fatalf("stride %d: ran %d cycles", stride, m.cycle)
		}
	}
}

// TestProjectorBytesPerPrefix is a ceiling on what the projector keeps
// alive per demanded prefix once it has swept and settled into delta
// cycles: the Plans map, one plan record and one bucket slot. A second
// prefix-keyed map beside Plans, or table-sized scratch held between
// sweeps, lands well above it (the four-map projector kept 364 B).
func TestProjectorBytesPerPrefix(t *testing.T) {
	const (
		n       = 50_000
		ceiling = 200 // bytes per prefix; this design keeps ≈150
	)
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64, n)
	prefixes := make([]netip.Prefix, n)
	for i := range prefixes {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
		prefixes[i] = p
		tab.Add(route(p.String(), "172.20.0.1", rib.ClassPrivate, i%3, 65010))
		tab.Add(route(p.String(), "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
		demand[p] = float64(100+i%900) * 1e6
	}
	heapLive := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heapLive()
	pj := &Projector{Workers: 1}
	for cycle := 0; cycle < 4; cycle++ { // the sweep, then three delta cycles
		for i := cycle; i < n; i += 100 {
			demand[prefixes[i]] *= 1.5
		}
		if _, st := pj.ProjectDelta(tab, demand); st.Full != (cycle == 0) {
			t.Fatalf("cycle %d: full=%v", cycle, st.Full)
		}
	}
	perPrefix := float64(heapLive()-before) / n
	runtime.KeepAlive(pj)
	runtime.KeepAlive(tab)
	runtime.KeepAlive(demand)
	t.Logf("projector keeps %.0f B per prefix", perPrefix)
	if perPrefix > ceiling {
		t.Fatalf("projector keeps %.0f B per prefix, ceiling %d", perPrefix, ceiling)
	}
}
