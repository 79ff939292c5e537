package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"edgefabric/internal/altpath"
	"edgefabric/internal/rib"
)

// mpReport builds a report with a measured primary plus alternates.
func mpReport(prefix string, primary *rib.Route, p50 float64, alts ...altpath.PathStat) *altpath.PrefixReport {
	p := netip.MustParsePrefix(prefix)
	paths := append([]altpath.PathStat{{Route: primary, Primary: true, P50: p50, N: 32}}, alts...)
	rep := &altpath.PrefixReport{Prefix: p, Paths: paths}
	for i := 1; i < len(paths); i++ {
		if rep.BestAlt == nil || paths[i].P50 < rep.BestAlt.P50 {
			rep.BestAlt = &paths[i]
		}
	}
	if rep.BestAlt != nil {
		rep.GapMS = p50 - rep.BestAlt.P50
	}
	return rep
}

func TestMultipathSplitsOnGap(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	pfx := "10.0.0.0/24"
	tab.Add(route(pfx, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(pfx, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010)) // 10G IXP port
	p := netip.MustParsePrefix(pfx)
	proj := Project(tab, map[netip.Prefix]float64{p: 2e9})
	plan := proj.Plans[p]
	ixp := plan.Alternates[0]
	rep := mpReport(p.String(), plan.Preferred, 50,
		altpath.PathStat{Route: ixp, P50: 20, N: 32})

	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil,
		AllocatorConfig{}, MultipathConfig{}, nil)
	if len(out) != 1 {
		t.Fatalf("overrides = %+v", out)
	}
	o := out[0]
	if len(o.Multipath) != 2 {
		t.Fatalf("members = %+v", o.Multipath)
	}
	total := 0
	for _, pw := range o.Multipath {
		total += pw.WeightPct
	}
	if total != 100 {
		t.Errorf("weights sum to %d", total)
	}
	// Heaviest-first ordering, and the 2.5x-faster IXP path (equal
	// headroom) must carry more weight.
	if o.Multipath[0].WeightPct < o.Multipath[1].WeightPct {
		t.Errorf("members not heaviest-first: %+v", o.Multipath)
	}
	if o.Multipath[0].Via.PeerAddr != ixp.PeerAddr {
		t.Errorf("heaviest member = %v, want IXP", o.Multipath[0].Via.PeerAddr)
	}
	if o.Via != o.Multipath[0].Via || o.ToIF != o.Multipath[0].ToIF {
		t.Errorf("Via/ToIF must mirror the heaviest member: %+v", o)
	}
	var rate float64
	for _, pw := range o.Multipath {
		rate += pw.RateBps
	}
	if rate < 1.99e9 || rate > 2.01e9 {
		t.Errorf("member rates sum to %g, want 2e9", rate)
	}
}

func TestMultipathSpreadsOnCongestion(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(1)
	p := netip.MustParsePrefix("10.0.0.0/24")
	// 8G on a 10G port: util 0.8 is above multipathSpreadUtil but below
	// the overload threshold, so only the multipath pass acts.
	proj := Project(tab, map[netip.Prefix]float64{p: 8e9})
	plan := proj.Plans[p]
	transit := plan.Alternates[0]
	// No RTT gap: transit is 20ms slower but within tolerance.
	rep := mpReport(p.String(), plan.Preferred, 20,
		altpath.PathStat{Route: transit, P50: 40, N: 32})

	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil,
		AllocatorConfig{}, MultipathConfig{}, nil)
	if len(out) != 1 || len(out[0].Multipath) != 2 {
		t.Fatalf("overrides = %+v", out)
	}
	// Without congestion the same report must produce nothing.
	proj2 := Project(tab, map[netip.Prefix]float64{p: 2e9})
	rep2 := mpReport(p.String(), proj2.Plans[p].Preferred, 20,
		altpath.PathStat{Route: transit, P50: 40, N: 32})
	out2 := MultipathAllocateTraced(proj2, inv, []*altpath.PrefixReport{rep2}, nil, nil,
		AllocatorConfig{}, MultipathConfig{}, nil)
	if len(out2) != 0 {
		t.Errorf("uncongested no-gap prefix split: %+v", out2)
	}
}

func TestMultipathExcludesLossyMember(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	pfx := "10.0.0.0/24"
	tab.Add(route(pfx, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(pfx, "172.20.0.2", rib.ClassPrivate, 1, 65011, 65010))
	tab.Add(route(pfx, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	p := netip.MustParsePrefix(pfx)
	proj := Project(tab, map[netip.Prefix]float64{p: 2e9})
	plan := proj.Plans[p]
	var pni2, transit *rib.Route
	for _, alt := range plan.Alternates {
		switch alt.EgressIF {
		case 1:
			pni2 = alt
		case 3:
			transit = alt
		}
	}
	rep := mpReport(pfx, plan.Preferred, 50,
		altpath.PathStat{Route: pni2, P50: 22, N: 32, RetransFrac: 0.20}, // lossy
		altpath.PathStat{Route: transit, P50: 25, N: 32})

	tr := NewCycleTrace(16)
	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil,
		AllocatorConfig{}, MultipathConfig{}, tr)
	if len(out) != 1 {
		t.Fatalf("overrides = %+v", out)
	}
	for _, pw := range out[0].Multipath {
		if pw.Via.PeerAddr == pni2.PeerAddr {
			t.Errorf("lossy member joined the set: %+v", out[0].Multipath)
		}
	}
	pt := tr.Lookup(p)
	if pt == nil {
		t.Fatal("no trace")
	}
	found := false
	for _, c := range pt.Candidates {
		if c.Reason == RejectLossyPath && c.Via.PeerAddr == pni2.PeerAddr {
			found = true
		}
	}
	if !found {
		t.Errorf("no RejectLossyPath trace: %+v", pt.Candidates)
	}
	if pt.Outcome != OutcomeMultipath {
		t.Errorf("outcome = %v", pt.Outcome)
	}
}

func TestMultipathHysteresisSuppressesJitter(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	pfx := "10.0.0.0/24"
	tab.Add(route(pfx, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(pfx, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	p := netip.MustParsePrefix(pfx)
	proj := Project(tab, map[netip.Prefix]float64{p: 2e9})
	plan := proj.Plans[p]
	ixp := plan.Alternates[0]
	cfg := MultipathConfig{}

	rep := mpReport(p.String(), plan.Preferred, 50,
		altpath.PathStat{Route: ixp, P50: 20, N: 32})
	first := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil, AllocatorConfig{}, cfg, nil)
	if len(first) != 1 || len(first[0].Multipath) != 2 {
		t.Fatalf("first = %+v", first)
	}
	prev := MultipathPrior(first)

	// Slightly different measurements next cycle: weights would shift a
	// few points. With the installed set passed as prev, the emitted
	// override must keep the installed weights exactly.
	rep2 := mpReport(p.String(), plan.Preferred, 52,
		altpath.PathStat{Route: ixp, P50: 21, N: 32})
	second := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep2}, nil, prev, AllocatorConfig{}, cfg, nil)
	if len(second) != 1 {
		t.Fatalf("second = %+v", second)
	}
	if !SameMultipath(first[0].Multipath, second[0].Multipath) {
		t.Errorf("weights churned under hysteresis:\n first %+v\nsecond %+v",
			first[0].Multipath, second[0].Multipath)
	}
}

func TestMultipathRespectsTargetUtilization(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	pfx := "10.0.0.0/24"
	tab.Add(route(pfx, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(pfx, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010)) // 10G IXP port
	p := netip.MustParsePrefix(pfx)
	// 20G across two 10G ports: no split keeps both at or below the
	// 0.95 target.
	proj := Project(tab, map[netip.Prefix]float64{p: 20e9})
	plan := proj.Plans[p]
	rep := mpReport(pfx, plan.Preferred, 50,
		altpath.PathStat{Route: plan.Alternates[0], P50: 20, N: 32})
	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil,
		AllocatorConfig{Target: 0.95}, MultipathConfig{}, nil)
	if len(out) != 0 {
		t.Errorf("infeasible demand split anyway: %+v", out)
	}
	// 12G fits when spread (max 9.5G per port) but not whole on either.
	proj2 := Project(tab, map[netip.Prefix]float64{p: 12e9})
	plan2 := proj2.Plans[p]
	rep2 := mpReport(pfx, plan2.Preferred, 50,
		altpath.PathStat{Route: plan2.Alternates[0], P50: 20, N: 32})
	out2 := MultipathAllocateTraced(proj2, inv, []*altpath.PrefixReport{rep2}, nil, nil,
		AllocatorConfig{Target: 0.95}, MultipathConfig{}, nil)
	if len(out2) != 1 || len(out2[0].Multipath) != 2 {
		t.Fatalf("splittable demand not split: %+v", out2)
	}
	for _, pw := range out2[0].Multipath {
		if pw.RateBps > 0.95*10e9+1 {
			t.Errorf("member above target: %+v", pw)
		}
	}
}

func TestMultipathSkipsOverloadMoves(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(1)
	p := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(tab, map[netip.Prefix]float64{p: 2e9})
	plan := proj.Plans[p]
	transit := plan.Alternates[0]
	prior := &AllocResult{Overrides: []Override{{
		Prefix: p, Via: transit, FromIF: 0, ToIF: 3, RateBps: 2e9,
	}}}
	rep := mpReport(p.String(), plan.Preferred, 50,
		altpath.PathStat{Route: transit, P50: 20, N: 32})
	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, prior, nil,
		AllocatorConfig{}, MultipathConfig{}, nil)
	if len(out) != 0 {
		t.Errorf("overload-moved prefix split on top: %+v", out)
	}
}

// The sticky retention pass must not adopt a multipath override as a
// plain single-path detour: it belongs to the perf pass's hysteresis.
func TestStickySkipsMultipathPriors(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(1)
	p := netip.MustParsePrefix("10.0.0.0/24")
	// 11G on the 10G PNI keeps the preferred interface above threshold,
	// which would trigger sticky retention for a single-path prior.
	proj := Project(tab, map[netip.Prefix]float64{p: 11e9})
	plan := proj.Plans[p]
	transit := plan.Alternates[0]
	prior := map[netip.Prefix]Override{p: {
		Prefix: p, Via: transit, FromIF: 0, ToIF: 3, RateBps: 11e9,
		Multipath: []PathWeight{
			{Via: transit, ToIF: 3, WeightPct: 60, RateBps: 6.6e9},
			{Via: plan.Preferred, ToIF: 0, WeightPct: 40, RateBps: 4.4e9},
		},
	}}
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{}, prior, nil)
	if res.Retained != 0 {
		t.Errorf("multipath prior retained by the sticky pass: %+v", res.Overrides)
	}
}

func TestSameMultipath(t *testing.T) {
	r1 := route("10.0.0.0/24", "172.20.0.1", rib.ClassPrivate, 0, 65010)
	r2 := route("10.0.0.0/24", "172.20.0.9", rib.ClassTransit, 3, 64601, 65010)
	a := []PathWeight{{Via: r2, ToIF: 3, WeightPct: 60}, {Via: r1, ToIF: 0, WeightPct: 40}}
	b := []PathWeight{{Via: r2, ToIF: 3, WeightPct: 60}, {Via: r1, ToIF: 0, WeightPct: 40}}
	if !SameMultipath(a, b) {
		t.Error("identical sets compare unequal")
	}
	b[1].WeightPct = 39
	if SameMultipath(a, b) {
		t.Error("different weights compare equal")
	}
	if !SameMultipath(nil, nil) {
		t.Error("nil sets must compare equal")
	}
	if SameMultipath(a, nil) {
		t.Error("set vs nil must compare unequal")
	}
}

// Regression (determinism): reports arrive in map order and many share
// a gap, so with a move budget and a finite alternate port the visiting
// order decides who gets a set. The (gap, prefix) total order must make
// the result independent of arrival order.
func TestMultipathAllocateOrderIndependent(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64)
	var prefixes []netip.Prefix
	for i := 0; i < 24; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24).String()
		tab.Add(route(pfx, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		tab.Add(route(pfx, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010)) // 10G IXP port
		p := netip.MustParsePrefix(pfx)
		prefixes = append(prefixes, p)
		demand[p] = 1e9
	}
	proj := Project(tab, demand)
	build := func() []*altpath.PrefixReport {
		var reports []*altpath.PrefixReport
		for i, p := range prefixes {
			plan := proj.Plans[p]
			// Three gap classes of eight tied prefixes each.
			reports = append(reports, mpReport(p.String(), plan.Preferred, 60,
				altpath.PathStat{Route: plan.Alternates[0], P50: 30 - 5*float64(i%3), N: 32}))
		}
		return reports
	}
	cfg := MultipathConfig{MaxMoves: 10}
	want := MultipathAllocateTraced(proj, inv, build(), nil, nil, AllocatorConfig{}, cfg, nil)
	if len(want) == 0 || len(want) >= len(prefixes) {
		t.Fatalf("baseline produced %d overrides; the budget and the IXP port must admit only some of %d", len(want), len(prefixes))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		reports := build()
		rng.Shuffle(len(reports), func(a, b int) { reports[a], reports[b] = reports[b], reports[a] })
		got := MultipathAllocateTraced(proj, inv, reports, nil, nil, AllocatorConfig{}, cfg, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: overrides depend on report order:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// k1 is the whole-prefix configuration of the optimizer: one slot, the
// paper's §6 move onto a measurably faster path.
var k1 = MultipathConfig{MaxPaths: 1}

// perfReport builds a k = 1 report: a measured primary at 80 ms and one
// alternate gap ms faster, both with n samples.
func perfReport(prefix string, primary, alt *rib.Route, gap float64, n int) *altpath.PrefixReport {
	rep := mpReport(prefix, primary, 80, altpath.PathStat{Route: alt, P50: 80 - gap, N: n})
	rep.Paths[0].N = n
	return rep
}

// threePrefixes projects 1G on each of 10.0.{0,1,2}.0/24 (PNI if0,
// transit if3 alternate).
func threePrefixes() *Projection {
	return Project(buildTable(3), map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 1e9,
		netip.MustParsePrefix("10.0.1.0/24"): 1e9,
		netip.MustParsePrefix("10.0.2.0/24"): 1e9,
	})
}

func TestPerfAllocateMovesFastAlternates(t *testing.T) {
	inv := testInventory(t)
	proj := threePrefixes()
	plan := proj.Plans[netip.MustParsePrefix("10.0.0.0/24")]
	pni, transit := plan.Preferred, plan.Alternates[0]
	reports := []*altpath.PrefixReport{
		perfReport("10.0.0.0/24", pni, transit, 35, 32), // qualifies
		perfReport("10.0.1.0/24", pni, transit, 5, 32),  // gap too small
		perfReport("10.0.2.0/24", pni, transit, 40, 4),  // too few samples
	}
	out := MultipathAllocateTraced(proj, inv, reports, nil, nil, AllocatorConfig{}, MultipathConfig{MaxPaths: 1}, nil)
	if len(out) != 1 {
		t.Fatalf("overrides = %+v", out)
	}
	o := out[0]
	if o.Prefix != netip.MustParsePrefix("10.0.0.0/24") || o.ToIF != 3 || len(o.Multipath) != 0 {
		t.Errorf("override = %+v", o)
	}
	if o.Reason != "alt path 35ms faster (p50 45 vs 80)" {
		t.Errorf("reason = %q", o.Reason)
	}
}

func TestPerfAllocateRespectsCapacity(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	p := "10.0.0.0/24"
	tab.Add(route(p, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(p, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010)) // 10G IXP port
	proj := Project(tab, map[netip.Prefix]float64{netip.MustParsePrefix(p): 11e9})
	plan := proj.Plans[netip.MustParsePrefix(p)]
	reports := []*altpath.PrefixReport{perfReport(p, plan.Preferred, plan.Alternates[0], 50, 32)}
	out := MultipathAllocateTraced(proj, inv, reports, nil, nil, AllocatorConfig{Threshold: 0.95}, k1, nil)
	if len(out) != 0 {
		t.Errorf("11G moved onto a 10G port: %+v", out)
	}
}

func TestPerfAllocateSkipsPriorMoves(t *testing.T) {
	inv := testInventory(t)
	p := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(buildTable(1), map[netip.Prefix]float64{p: 1e9})
	plan := proj.Plans[p]
	alt := plan.Alternates[0]
	prior := &AllocResult{Overrides: []Override{{
		Prefix: p, Via: alt, FromIF: 0, ToIF: 3, RateBps: 1e9,
	}}}
	reports := []*altpath.PrefixReport{perfReport(p.String(), plan.Preferred, alt, 50, 32)}
	out := MultipathAllocateTraced(proj, inv, reports, prior, nil, AllocatorConfig{}, k1, nil)
	if len(out) != 0 {
		t.Errorf("prefix moved twice: %+v", out)
	}
}

// A split detour from the overload pass keys the more-specific half
// (SplitOf set on the aggregate). The optimizer must treat the aggregate
// as already moved, or it re-moves the whole prefix on top of the
// halves' load accounting.
func TestPerfAllocateSkipsSplitAggregates(t *testing.T) {
	inv := testInventory(t)
	agg := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(buildTable(1), map[netip.Prefix]float64{agg: 2e9})
	plan := proj.Plans[agg]
	alt := plan.Alternates[0]
	lo, _, ok := rib.Split(agg)
	if !ok {
		t.Fatal("split failed")
	}
	prior := &AllocResult{Overrides: []Override{{
		Prefix: lo, SplitOf: agg, Via: alt, FromIF: 0, ToIF: 3, RateBps: 1e9,
	}}}
	reports := []*altpath.PrefixReport{perfReport(agg.String(), plan.Preferred, alt, 50, 32)}
	out := MultipathAllocateTraced(proj, inv, reports, prior, nil, AllocatorConfig{}, k1, nil)
	if len(out) != 0 {
		t.Errorf("aggregate with a detoured half moved again: %+v", out)
	}
}

// A degenerate report with an empty Paths slice (possible from a
// malformed or hand-built PrefixReport) must be skipped, not panic the
// cycle.
func TestPerfAllocateEmptyPathsReport(t *testing.T) {
	inv := testInventory(t)
	p := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(buildTable(1), map[netip.Prefix]float64{p: 1e9})
	degenerate := &altpath.PrefixReport{
		Prefix:  p,
		GapMS:   50,
		BestAlt: &altpath.PathStat{Route: proj.Plans[p].Alternates[0], P50: 10, N: 32},
	}
	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{degenerate}, nil, nil, AllocatorConfig{}, k1, nil)
	if len(out) != 0 {
		t.Errorf("degenerate report produced a move: %+v", out)
	}
}

// A nil-BestAlt report must not end the scan: nothing enforces that
// such reports carry GapMS == 0, so a qualifying report can sort below
// one.
func TestPerfAllocateNilAltDoesNotEndScan(t *testing.T) {
	inv := testInventory(t)
	proj := threePrefixes()
	qualifying := netip.MustParsePrefix("10.0.1.0/24")
	plan := proj.Plans[qualifying]
	reports := []*altpath.PrefixReport{
		mpReport("10.0.0.0/24", plan.Preferred, 50), // nil BestAlt
		perfReport(qualifying.String(), plan.Preferred, plan.Alternates[0], 30, 32),
		perfReport("10.0.2.0/24", plan.Preferred, plan.Alternates[0], -5, 32), // never qualifies
	}
	reports[0].GapMS = 40 // sorts first
	out := MultipathAllocateTraced(proj, inv, reports, nil, nil, AllocatorConfig{}, k1, nil)
	if len(out) != 1 || out[0].Prefix != qualifying {
		t.Fatalf("overrides = %+v, want exactly one for %s", out, qualifying)
	}
}

// fivePrefixes projects 0.1G on each of 10.0.{0..4}.0/24 and returns
// one k = 1 report per prefix with gaps 50, 45, ... 30 ms.
func fivePrefixes() (*Projection, []netip.Prefix, []*altpath.PrefixReport) {
	demand := make(map[netip.Prefix]float64)
	var ps []netip.Prefix
	for i := 0; i < 5; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
		ps = append(ps, p)
		demand[p] = 0.1e9
	}
	proj := Project(buildTable(5), demand)
	var reports []*altpath.PrefixReport
	for i, p := range ps {
		plan := proj.Plans[p]
		reports = append(reports, perfReport(p.String(), plan.Preferred, plan.Alternates[0], 50-float64(5*i), 32))
	}
	return proj, ps, reports
}

func TestPerfAllocateMaxMoves(t *testing.T) {
	proj, _, reports := fivePrefixes()
	out := MultipathAllocateTraced(proj, testInventory(t), reports, nil, nil, AllocatorConfig{}, MultipathConfig{MaxPaths: 1, MaxMoves: 2}, nil)
	if len(out) != 2 {
		t.Errorf("moves = %d, want 2", len(out))
	}
}

// Once MaxMoves is hit with tracing enabled, every remaining qualifying
// report must get a RejectMoveBudget trace and the override list must
// not grow.
func TestPerfAllocateBudgetTraces(t *testing.T) {
	proj, ps, reports := fivePrefixes()
	tr := NewCycleTrace(16)
	out := MultipathAllocateTraced(proj, testInventory(t), reports, nil, nil, AllocatorConfig{}, MultipathConfig{MaxPaths: 1, MaxMoves: 2}, tr)
	if len(out) != 2 {
		t.Fatalf("moves = %d, want 2 (budget)", len(out))
	}
	moved := map[netip.Prefix]bool{out[0].Prefix: true, out[1].Prefix: true}
	for _, p := range ps {
		pt := tr.Lookup(p)
		if pt == nil {
			t.Errorf("no trace for %s", p)
			continue
		}
		if moved[p] {
			if pt.Outcome != OutcomePerfMoved {
				t.Errorf("%s outcome = %v, want perf move", p, pt.Outcome)
			}
			continue
		}
		if !slices.ContainsFunc(pt.Candidates, func(c CandidateTrace) bool { return c.Reason == RejectMoveBudget }) {
			t.Errorf("%s: no RejectMoveBudget candidate: %+v", p, pt.Candidates)
		}
		if pt.Outcome != OutcomeNone {
			t.Errorf("%s outcome = %v, want none", p, pt.Outcome)
		}
	}
}

// TestMultipathK1Selection pins the k = 1 rule: the slot goes to the
// lowest loss-discounted median among paths that fit below target, and
// the primary keeps the prefix when it wins.
func TestMultipathK1Selection(t *testing.T) {
	inv := testInventory(t)
	pfx := "10.0.0.0/24"
	p := netip.MustParsePrefix(pfx)
	tab := rib.NewTable(rib.DefaultPolicy())
	tab.Add(route(pfx, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(pfx, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))  // 10G IXP
	tab.Add(route(pfx, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010)) // 100G transit
	// 10.0.9.0/24 is single-homed on the IXP port; its demand fills it.
	tab.Add(route("10.0.9.0/24", "172.20.0.3", rib.ClassPublic, 2, 65012))
	for _, tc := range []struct {
		name                string
		rate, ixpFill       float64 // the prefix's and the IXP filler's demand
		primary, loss       float64 // primary median and retransmit fraction
		ixp, ixpLoss, trans float64 // alternate medians, IXP loss
		want                int     // moved-to interface, -1 for no move
	}{
		{"faster alternate that fits moves", 1e9, 0, 50, 0, 25, 0, 45, 2},
		{"gain below MinGainMS stays", 1e9, 0, 50, 0, 35, 0, 45, -1},
		{"fastest alternate above target stays", 1e9, 9e9, 50, 0, 20, 0, 55, -1},
		{"fastest above target, a slower one beats the primary", 1e9, 9e9, 50, 0, 20, 0, 40, 3},
		{"lossy primary on a congested port is evicted", 8e9, 0, 20, 0.2, 60, 0, 30, 3},
		{"loss-discounted median beats raw speed", 1e9, 0, 50, 0, 25, 0.08, 28, 3}, // 25 × 1.64 > 28
	} {
		t.Run(tc.name, func(t *testing.T) {
			proj := Project(tab, map[netip.Prefix]float64{p: tc.rate, netip.MustParsePrefix("10.0.9.0/24"): tc.ixpFill})
			plan := proj.Plans[p]
			alts := make([]altpath.PathStat, 0, 2)
			for _, alt := range plan.Alternates {
				if alt.EgressIF == 2 {
					alts = append(alts, altpath.PathStat{Route: alt, P50: tc.ixp, RetransFrac: tc.ixpLoss, N: 32})
				} else {
					alts = append(alts, altpath.PathStat{Route: alt, P50: tc.trans, N: 32})
				}
			}
			slices.SortFunc(alts, func(a, b altpath.PathStat) int { return cmp.Compare(a.P50, b.P50) })
			rep := mpReport(pfx, plan.Preferred, tc.primary, alts...)
			rep.Paths[0].RetransFrac = tc.loss
			tr := NewCycleTrace(0)
			out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil, AllocatorConfig{}, k1, tr)
			got := -1
			if len(out) == 1 {
				got = out[0].ToIF
				if len(out[0].Multipath) != 0 || !strings.HasPrefix(out[0].Reason, "alt path") {
					t.Errorf("not a whole-prefix perf override: %+v", out[0])
				}
			}
			if got != tc.want || len(out) > 1 {
				t.Fatalf("moved to %d, want %d: %+v\n%s", got, tc.want, out, tr.Lookup(p).Format(inv))
			}
			if got >= 0 && tr.Lookup(p).Outcome != OutcomePerfMoved {
				t.Errorf("outcome = %v, want %v", tr.Lookup(p).Outcome, OutcomePerfMoved)
			}
		})
	}
}

// A whole-prefix override onto a member no faster than the primary
// (lossy primary, congested port) must not claim a negative gain, at
// k = 1 and when the loss filter leaves one member at k >= 2.
func TestMultipathWholePrefixReasonNeverNegative(t *testing.T) {
	inv := testInventory(t)
	p := netip.MustParsePrefix("10.0.0.0/24")
	// 8G on the 10G PNI: util 0.8 fires the congestion trigger.
	proj := Project(buildTable(1), map[netip.Prefix]float64{p: 8e9})
	plan := proj.Plans[p]
	for _, k := range []int{1, 3} {
		rep := mpReport(p.String(), plan.Preferred, 20,
			altpath.PathStat{Route: plan.Alternates[0], P50: 30, N: 32})
		rep.Paths[0].RetransFrac = 0.2
		out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil,
			AllocatorConfig{}, MultipathConfig{MaxPaths: k}, nil)
		if len(out) != 1 || out[0].ToIF != 3 || len(out[0].Multipath) != 0 {
			t.Fatalf("k=%d: overrides = %+v", k, out)
		}
		want := "alt path (p50 30 vs 20; primary loss 20%, preferred util 0.80)"
		if out[0].Reason != want {
			t.Errorf("k=%d: reason = %q, want %q", k, out[0].Reason, want)
		}
	}
}

// TestBuildOverrideReasonMatchesFmt: every reason branch renders the
// bytes the fmt formats it replaced did, edge values included.
func TestBuildOverrideReasonMatchesFmt(t *testing.T) {
	oldWeights := func(pws []PathWeight) string {
		s := ""
		for i, pw := range pws {
			if i > 0 {
				s += "/"
			}
			s += fmt.Sprintf("%d", pw.WeightPct)
		}
		return s
	}
	oldReason := func(best, primary *altpath.PathStat, pws []PathWeight, gapMS float64, congested bool, util float64) string {
		if len(pws) == 0 {
			reason := fmt.Sprintf("alt path %.0fms faster (p50 %.0f vs %.0f)",
				primary.P50-best.P50, best.P50, primary.P50)
			if primary.P50-best.P50 < 0.5 {
				reason = fmt.Sprintf("alt path (p50 %.0f vs %.0f; primary loss %.0f%%, preferred util %.2f)",
					best.P50, primary.P50, 100*primary.RetransFrac, util)
			}
			return reason
		}
		why := "measured gap"
		if congested {
			why = fmt.Sprintf("preferred util %.2f", util)
		}
		if gapMS >= 0 && congested {
			why = fmt.Sprintf("gap %.0fms + util %.2f", gapMS, util)
		}
		return fmt.Sprintf("multipath %d-way %s (%s)", len(pws), oldWeights(pws), why)
	}
	route := &rib.Route{EgressIF: 3}
	plan := &PrefixPlan{Preferred: &rib.Route{EgressIF: 0}}
	sets := [][]PathWeight{
		nil,
		{{Via: route, WeightPct: 100}},
		{{Via: route, WeightPct: 55}, {Via: route, WeightPct: 45}},
		{{Via: route, WeightPct: 90}, {Via: route, WeightPct: 5}, {Via: route, WeightPct: 5}},
	}
	values := []float64{0, -0.4, 0.4999, 0.5, 2.5, 3.5, 19.999, 20, 44.5, 1234.5678, -12, math.Inf(1), math.NaN()}
	utils := []float64{0, 0.725, 0.72, 0.999, 1.005, 1.0149}
	n := 0
	for _, pws := range sets {
		for _, bestP50 := range values {
			for _, gap := range values {
				for _, util := range utils {
					for _, congested := range []bool{false, true} {
						best := &altpath.PathStat{Route: route, P50: bestP50}
						primary := &altpath.PathStat{P50: bestP50 + gap, RetransFrac: util / 7}
						o := buildOverride(netip.MustParsePrefix("10.0.0.0/24"), plan, best, pws, 1e9, gap, primary, congested, util, "")
						if want := oldReason(best, primary, pws, gap, congested, util); o.Reason != want {
							t.Fatalf("reason = %q, want %q", o.Reason, want)
						}
						n++
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no cases")
	}
}

// A changed set is its own exact copy of the caller's scratch, and
// packMembers moves re-affirmed sets into one exact block where they
// never share memory: an append to one cannot overwrite the next, and
// a set left out of idx stays as it was.
func TestBuildOverrideCopiesAndPackMembers(t *testing.T) {
	route := &rib.Route{EgressIF: 3}
	plan := &PrefixPlan{Preferred: &rib.Route{EgressIF: 0}}
	scratch := []PathWeight{{Via: route, WeightPct: 60}, {Via: route, WeightPct: 40}}
	o := buildOverride(netip.MustParsePrefix("10.0.0.0/24"), plan, &altpath.PathStat{Route: route}, scratch, 1e9, 30, &altpath.PathStat{P50: 50}, false, 0.5, "")
	scratch[0].WeightPct = 99
	if o.Multipath[0].WeightPct != 60 || o.Multipath[1].WeightPct != 40 || cap(o.Multipath) != 2 {
		t.Fatalf("built set %+v (cap %d) is not an exact copy", o.Multipath, cap(o.Multipath))
	}

	var pending []PathWeight
	out := make([]Override, packBlock) // about two blocks of members
	var idx []int
	for i := range out {
		if i%5 == 4 {
			out[i].Multipath = []PathWeight{{WeightPct: -i}}
			continue
		}
		at := len(pending)
		for j := 0; j < 2+i%2; j++ {
			pending = append(pending, PathWeight{WeightPct: i})
		}
		out[i].Multipath = pending[at:len(pending):len(pending)]
		idx = append(idx, i)
	}
	left := &out[4].Multipath[0]
	packMembers(out, idx)
	clear(pending)
	_ = append(out[0].Multipath, PathWeight{WeightPct: -1})
	if &out[4].Multipath[0] != left {
		t.Fatal("a set left out of idx moved")
	}
	for _, i := range idx {
		o := out[i]
		if len(o.Multipath) != 2+i%2 || cap(o.Multipath) != len(o.Multipath) {
			t.Fatalf("set %d: len %d cap %d", i, len(o.Multipath), cap(o.Multipath))
		}
		for _, pw := range o.Multipath {
			if pw.WeightPct != i {
				t.Fatalf("set %d: %+v", i, o.Multipath)
			}
		}
	}
}

// TestMultipathAllocateTracedAllocs bounds a traced steady-state pass
// on the 3 000-prefix golden fixture: the previous pass's overrides
// installed, so the pass re-affirms its sets and re-renders its
// whole-prefix moves with unchanged reasons. What it allocates is a
// handful of maps, slices and arena chunks, not an object per prefix,
// record, candidate or set.
func TestMultipathAllocateTracedAllocs(t *testing.T) {
	f := newGoldenFixture(t)
	reports := f.reports(1)
	arrival := slices.Clone(reports)
	cfg := MultipathConfig{MaxPaths: 3}
	out := MultipathAllocateTraced(f.proj, f.inv, reports, f.prior, nil, f.alloc, cfg, nil)
	// The hysteresis base is what the routers hold, as in Decide: every
	// override, whole-prefix moves included.
	prev := make(map[netip.Prefix]Override, len(out))
	for _, o := range out {
		prev[o.Prefix] = o
	}
	// Each trace is compacted, as RunCycle publishes its own.
	var last *CycleTrace
	allocs := testing.AllocsPerRun(10, func() {
		copy(reports, arrival)
		tr := NewCycleTrace(0)
		out = MultipathAllocateTraced(f.proj, f.inv, reports, f.prior, prev, f.alloc, cfg, tr)
		tr.compact()
		last = tr
	})
	traced := last.Len()
	sets, members := 0, 0
	for _, o := range out {
		if len(o.Multipath) > 0 {
			sets++
			members += len(o.Multipath)
		}
	}
	if sets < 200 || traced < 1000 {
		t.Fatalf("fixture is vacuous: %d weighted sets, %d traced prefixes", sets, traced)
	}
	// A constant: map growth, arena chunks, the compacted blocks, the
	// re-affirmed sets' scratch growth and their packed block.
	const ceiling = 96
	if allocs > float64(ceiling) {
		t.Errorf("traced steady-state pass: %.0f allocs for %d sets and %d traced prefixes, ceiling %d", allocs, sets, traced, ceiling)
	}
	t.Logf("%.0f allocs: %d overrides, %d weighted sets, %d traced prefixes", allocs, len(out), sets, traced)
}
