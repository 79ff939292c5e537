package core

import (
	"math/rand"
	"net/netip"
	"reflect"
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
		AllocatorConfig{}, MultipathConfig{MinGainMS: 20}, nil)
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
	// 8G on a 10G port: util 0.8 is above SpreadUtil but below the
	// overload threshold, so only the multipath pass acts.
	proj := Project(tab, map[netip.Prefix]float64{p: 8e9})
	plan := proj.Plans[p]
	transit := plan.Alternates[0]
	// No RTT gap: transit is 20ms slower but within tolerance.
	rep := mpReport(p.String(), plan.Preferred, 20,
		altpath.PathStat{Route: transit, P50: 40, N: 32})

	out := MultipathAllocateTraced(proj, inv, []*altpath.PrefixReport{rep}, nil, nil,
		AllocatorConfig{}, MultipathConfig{SpreadUtil: 0.72, ToleranceMS: 25}, nil)
	if len(out) != 1 || len(out[0].Multipath) != 2 {
		t.Fatalf("overrides = %+v", out)
	}
	// Without congestion the same report must produce nothing.
	proj2 := Project(tab, map[netip.Prefix]float64{p: 2e9})
	rep2 := mpReport(p.String(), proj2.Plans[p].Preferred, 20,
		altpath.PathStat{Route: transit, P50: 40, N: 32})
	out2 := MultipathAllocateTraced(proj2, inv, []*altpath.PrefixReport{rep2}, nil, nil,
		AllocatorConfig{}, MultipathConfig{SpreadUtil: 0.72, ToleranceMS: 25}, nil)
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
		AllocatorConfig{}, MultipathConfig{MinGainMS: 20, MaxLossFrac: 0.10}, tr)
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
	cfg := MultipathConfig{MinGainMS: 20, HysteresisPct: 10}

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
		AllocatorConfig{Target: 0.95}, MultipathConfig{MinGainMS: 20}, nil)
	if len(out) != 0 {
		t.Errorf("infeasible demand split anyway: %+v", out)
	}
	// 12G fits when spread (max 9.5G per port) but not whole on either.
	proj2 := Project(tab, map[netip.Prefix]float64{p: 12e9})
	plan2 := proj2.Plans[p]
	rep2 := mpReport(pfx, plan2.Preferred, 50,
		altpath.PathStat{Route: plan2.Alternates[0], P50: 20, N: 32})
	out2 := MultipathAllocateTraced(proj2, inv, []*altpath.PrefixReport{rep2}, nil, nil,
		AllocatorConfig{Target: 0.95}, MultipathConfig{MinGainMS: 20}, nil)
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
		AllocatorConfig{}, MultipathConfig{MinGainMS: 20}, nil)
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

// Regression (PerfAllocateTraced budget/trace interaction): once
// MaxMoves is hit with tracing enabled, every remaining qualifying
// report must get a RejectMoveBudget trace and the override list must
// not grow.
func TestPerfAllocateTracedBudgetTraces(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(5)
	demand := make(map[netip.Prefix]float64)
	ps := make([]netip.Prefix, 5)
	for i := 0; i < 5; i++ {
		ps[i] = netip.MustParsePrefix([]string{
			"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.4.0/24"}[i])
		demand[ps[i]] = 0.1e9
	}
	proj := Project(tab, demand)
	var reports []*altpath.PrefixReport
	for i, p := range ps {
		// Descending gaps so budget order is deterministic: 50, 45, ...
		reports = append(reports, perfReport(p.String(), 50-float64(5*i), proj.Plans[p].Alternates[0], 32))
	}
	tr := NewCycleTrace(16)
	out := PerfAllocateTraced(proj, inv, reports, nil, AllocatorConfig{}, PerfConfig{MaxMoves: 2}, tr)
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
		// Every qualifying-but-unbudgeted report: RejectMoveBudget.
		found := false
		for _, c := range pt.Candidates {
			if c.Reason == RejectMoveBudget {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no RejectMoveBudget candidate: %+v", p, pt.Candidates)
		}
		if pt.Outcome != OutcomeNone {
			t.Errorf("%s outcome = %v, want none", p, pt.Outcome)
		}
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
	cfg := MultipathConfig{MinGainMS: 20, MaxMoves: 10}
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
