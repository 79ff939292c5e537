package core

import (
	"net/netip"
	"testing"

	"edgefabric/internal/altpath"
	"edgefabric/internal/rib"
)

func perfReport(prefix string, gap float64, alt *rib.Route, n int) *altpath.PrefixReport {
	p := netip.MustParsePrefix(prefix)
	primary := altpath.PathStat{Primary: true, P50: 50, N: n}
	best := altpath.PathStat{Route: alt, P50: 50 - gap, N: n}
	return &altpath.PrefixReport{
		Prefix:  p,
		Paths:   []altpath.PathStat{primary, best},
		GapMS:   gap,
		BestAlt: &best,
	}
}

func TestPerfAllocateMovesFastAlternates(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(3)
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 1e9,
		netip.MustParsePrefix("10.0.1.0/24"): 1e9,
		netip.MustParsePrefix("10.0.2.0/24"): 1e9,
	}
	proj := Project(tab, demand)
	transit := proj.Plans[netip.MustParsePrefix("10.0.0.0/24")].Alternates[0]

	reports := []*altpath.PrefixReport{
		perfReport("10.0.0.0/24", 35, transit, 32), // qualifies
		perfReport("10.0.1.0/24", 5, transit, 32),  // gap too small
		perfReport("10.0.2.0/24", 40, transit, 4),  // too few samples
	}
	out := PerfAllocateTraced(proj, inv, reports, nil, AllocatorConfig{}, PerfConfig{MinGainMS: 20}, nil)
	if len(out) != 1 {
		t.Fatalf("overrides = %+v", out)
	}
	if out[0].Prefix != netip.MustParsePrefix("10.0.0.0/24") || out[0].ToIF != 3 {
		t.Errorf("override = %+v", out[0])
	}
}

func TestPerfAllocateRespectsCapacity(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	p := "10.0.0.0/24"
	tab.Add(route(p, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(p, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010)) // 10G IXP port
	proj := Project(tab, map[netip.Prefix]float64{netip.MustParsePrefix(p): 11e9})
	alt := proj.Plans[netip.MustParsePrefix(p)].Alternates[0]
	reports := []*altpath.PrefixReport{perfReport(p, 50, alt, 32)}
	out := PerfAllocateTraced(proj, inv, reports, nil, AllocatorConfig{Threshold: 0.95}, PerfConfig{}, nil)
	if len(out) != 0 {
		t.Errorf("11G moved onto a 10G port: %+v", out)
	}
}

func TestPerfAllocateSkipsPriorMoves(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(1)
	p := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(tab, map[netip.Prefix]float64{p: 1e9})
	alt := proj.Plans[p].Alternates[0]
	prior := &AllocResult{Overrides: []Override{{
		Prefix: p, Via: alt, FromIF: 0, ToIF: 3, RateBps: 1e9,
	}}}
	reports := []*altpath.PrefixReport{perfReport("10.0.0.0/24", 50, alt, 32)}
	out := PerfAllocateTraced(proj, inv, reports, prior, AllocatorConfig{}, PerfConfig{}, nil)
	if len(out) != 0 {
		t.Errorf("prefix moved twice: %+v", out)
	}
}

// A split detour from the overload pass keys the more-specific half
// (SplitOf set on the aggregate). The perf pass must treat the aggregate
// as already moved, or it re-moves the whole prefix on top of the
// halves' load accounting.
func TestPerfAllocateSkipsSplitAggregates(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(1)
	agg := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(tab, map[netip.Prefix]float64{agg: 2e9})
	alt := proj.Plans[agg].Alternates[0]
	lo, _, ok := rib.Split(agg)
	if !ok {
		t.Fatal("split failed")
	}
	prior := &AllocResult{Overrides: []Override{{
		Prefix: lo, SplitOf: agg, Via: alt, FromIF: 0, ToIF: 3, RateBps: 1e9,
	}}}
	reports := []*altpath.PrefixReport{perfReport(agg.String(), 50, alt, 32)}
	out := PerfAllocateTraced(proj, inv, reports, prior, AllocatorConfig{}, PerfConfig{}, nil)
	if len(out) != 0 {
		t.Errorf("aggregate with a detoured half moved again: %+v", out)
	}
}

// A degenerate report with an empty Paths slice (possible from a
// malformed or hand-built PrefixReport) must be skipped, not panic the
// cycle.
func TestPerfAllocateEmptyPathsReport(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(1)
	p := netip.MustParsePrefix("10.0.0.0/24")
	proj := Project(tab, map[netip.Prefix]float64{p: 1e9})
	alt := proj.Plans[p].Alternates[0]
	degenerate := &altpath.PrefixReport{
		Prefix:  p,
		GapMS:   50,
		BestAlt: &altpath.PathStat{Route: alt, P50: 10, N: 32},
	}
	out := PerfAllocateTraced(proj, inv, []*altpath.PrefixReport{degenerate}, nil, AllocatorConfig{}, PerfConfig{}, nil)
	if len(out) != 0 {
		t.Errorf("degenerate report produced a move: %+v", out)
	}
}

// The sorted loop must not break on a nil-BestAlt report: nothing
// enforces that such reports carry GapMS == 0, so a qualifying report
// can sort below one. Only a sub-threshold gap ends the scan.
func TestPerfAllocateNilAltDoesNotEndScan(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(3)
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 1e9,
		netip.MustParsePrefix("10.0.1.0/24"): 1e9,
		netip.MustParsePrefix("10.0.2.0/24"): 1e9,
	}
	proj := Project(tab, demand)
	qualifying := netip.MustParsePrefix("10.0.1.0/24")
	alt := proj.Plans[qualifying].Alternates[0]
	reports := []*altpath.PrefixReport{
		{ // nil BestAlt with a large gap: sorts first
			Prefix: netip.MustParsePrefix("10.0.0.0/24"),
			Paths:  []altpath.PathStat{{Primary: true, P50: 50, N: 32}},
			GapMS:  40,
		},
		perfReport(qualifying.String(), 30, alt, 32), // sorts after the nil-alt report
		perfReport("10.0.2.0/24", -5, alt, 32),       // negative gap: never qualifies
	}
	out := PerfAllocateTraced(proj, inv, reports, nil, AllocatorConfig{}, PerfConfig{}, nil)
	if len(out) != 1 || out[0].Prefix != qualifying {
		t.Fatalf("overrides = %+v, want exactly one for %s", out, qualifying)
	}
}

func TestPerfAllocateMaxMoves(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(5)
	demand := make(map[netip.Prefix]float64)
	var reports []*altpath.PrefixReport
	for i := 0; i < 5; i++ {
		p := netip.MustParsePrefix([]string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.4.0/24"}[i])
		demand[p] = 0.1e9
	}
	proj := Project(tab, demand)
	for p := range demand {
		reports = append(reports, perfReport(p.String(), 30, proj.Plans[p].Alternates[0], 32))
	}
	out := PerfAllocateTraced(proj, inv, reports, nil, AllocatorConfig{}, PerfConfig{MaxMoves: 2}, nil)
	if len(out) != 2 {
		t.Errorf("moves = %d, want 2", len(out))
	}
}
