package core

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"edgefabric/internal/altpath"
	"edgefabric/internal/rib"
)

// statusController builds a full controller over the test inventory
// with a fake peering router, four prefixes that each have a private
// and a transit route, and enough demand to force detours (12G of
// demand preferring a 10G PNI).
func statusController(t *testing.T) *Controller {
	t.Helper()
	demand := staticTraffic{}
	ctrl, _ := readyController(t, Config{Inventory: testInventory(t), Traffic: demand, LocalAS: 64500})
	for i := 0; i < 4; i++ {
		prefix := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}[i]
		ctrl.Store().Table().Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		ctrl.Store().Table().Add(route(prefix, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
		demand[netip.MustParsePrefix(prefix)] = 3e9 // 12G on a 10G PNI
	}
	return ctrl
}

func TestTraceDetouredPrefix(t *testing.T) {
	inv, tab, demand := stickyFixture(t)
	tr := NewCycleTrace(0)
	res := AllocateStickyTraced(Project(tab, demand), inv, AllocatorConfig{Threshold: 0.95}, nil, tr)
	if len(res.Overrides) == 0 {
		t.Fatal("no overrides")
	}
	moved := res.Overrides[0]
	pt := tr.Lookup(moved.Prefix)
	if pt == nil {
		t.Fatalf("no trace for detoured prefix %s", moved.Prefix)
	}
	if pt.Outcome != OutcomeDetoured {
		t.Errorf("outcome = %s, want %s", pt.Outcome, OutcomeDetoured)
	}
	if pt.Chosen == nil || pt.Chosen.EgressIF != moved.ToIF {
		t.Errorf("chosen = %+v, override went to if %d", pt.Chosen, moved.ToIF)
	}
	accepted := 0
	for _, c := range pt.Candidates {
		if c.Reason == RejectNone {
			accepted++
		}
	}
	if accepted != 1 {
		t.Errorf("accepted candidates = %d, want exactly 1 (candidates %+v)", accepted, pt.Candidates)
	}
	out := pt.Format(inv)
	if !strings.Contains(out, "ACCEPTED") || !strings.Contains(out, "override installed") {
		t.Errorf("Format missing accept/outcome:\n%s", out)
	}
}

func TestTraceSkippedPrefixRejections(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	// pA: 11G on the 10G PNI, only alternate is the IXP port...
	tab.Add(route("10.0.0.0/24", "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route("10.0.0.0/24", "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	// ...which pB already fills to 94%.
	tab.Add(route("10.0.9.0/24", "172.20.0.3", rib.ClassPublic, 2, 65012, 65040))
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 11e9,
		netip.MustParsePrefix("10.0.9.0/24"): 9.4e9,
	}
	tr := NewCycleTrace(0)
	res := AllocateStickyTraced(Project(tab, demand), inv, AllocatorConfig{Threshold: 0.95}, nil, tr)
	if len(res.Overrides) != 0 {
		t.Fatalf("unexpected overrides: %+v", res.Overrides)
	}
	pt := tr.Lookup(netip.MustParsePrefix("10.0.0.0/24"))
	if pt == nil {
		t.Fatal("no trace for the skipped prefix")
	}
	if pt.Outcome != OutcomeNone {
		t.Errorf("outcome = %s, want %s", pt.Outcome, OutcomeNone)
	}
	var exceed *CandidateTrace
	for i := range pt.Candidates {
		if pt.Candidates[i].Reason == RejectWouldExceedTarget {
			exceed = &pt.Candidates[i]
		}
	}
	if exceed == nil {
		t.Fatalf("no would-exceed-target candidate recorded: %+v", pt.Candidates)
	}
	if exceed.LoadBps != 9.4e9 || exceed.MoveBps != 11e9 || exceed.LimitBps != 0.95*10e9 {
		t.Errorf("numbers = load %g move %g limit %g", exceed.LoadBps, exceed.MoveBps, exceed.LimitBps)
	}
	out := pt.Format(inv)
	if !strings.Contains(out, "would exceed target") || !strings.Contains(out, "no feasible alternate") {
		t.Errorf("Format missing rejection detail:\n%s", out)
	}
}

func TestTracePerfPassRecords(t *testing.T) {
	inv := testInventory(t)
	proj := threePrefixes()
	plan := proj.Plans[netip.MustParsePrefix("10.0.0.0/24")]
	pni, transit := plan.Preferred, plan.Alternates[0]
	reports := []*altpath.PrefixReport{
		perfReport("10.0.0.0/24", pni, transit, 35, 32), // qualifies
		perfReport("10.0.1.0/24", pni, transit, 5, 32),  // gap too small
		perfReport("10.0.2.0/24", pni, transit, 40, 4),  // too few samples
	}
	tr := NewCycleTrace(0)
	out := MultipathAllocateTraced(proj, inv, reports, nil, nil, AllocatorConfig{}, MultipathConfig{MaxPaths: 1}, tr)
	if len(out) != 1 {
		t.Fatalf("overrides = %+v", out)
	}
	if pt := tr.Lookup(netip.MustParsePrefix("10.0.0.0/24")); pt == nil || pt.Outcome != OutcomePerfMoved {
		t.Errorf("moved prefix trace = %+v", pt)
	}
	pt := tr.Lookup(netip.MustParsePrefix("10.0.2.0/24"))
	if pt == nil || len(pt.Candidates) == 0 || pt.Candidates[0].Reason != RejectInsufficientSamples {
		t.Fatalf("insufficient-samples trace = %+v", pt)
	}
	if pt.Candidates[0].Samples != 4 || pt.Candidates[0].NeedSamples != 16 {
		t.Errorf("sample numbers = %+v", pt.Candidates[0])
	}
	// Neither trigger fired for the small gap: no record (Explain renders
	// that outcome on demand, TestExplainRendersUntracedNoOp).
	if pt := tr.Lookup(netip.MustParsePrefix("10.0.1.0/24")); pt != nil {
		t.Errorf("below-threshold prefix recorded: %+v", pt)
	}
}

// The trace bound holds decisions, not no-ops: reports arrive sorted by
// gap, largest first, so records for below-threshold prefixes nothing
// moved used to fill the bound ahead of a small-gap split the
// congestion trigger made, and the split went unrecorded.
func TestTraceBoundKeepsTriggeredDecisions(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	for _, p := range []string{"10.0.0.0/24", "10.0.1.0/24"} { // 2G on the 10G pni-a: uncongested
		tab.Add(route(p, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		tab.Add(route(p, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	}
	tab.Add(route("10.0.2.0/24", "172.20.0.2", rib.ClassPrivate, 1, 65011)) // 8G on the 10G pni-b: congested
	tab.Add(route("10.0.2.0/24", "172.20.0.9", rib.ClassTransit, 3, 64601, 65011))
	proj := Project(tab, map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 1e9,
		netip.MustParsePrefix("10.0.1.0/24"): 1e9,
		netip.MustParsePrefix("10.0.2.0/24"): 8e9,
	})
	var reports []*altpath.PrefixReport
	for _, c := range []struct {
		p   string
		gap float64
	}{{"10.0.0.0/24", 15}, {"10.0.1.0/24", 12}, {"10.0.2.0/24", 2}} {
		plan := proj.Plans[netip.MustParsePrefix(c.p)]
		reports = append(reports, perfReport(c.p, plan.Preferred, plan.Alternates[0], c.gap, 32))
	}
	tr := NewCycleTrace(2)
	out := MultipathAllocateTraced(proj, inv, reports, nil, nil, AllocatorConfig{Threshold: 0.95}, MultipathConfig{}, tr)
	if len(out) != 1 || out[0].Prefix != netip.MustParsePrefix("10.0.2.0/24") || len(out[0].Multipath) == 0 {
		t.Fatalf("overrides = %+v, want one split of 10.0.2.0/24", out)
	}
	if pt := tr.Lookup(out[0].Prefix); pt == nil || pt.Outcome != OutcomeMultipath {
		t.Errorf("split trace = %+v, want a multipath record", pt)
	}
	if tr.Truncated != 0 || tr.Len() != 1 {
		t.Errorf("trace holds %d record(s), truncated %d; want the split alone", tr.Len(), tr.Truncated)
	}
}

// A measured prefix no trigger fired on has no trace record; Explain
// renders its no-op from the measurer's windows, the optimizer's
// thresholds and the last cycle's utilization.
func TestExplainRendersUntracedNoOp(t *testing.T) {
	inv := testInventory(t)
	demand := staticTraffic{}
	src := pathModel{
		netip.MustParseAddr("172.20.0.1"): {rtt: 40},
		netip.MustParseAddr("172.20.0.9"): {rtt: 35}, // 5 ms faster: below multipathMinGainMS
	}
	ctrl, _ := readyController(t, Config{
		Inventory: inv,
		Traffic:   demand,
		LocalAS:   64500,
		Optimizer: OptimizerConfig{Source: src, Seed: 3},
	})
	p := netip.MustParsePrefix("10.0.0.0/24")
	ctrl.Store().Table().Add(route(p.String(), "172.20.0.1", rib.ClassPrivate, 0, 65010))
	ctrl.Store().Table().Add(route(p.String(), "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	demand[p] = 1e9
	for i := 0; i < 5; i++ {
		if _, err := ctrl.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	s := ctrl.Explain(p)
	for _, want := range []string{
		"rendered from current measurements",
		"[multipath] via 172.20.0.9",
		"rejected: gap below threshold (",
		"< 20.0 ms)",
		"gap below threshold and preferred interface uncongested",
		"preferred interface projected 10.0% last cycle (multipath spread trigger 72%)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

func TestCycleTraceBound(t *testing.T) {
	tr := NewCycleTrace(2)
	a := netip.MustParsePrefix("10.0.0.0/24")
	if tr.Prefix(a) == nil || tr.Prefix(netip.MustParsePrefix("10.0.1.0/24")) == nil {
		t.Fatal("first two prefixes must be traced")
	}
	if tr.Prefix(netip.MustParsePrefix("10.0.2.0/24")) != nil {
		t.Error("third prefix traced past the bound")
	}
	if tr.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", tr.Truncated)
	}
	// Existing records stay reachable past the bound.
	if tr.Prefix(a) == nil {
		t.Error("existing record lost after bound hit")
	}
	if tr.Len() != 2 {
		t.Errorf("len = %d, want 2", tr.Len())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *CycleTrace
	p := netip.MustParsePrefix("10.0.0.0/24")
	pt := tr.Prefix(p)
	if pt != nil {
		t.Fatal("nil tracer handed out a record")
	}
	pt.setPlan(&PrefixPlan{})
	tr.reject(pt, CandidateTrace{})
	pt.resetCandidates()
	pt.markChosen(nil)
	tr.accept(pt, "overload", nil, 0, 0, 0, 0)
	pt.outcome(OutcomeDetoured, nil, "x")
	if tr.Lookup(p) != nil || tr.Len() != 0 || tr.Prefixes() != nil {
		t.Error("nil tracer reported contents")
	}
}

func TestTraceEnumStrings(t *testing.T) {
	reasons := []RejectReason{RejectNone, RejectSamePort, RejectNoInterface,
		RejectWouldExceedTarget, RejectInsufficientSamples, RejectGapBelowThreshold,
		RejectMoveBudget, RejectOutranked, RejectReason(99)}
	for _, r := range reasons {
		if r.String() == "" {
			t.Errorf("empty String for reason %d", int(r))
		}
	}
	outcomes := []TraceOutcome{OutcomeNone, OutcomeDetoured, OutcomeRetained,
		OutcomeSplit, OutcomePerfMoved, OutcomeNotNeeded, TraceOutcome(99)}
	for _, o := range outcomes {
		if o.String() == "" {
			t.Errorf("empty String for outcome %d", int(o))
		}
	}
}

func TestControllerExplain(t *testing.T) {
	ctrl := statusController(t)
	if _, err := ctrl.RunCycle(); err != nil {
		t.Fatal(err)
	}
	installed := ctrl.Installed()
	if len(installed) == 0 {
		t.Fatal("no overrides installed")
	}
	detoured := installed[len(installed)-1].Prefix
	s := ctrl.Explain(detoured)
	if !strings.Contains(s, "override installed") || !strings.Contains(s, "ACCEPTED") {
		t.Errorf("Explain(detoured %s):\n%s", detoured, s)
	}
	if !strings.Contains(s, "cycle 1") {
		t.Errorf("Explain missing cycle header:\n%s", s)
	}

	// A prefix the allocator never considered (routeless).
	s = ctrl.Explain(netip.MustParsePrefix("192.168.0.0/24"))
	if !strings.Contains(s, "not considered") || !strings.Contains(s, "no organic routes") {
		t.Errorf("Explain(unconsidered):\n%s", s)
	}

	// A prefix with routes and demand whose interface was fine, or that
	// was considered and left alone — either way Explain must answer.
	others := 0
	for _, p := range []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"} {
		pfx := netip.MustParsePrefix(p)
		if _, ok := installed.Lookup(pfx); ok {
			continue
		}
		others++
		s := ctrl.Explain(pfx)
		if !strings.Contains(s, pfx.String()) || !strings.Contains(s, "outcome") {
			t.Errorf("Explain(%s):\n%s", pfx, s)
		}
	}
	if others == 0 {
		t.Error("every prefix detoured; fixture should leave some in place")
	}

	sum := ctrl.ExplainSummary()
	if !strings.Contains(sum, "considered") || !strings.Contains(sum, "cycle 1") {
		t.Errorf("ExplainSummary:\n%s", sum)
	}
}

func TestControllerTraceDisabled(t *testing.T) {
	inv := testInventory(t)
	demand := staticTraffic{}
	ctrl, _ := readyController(t, Config{
		Inventory: inv,
		Traffic:   demand,
		LocalAS:   64500,
		Trace:     TraceConfig{Disable: true},
	})
	ctrl.Store().Table().Add(route("10.0.0.0/24", "172.20.0.1", rib.ClassPrivate, 0, 65010))
	ctrl.Store().Table().Add(route("10.0.0.0/24", "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	demand[netip.MustParsePrefix("10.0.0.0/24")] = 11e9
	if _, err := ctrl.RunCycle(); err != nil {
		t.Fatal(err)
	}
	s := ctrl.Explain(netip.MustParsePrefix("10.0.0.0/24"))
	if !strings.Contains(s, "no decision traces retained") {
		t.Errorf("Explain with tracing disabled:\n%s", s)
	}
}

func TestTraceRingBounded(t *testing.T) {
	ctrl := statusController(t)
	for i := 0; i < 12; i++ { // traceCycles is 8
		if _, err := ctrl.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.mu.Lock()
	n := len(ctrl.traces)
	latest := ctrl.latestTraceLocked()
	ctrl.mu.Unlock()
	if n != 8 {
		t.Errorf("trace ring holds %d, want 8", n)
	}
	if latest == nil || latest.Seq != 12 {
		t.Errorf("latest trace seq = %v, want 12", latest)
	}
}

// Records share their trace's candidate arena: interleaved appends,
// resets and chunk turnovers must leave every record's list exactly
// what was appended to it.
func TestCycleTraceCandidateArena(t *testing.T) {
	tr := NewCycleTrace(0)
	var pts []*PrefixTrace
	want := map[*PrefixTrace][]float64{}
	for i := 0; i < 5; i++ {
		pts = append(pts, tr.Prefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)))
	}
	for step := 0; step < 3*traceMinChunk; step++ {
		pt := pts[(step*step)%len(pts)]
		if step%17 == 16 {
			pt.resetCandidates()
			want[pt] = nil
			continue
		}
		for k := 0; k <= step%3; k++ {
			gap := float64(step*10 + k)
			tr.reject(pt, CandidateTrace{GapMS: gap})
			want[pt] = append(want[pt], gap)
		}
	}
	for i, pt := range pts {
		var got []float64
		for _, c := range pt.Candidates {
			got = append(got, c.GapMS)
		}
		if !slices.Equal(got, want[pt]) {
			t.Errorf("record %d: candidates %v, want %v", i, got, want[pt])
		}

	}
}
