package exp

import (
	"context"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// soakTestConfig is the reduced-scale soak base: the testConfig
// scenario (underprovisioned PNIs, peak hour) with the E11 health
// ladder so composed faults walk the full fail-static staircase.
func soakTestConfig() HarnessConfig {
	cfg := testConfig(true)
	cfg.Health = core.HealthConfig{
		TrafficStaleAfter: 45 * time.Second,
		TrafficFailAfter:  150 * time.Second,
		BMPFlushAfter:     90 * time.Second,
	}
	return cfg
}

// TestE16SoakSmoke is the check.sh time-budgeted soak: a reduced-scale
// run of seeded composed chaos with every invariant checked each cycle.
// Zero violations required. The full-scale arm (≥500 cycles) runs via
// `efbench -only E16`.
func TestE16SoakSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res, err := E16ChaosSoak(ctx, SoakConfig{
		Base: soakTestConfig(),
		Seed: 21,
		Logf: t.Logf,
	}, 120, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("soak violations:\n%s", res)
	}
	if res.Cycles < 120 {
		t.Errorf("soaked %d cycles, want >= 120", res.Cycles)
	}
	if len(res.Events) != 6 {
		t.Errorf("composed %d events, want 6", len(res.Events))
	}
	// The run must have actually exercised chaos: some event fired and
	// the controller did real work.
	if res.PeakOverrides == 0 {
		t.Error("soak never installed an override — scenario not overloaded?")
	}
	t.Logf("\n%s", res)
}

// TestE16SoakDeterministicTimeline verifies the seed fully determines
// the chaos schedule — the replay contract violations advertise.
func TestE16SoakDeterministicTimeline(t *testing.T) {
	sc, err := netsim.Synthesize(soakTestConfig().Synth)
	if err != nil {
		t.Fatal(err)
	}
	a, err := netsim.ChaosSchedule(sc, netsim.ChaosConfig{Seed: 77, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := netsim.ChaosSchedule(sc, netsim.ChaosConfig{Seed: 77, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	if netsim.FormatTimeline(a) != netsim.FormatTimeline(b) {
		t.Fatalf("same seed, different timelines:\n%s\nvs\n%s",
			netsim.FormatTimeline(a), netsim.FormatTimeline(b))
	}
	c, err := netsim.ChaosSchedule(sc, netsim.ChaosConfig{Seed: 78, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	if netsim.FormatTimeline(a) == netsim.FormatTimeline(c) {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestE16ControlArmReportsViolation is the checker's own regression
// test: pointed at a controller with fail-static disabled during a
// total telemetry blackout, the overload-headroom invariant MUST fire,
// and the report must carry the seed and the event timeline for replay.
func TestE16ControlArmReportsViolation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res, err := E16ControlArm(ctx, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("control arm (fail-static disabled, sFlow blackout) reported no violations:\n%s", res)
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "overload-headroom" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an overload-headroom violation, got: %v", res.Violations)
	}
	out := res.String()
	if !strings.Contains(out, "seed=21") {
		t.Errorf("violation report does not carry the seed:\n%s", out)
	}
	if !strings.Contains(out, "sflow-loss") {
		t.Errorf("violation report does not carry the event timeline:\n%s", out)
	}
	// The E16 rung's pass gate holds on this arm and fails on a green one.
	if gate := (&soakRung{soak: res, control: res}); !gate.Pass() || !strings.Contains(gate.String(), "violations EXPECTED") {
		t.Errorf("E16 rung gate failed on a control arm with %d violations:\n%s", len(res.Violations), gate)
	}
	if (&soakRung{soak: res, control: &SoakResult{}}).Pass() {
		t.Error("E16 rung gate passed a control arm with no violations: the checker would be blind")
	}
	t.Logf("\n%s", res)
}

// TestE16LossyPathQuarantine scripts a single hot lossy-path event
// (well above core.MultipathMaxLossFrac) and soaks through it:
// the quarantine invariant must arm for the event, and a correct
// controller must evict the peer from every weighted member set before
// the grace expires — zero violations.
func TestE16LossyPathQuarantine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	base := soakTestConfig()
	sc, err := netsim.Synthesize(base.Synth)
	if err != nil {
		t.Fatal(err)
	}
	var peerName string
	for i := range sc.Topo.Peers {
		if sc.Topo.Peers[i].Class != rib.ClassTransit {
			peerName = sc.Topo.Peers[i].Name
			break
		}
	}
	if peerName == "" {
		t.Fatal("scenario has no non-transit peer")
	}
	res, err := E16ChaosSoak(ctx, SoakConfig{
		Base: base,
		Seed: 21,
		Events: []netsim.Event{{
			Kind:      netsim.EventLossyPath,
			Peer:      peerName,
			At:        4 * time.Minute,
			Duration:  25 * time.Minute,
			Magnitude: 0.18,
		}},
		Logf: t.Logf,
	}, 70, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossyWindows != 1 {
		t.Errorf("armed %d lossy quarantine windows, want 1", res.LossyWindows)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("soak violations:\n%s", res)
	}
	t.Logf("\n%s", res)
}

// TestInvariantCheckerDeterministic feeds the same cycle to two
// checkers and expects the same violations in the same order, naming
// the same prefixes and interfaces: the checker walks its maps sorted,
// so a red soak prints the same report on every replay.
func TestInvariantCheckerDeterministic(t *testing.T) {
	cfg := SoakConfig{Base: soakTestConfig(), Seed: 21}
	h := newTestHarness(t, cfg.Base)
	var stats *netsim.TickStats
	var rep *core.CycleReport
	for i := 0; i < 40 && (rep == nil || stats == nil); i++ {
		s, r := h.Step()
		if r != nil && s != nil {
			stats, rep = s, r
		}
	}
	if rep == nil {
		t.Fatal("no cycle ran")
	}
	// Every other interface far over its capacity, the rest idle: each
	// hot one has prefixes an idle one could take, so the overload
	// invariant fires on several interfaces in the same cycle.
	cycle := *stats
	cycle.IfLoadBps = make(map[int]float64)
	hot := 0
	for i := range h.PoP.Topo.Interfaces {
		ifc := &h.PoP.Topo.Interfaces[i]
		if i%2 == 0 {
			cycle.IfLoadBps[ifc.ID] = 2 * ifc.CapacityBps
			hot++
		} else {
			cycle.IfLoadBps[ifc.ID] = 0
		}
	}
	r := *rep
	r.Health = core.HealthHealthy
	var got [2][]SoakViolation
	for k := range got {
		chk := newInvariantChecker(h, &cfg)
		for i := 0; i <= soakOverloadGrace; i++ {
			chk.observe(&cycle, &r, 0)
		}
		got[k] = chk.violations
	}
	if len(got[0]) < 2 {
		t.Fatalf("%d violations over %d hot interfaces; the check needs several in one cycle: %v", len(got[0]), hot, got[0])
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("same cycle, different violations:\n%v\n%v", got[0], got[1])
	}
}

// TestSoakFrozenViolationNamesPrefix: E16's fail-static-frozen
// violation names the first prefix whose installed decision moved while
// frozen, with its canonical line before and after.
func TestSoakFrozenViolationNamesPrefix(t *testing.T) {
	p, q := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	via := func(nh string) *rib.Route { return &rib.Route{NextHop: netip.MustParseAddr(nh)} }
	frozen := core.NewOverrideSet([]core.Override{
		{Prefix: p, Via: via("172.20.0.9"), ToIF: 3},
		{Prefix: q, Via: via("172.20.0.3"), ToIF: 2},
	})
	moved := core.NewOverrideSet([]core.Override{
		{Prefix: p, Via: via("172.20.0.9"), ToIF: 3},
		{Prefix: q, Via: via("172.20.0.1"), ToIF: 2},
	})
	var c invariantChecker
	static := &core.CycleReport{Health: core.HealthFailStatic}
	c.checkFreeze(static, frozen)
	c.checkFreeze(static, frozen)
	if len(c.violations) != 0 {
		t.Fatalf("an unchanged frozen set violated: %+v", c.violations)
	}
	c.checkFreeze(static, moved)
	if len(c.violations) != 1 || c.violations[0].Invariant != "fail-static-frozen" {
		t.Fatalf("violations = %+v, want one fail-static-frozen", c.violations)
	}
	want := `installed decision changed while frozen (2 -> 2 overrides), first at 10.0.1.0/24: "10.0.1.0/24 172.20.0.3 2" vs "10.0.1.0/24 172.20.0.1 2"`
	if got := c.violations[0].Detail; got != want {
		t.Errorf("detail = %s\nwant %s", got, want)
	}
}
