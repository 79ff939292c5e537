package netsim

import (
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/rib"
)

// eventTestScenario builds a small synthesized scenario plus a started
// PoP and demand model for engine tests.
func eventTestScenario(t *testing.T) (*Scenario, *PoP, *DemandModel, *Clock) {
	t.Helper()
	sc, err := Synthesize(SynthConfig{
		Seed:               7,
		Prefixes:           60,
		EdgeASes:           12,
		PrivatePeers:       3,
		PublicPeers:        4,
		RouteServerMembers: 4,
		Transits:           2,
		Routers:            2,
		PeakBps:            50e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	demand, err := sc.NewDemand(DemandConfig{NoiseSigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	clock := NewClock(timeAtHour(20))
	pop, err := NewPoP(PoPConfig{Scenario: sc, Demand: demand, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pop.Close)
	// The PoP closes when ctx ends, so the cancel must outlive this
	// helper — Cleanup, not defer.
	ctx, cancel := contextWithTimeout(t)
	t.Cleanup(cancel)
	if err := pop.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pop.WaitConverged(ctx); err != nil {
		t.Fatal(err)
	}
	return sc, pop, demand, clock
}

func TestEventEngineValidation(t *testing.T) {
	_, pop, demand, clock := eventTestScenario(t)
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown kind", Event{Kind: "warp-core-breach", At: time.Minute}, "unknown kind"},
		{"negative offset", Event{Kind: EventLiveEvent, At: -time.Minute, Duration: time.Hour, Magnitude: 1.5}, "negative start"},
		{"unknown peer", Event{Kind: EventDepeer, At: time.Minute, Peer: "nope"}, `unknown peer "nope"`},
		{"unknown interface", Event{Kind: EventDrain, At: time.Minute, Duration: time.Minute, Interface: 999}, "unknown interface 999"},
		{"unknown router", Event{Kind: EventBMPKill, At: time.Minute, Duration: time.Minute, Router: "nope"}, `unknown router "nope"`},
		{"bad capacity scale", Event{Kind: EventBrownout, At: time.Minute, Duration: time.Minute, Interface: 0, Magnitude: 1.5}, "outside (0,1]"},
		{"flash needs AS", Event{Kind: EventFlashCrowd, At: time.Minute, Duration: time.Minute, Magnitude: 2}, "target AS required"},
		{"surge needs prefix", Event{Kind: EventSurge, At: time.Minute, Duration: time.Minute, Magnitude: 5}, "target prefix required"},
		{"surge needs duration", Event{Kind: EventSurge, At: time.Minute, Magnitude: 5, Prefix: netip.MustParsePrefix("10.0.0.0/24")}, "duration required"},
	}
	for _, tc := range cases {
		_, err := NewEventEngine(EventEngineConfig{
			Start:  clock.Now(),
			Events: []Event{tc.ev},
			PoP:    pop,
			Demand: demand,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestEventEngineDemandApplyRevert(t *testing.T) {
	sc, pop, demand, clock := eventTestScenario(t)
	target := sc.Prefixes[0]
	base := demand.Rate(target, clock.Now().Add(time.Minute))

	eng, err := NewEventEngine(EventEngineConfig{
		Start: clock.Now(),
		Events: []Event{
			{Kind: EventSurge, At: 30 * time.Second, Duration: 2 * time.Minute,
				Magnitude: 10, Prefix: target.Prefix},
		},
		PoP:    pop,
		Demand: demand,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before the event: nothing fires, rate unchanged.
	if fired := eng.Advance(clock.Now()); fired != 0 {
		t.Fatalf("fired %d transitions before start", fired)
	}
	// At the event: the rate is multiplied for the target only.
	clock.Advance(time.Minute)
	if fired := eng.Advance(clock.Now()); fired != 1 {
		t.Fatalf("apply fired %d transitions, want 1", fired)
	}
	if eng.Active() != 1 {
		t.Errorf("active = %d, want 1", eng.Active())
	}
	got := demand.Rate(target, clock.Now())
	if math.Abs(got/base-10) > 0.01 {
		t.Errorf("surged rate = %gx base, want 10x", got/base)
	}
	// A non-target prefix keeps its modifier-free rate.
	other := sc.Prefixes[1]
	otherBase := demand.Rate(other, clock.Now())
	demand.modMu.RLock()
	nmods := len(demand.mods)
	demand.modMu.RUnlock()
	if nmods != 1 {
		t.Fatalf("mods installed = %d, want 1", nmods)
	}
	if f := demand.modFactor(other, clock.Now()); math.Abs(f-1) > 1e-9 {
		t.Errorf("non-target prefix factor = %g (base rate %g), want 1", f, otherBase)
	}
	// Past the end: reverted, rate back to the un-modified model.
	clock.Advance(2 * time.Minute)
	if fired := eng.Advance(clock.Now()); fired != 1 {
		t.Fatalf("revert fired %d transitions, want 1", fired)
	}
	if !eng.Done() || eng.Active() != 0 {
		t.Errorf("done=%v active=%d after revert", eng.Done(), eng.Active())
	}
	demand.modMu.RLock()
	left := len(demand.mods)
	demand.modMu.RUnlock()
	if left != 0 {
		t.Errorf("%d modifiers still installed after revert", left)
	}
	if f := demand.modFactor(target, clock.Now()); math.Abs(f-1) > 1e-9 {
		t.Errorf("target factor after revert = %g, want 1", f)
	}
}

// TestEventEngineDemandShift: a demand-shift is a PoP-wide square
// pulse — every prefix scales by the magnitude at once (re-homed users
// land instantly, no ramp), and the pulse reverts cleanly. A loss-side
// shift (magnitude < 1) must also validate and apply; liveevent's
// ramp-shaped modifier must not leak into this kind.
func TestEventEngineDemandShift(t *testing.T) {
	sc, pop, demand, clock := eventTestScenario(t)

	for _, bad := range []struct {
		name string
		ev   Event
		want string
	}{
		{"needs duration", Event{Kind: EventDemandShift, At: time.Minute, Magnitude: 1.4}, "duration required"},
		{"needs magnitude", Event{Kind: EventDemandShift, At: time.Minute, Duration: time.Minute}, "magnitude must be positive"},
	} {
		_, err := NewEventEngine(EventEngineConfig{
			Start: clock.Now(), Events: []Event{bad.ev}, PoP: pop, Demand: demand,
		})
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want containing %q", bad.name, err, bad.want)
		}
	}

	eng, err := NewEventEngine(EventEngineConfig{
		Start: clock.Now(),
		Events: []Event{
			{Kind: EventDemandShift, At: 30 * time.Second, Duration: 2 * time.Minute, Magnitude: 1.4},
		},
		PoP:    pop,
		Demand: demand,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := []*PrefixInfo{sc.Prefixes[0], sc.Prefixes[len(sc.Prefixes)/2], sc.Prefixes[len(sc.Prefixes)-1]}

	clock.Advance(time.Minute)
	if fired := eng.Advance(clock.Now()); fired != 1 {
		t.Fatalf("apply fired %d transitions, want 1", fired)
	}
	// Square pulse: full magnitude immediately after onset, across the
	// whole PoP, not ramped like a live event.
	for _, p := range probe {
		if f := demand.modFactor(p, clock.Now()); math.Abs(f-1.4) > 1e-9 {
			t.Errorf("%s factor mid-shift = %g, want 1.4 (square, PoP-wide)", p.Prefix, f)
		}
	}

	clock.Advance(2 * time.Minute)
	if fired := eng.Advance(clock.Now()); fired != 1 {
		t.Fatalf("revert fired %d transitions, want 1", fired)
	}
	if !eng.Done() {
		t.Error("engine not done after the pulse")
	}
	for _, p := range probe {
		if f := demand.modFactor(p, clock.Now()); math.Abs(f-1) > 1e-9 {
			t.Errorf("%s factor after revert = %g, want 1", p.Prefix, f)
		}
	}

	// The losing side of a shift: magnitude < 1 drains the PoP.
	eng, err = NewEventEngine(EventEngineConfig{
		Start: clock.Now(),
		Events: []Event{
			{Kind: EventDemandShift, At: time.Minute, Duration: time.Minute, Magnitude: 0.4},
		},
		PoP:    pop,
		Demand: demand,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(90 * time.Second)
	if fired := eng.Advance(clock.Now()); fired != 1 {
		t.Fatalf("loss-side apply fired %d transitions, want 1", fired)
	}
	if f := demand.modFactor(probe[0], clock.Now()); math.Abs(f-0.4) > 1e-9 {
		t.Errorf("loss-side factor = %g, want 0.4", f)
	}
}

func TestDemandModRampShape(t *testing.T) {
	start := timeAtHour(12)
	mod := DemandMod{
		Start:      start,
		End:        start.Add(time.Hour),
		Multiplier: 3,
		Ramp:       true,
	}
	pi := &PrefixInfo{Prefix: netip.MustParsePrefix("10.0.0.0/24"), OriginAS: 1}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{-time.Minute, 1},          // before
		{0, 1},                     // ramp start
		{30 * time.Minute, 3},      // midpoint peak
		{15 * time.Minute, 2},      // halfway up
		{time.Hour, 1},             // end is exclusive
		{time.Hour + time.Hour, 1}, // after
	}
	for _, tc := range cases {
		got := mod.factor(pi, start.Add(tc.at))
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("factor at %s = %g, want %g", tc.at, got, tc.want)
		}
	}
}

func TestEventEngineCapacityOverlap(t *testing.T) {
	_, pop, demand, clock := eventTestScenario(t)
	ifc := pop.Topo.InterfaceByID(0)
	base := ifc.CapacityBps
	var mirrored []float64
	eng, err := NewEventEngine(EventEngineConfig{
		Start: clock.Now(),
		Events: []Event{
			{Kind: EventBrownout, At: time.Minute, Duration: 10 * time.Minute, Interface: 0, Magnitude: 0.5},
			{Kind: EventDrain, At: 2 * time.Minute, Duration: 4 * time.Minute, Interface: 0, Magnitude: 0.1},
		},
		PoP:        pop,
		Demand:     demand,
		OnCapacity: func(_ int, bps float64) { mirrored = append(mirrored, bps) },
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(d time.Duration, wantCap float64) {
		t.Helper()
		clock.Advance(d)
		eng.Advance(clock.Now())
		if got := pop.Topo.InterfaceByID(0).CapacityBps; math.Abs(got-wantCap) > 1 {
			t.Errorf("at +%s capacity = %g, want %g", d, got, wantCap)
		}
	}
	step(90*time.Second, base*0.5)  // brownout active
	step(time.Minute, base*0.5*0.1) // drain stacks multiplicatively
	step(4*time.Minute, base*0.5)   // drain ends first, brownout remains
	step(10*time.Minute, base)      // brownout ends: full capacity back
	if len(mirrored) != 4 {
		t.Errorf("OnCapacity fired %d times, want 4 (got %v)", len(mirrored), mirrored)
	}
	if !eng.Done() {
		t.Error("engine not done")
	}
}

func TestEventEngineDepeerRestore(t *testing.T) {
	sc, pop, demand, clock := eventTestScenario(t)
	// Pick a non-transit peer with announcements.
	var peer *Peer
	for i := range sc.Topo.Peers {
		if sc.Topo.Peers[i].Class != rib.ClassTransit && len(sc.Topo.Peers[i].Announces) > 0 {
			peer = &sc.Topo.Peers[i]
			break
		}
	}
	if peer == nil {
		t.Fatal("no non-transit peer")
	}
	full := pop.Table.RouteCount()
	eng, err := NewEventEngine(EventEngineConfig{
		Start: clock.Now(),
		Events: []Event{
			{Kind: EventDepeer, At: time.Minute, Duration: 5 * time.Minute, Peer: peer.Name},
		},
		PoP:    pop,
		Demand: demand,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	eng.Advance(clock.Now())
	// Session death and withdrawal propagate on the wall clock.
	deadline := time.Now().Add(5 * time.Second)
	for pop.Table.RouteCount() >= full && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := pop.Table.RouteCount(); got >= full {
		t.Fatalf("depeer withdrew nothing: %d routes, had %d", got, full)
	}
	clock.Advance(5 * time.Minute)
	eng.Advance(clock.Now())
	// Re-peer: session re-establishes and re-announces everything.
	deadline = time.Now().Add(10 * time.Second)
	for pop.Table.RouteCount() < full && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := pop.Table.RouteCount(); got < full {
		t.Fatalf("re-peer recovered %d routes, want %d", got, full)
	}
}

func TestEventStringAndTimeline(t *testing.T) {
	events := []Event{
		{Kind: EventDepeer, At: 10 * time.Minute, Duration: 5 * time.Minute, Peer: "as65010-pni"},
		{Kind: EventSurge, At: time.Minute, Duration: 2 * time.Minute, Magnitude: 10,
			Prefix: netip.MustParsePrefix("10.0.0.0/24")},
	}
	tl := FormatTimeline(events)
	// Sorted by start offset: the surge (1m) precedes the depeer (10m).
	if !strings.Contains(tl, "[00] ddos-surge") || !strings.Contains(tl, "[01] depeer") {
		t.Errorf("timeline not sorted:\n%s", tl)
	}
	if !strings.Contains(tl, "10.0.0.0/24") || !strings.Contains(tl, "as65010-pni") {
		t.Errorf("timeline missing targets:\n%s", tl)
	}
}

func TestEventEnginePathPerfApplyRevert(t *testing.T) {
	sc, pop, demand, clock := eventTestScenario(t)
	spec := &pop.Topo.Peers[0]
	prefix := sc.Prefixes[0].Prefix
	perf := pop.Plane.Perf()
	base := perf.BaseRTT(prefix, spec, 255)

	eng, err := NewEventEngine(EventEngineConfig{
		Start: clock.Now(),
		Events: []Event{
			{Kind: EventPathRTT, At: 30 * time.Second, Duration: 2 * time.Minute,
				Magnitude: 40, Peer: spec.Name},
			{Kind: EventLossyPath, At: 30 * time.Second, Duration: 2 * time.Minute,
				Magnitude: 0.08, Peer: spec.Name},
		},
		PoP:    pop,
		Demand: demand,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if fired := eng.Advance(clock.Now()); fired != 2 {
		t.Fatalf("apply fired %d transitions, want 2", fired)
	}
	if got := perf.BaseRTT(prefix, spec, 255); math.Abs(got-(base+40)) > 0.01 {
		t.Errorf("inflated RTT = %.2f, want %.2f", got, base+40)
	}
	if got := perf.PathLoss(spec.Addr); got != 0.08 {
		t.Errorf("PathLoss = %v, want 0.08", got)
	}
	// The measurement source (RTTSource.LossForRoute) sees the scripted loss too.
	r := &rib.Route{Prefix: prefix, PeerAddr: spec.Addr, NextHop: spec.Addr}
	if got := pop.Plane.LossForRoute(prefix, r); got != 0.08 {
		t.Errorf("LossForRoute = %v, want 0.08", got)
	}
	// Past the end: both impairments unwind.
	clock.Advance(3 * time.Minute)
	if fired := eng.Advance(clock.Now()); fired != 2 {
		t.Fatalf("revert fired %d transitions, want 2", fired)
	}
	if got := perf.BaseRTT(prefix, spec, 255); math.Abs(got-base) > 0.01 {
		t.Errorf("RTT after revert = %.2f, want %.2f", got, base)
	}
	if got := perf.PathLoss(spec.Addr); got != 0 {
		t.Errorf("PathLoss after revert = %v, want 0", got)
	}
	if !eng.Done() {
		t.Error("engine not done")
	}
}

func TestEventEnginePathPerfValidation(t *testing.T) {
	_, pop, demand, clock := eventTestScenario(t)
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown peer", Event{Kind: EventPathRTT, At: time.Minute, Duration: time.Minute, Magnitude: 40, Peer: "nope"}, `unknown peer "nope"`},
		{"needs magnitude", Event{Kind: EventPathRTT, At: time.Minute, Duration: time.Minute, Peer: pop.Topo.Peers[0].Name}, "magnitude must be positive"},
		{"loss bound", Event{Kind: EventLossyPath, At: time.Minute, Duration: time.Minute, Magnitude: 1.5, Peer: pop.Topo.Peers[0].Name}, "outside (0,1]"},
		{"needs duration", Event{Kind: EventLossyPath, At: time.Minute, Magnitude: 0.1, Peer: pop.Topo.Peers[0].Name}, "duration required"},
	}
	for _, tc := range cases {
		_, err := NewEventEngine(EventEngineConfig{
			Start:  clock.Now(),
			Events: []Event{tc.ev},
			PoP:    pop,
			Demand: demand,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}
