package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/rib"
)

// fleetScale is the member count the fleet-scale tests run at: the
// paper-scale 256 in regular builds, a reduced rung under -race (same
// structure, the detector's overhead just makes 256 full controllers
// too slow for CI).
func fleetScale() int {
	if raceDetectorEnabled {
		return 48
	}
	return 256
}

// lightController builds the cheapest possible real controller: a
// two-interface inventory, an empty static demand map, no BGP or BMP
// transports. RunCycle completes (empty allocation, empty sync) and
// bumps the cycle sequence, which is all the supervisor-scale tests
// need from a member.
func lightController(t testing.TB, idx int) *Controller {
	t.Helper()
	return lightControllerEvery(t, idx, 0)
}

// lightControllerEvery is lightController cycling every interval (0
// keeps the controller's default).
func lightControllerEvery(t testing.TB, idx int, interval time.Duration) *Controller {
	t.Helper()
	inv, err := NewInventory(
		[]PeerInfo{
			{Name: "pni", Addr: netip.MustParseAddr("172.20.0.1"), AS: 65010, Class: rib.ClassPrivate, InterfaceID: 0, Router: "pr1"},
			{Name: "transit", Addr: netip.MustParseAddr("172.20.0.9"), AS: 64601, Class: rib.ClassTransit, InterfaceID: 1, Router: "pr1"},
		},
		[]InterfaceInfo{
			{ID: 0, Name: "pni", CapacityBps: 10e9, Router: "pr1"},
			{ID: 1, Name: "transit", CapacityBps: 100e9, Router: "pr1"},
		})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Inventory:     inv,
		Traffic:       staticTraffic{},
		LocalAS:       64500,
		CycleInterval: interval,
		MaxHistory:    32, // fleet packing: hundreds of members, small rings
	})
	if err != nil {
		t.Fatalf("member %d: %v", idx, err)
	}
	t.Cleanup(ctrl.Close)
	return ctrl
}

// TestFleetSupervisorScale hosts fleetScale() members in one
// supervisor: one RunCycleAll round cycles every member through the
// bounded worker pool, drained members are skipped while the rest keep
// cycling, and Resume returns them.
func TestFleetSupervisorScale(t *testing.T) {
	n := fleetScale()
	sup := NewFleetSupervisor(FleetSupervisorConfig{})
	for i := 0; i < n; i++ {
		err := sup.Add(FleetMember{
			Name: fmt.Sprintf("pop-%03d", i),
			Ctrl: lightController(t, i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sup.Members()); got != n {
		t.Fatalf("members = %d, want %d", got, n)
	}

	st := sup.RunCycleAll()
	if st.Members != n || st.Skipped != 0 || st.Errors != 0 {
		t.Fatalf("round 1 = %+v, want %d members, 0 skipped, 0 errors", st, n)
	}
	for _, name := range sup.Members() {
		ctrl, _ := sup.Controller(name)
		if seq := ctrl.LastSeq(); seq != 1 {
			t.Fatalf("%s seq = %d after one round, want 1", name, seq)
		}
	}

	// Drain a quarter of the fleet; the rest must keep cycling.
	drained := n / 4
	for i := 0; i < drained; i++ {
		if err := sup.Drain(fmt.Sprintf("pop-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st = sup.RunCycleAll()
	if st.Members != n-drained || st.Skipped != drained {
		t.Fatalf("round 2 = %+v, want %d members, %d skipped", st, n-drained, drained)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("pop-%03d", i)
		ctrl, _ := sup.Controller(name)
		want := uint64(2)
		if i < drained {
			want = 1 // frozen while drained
		}
		if seq := ctrl.LastSeq(); seq != want {
			t.Fatalf("%s seq = %d after round 2, want %d", name, seq, want)
		}
	}

	for i := 0; i < drained; i++ {
		if err := sup.Resume(fmt.Sprintf("pop-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st = sup.RunCycleAll()
	if st.Members != n || st.Skipped != 0 {
		t.Fatalf("round 3 = %+v, want all %d members back", st, n)
	}
}

// TestFleetRoundOverrunIsMemberInterval: a round counts an overrun when
// a member's cycle outlasts that member's own CycleInterval — the bound
// its watchdog counts edgefabric_cycle_overruns_total against — so a
// member cycling every nanosecond overruns and one at the default 30 s
// interval does not.
func TestFleetRoundOverrunIsMemberInterval(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		want     int
	}{
		{time.Nanosecond, 1},
		{0, 0},
	} {
		sup := NewFleetSupervisor(FleetSupervisorConfig{})
		ctrl := lightControllerEvery(t, 0, tc.interval)
		if err := sup.Add(FleetMember{Name: "pop", Ctrl: ctrl}); err != nil {
			t.Fatal(err)
		}
		st := sup.RunCycleAll()
		if st.Members != 1 || st.Overruns != tc.want {
			t.Errorf("interval %v: round = %+v, want 1 member, %d overruns", tc.interval, st, tc.want)
		}
		if got := ctrl.Metrics().Counter("edgefabric_cycle_overruns_total").Value(); got != uint64(tc.want) {
			t.Errorf("interval %v: member watchdog counted %d overruns, want %d", tc.interval, got, tc.want)
		}
	}
}

// fakeFresh is a TrafficFreshness stub with a fixed last-ingest time.
type fakeFresh struct{ last time.Time }

func (f fakeFresh) LastIngest() time.Time { return f.last }

// TestHealthLadderFleetScale drives fleetScale() independent health
// trackers — one per hosted PoP — to every rung of the fail-static
// ladder in an interleaved table and verifies each PoP's verdict is a
// function of its own inputs alone: packing hundreds of ladders into
// one process must not let one PoP's staleness bleed into another's.
func TestHealthLadderFleetScale(t *testing.T) {
	n := fleetScale()
	now := time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC)
	cfg := HealthConfig{
		TrafficStaleAfter: 60 * time.Second,
		TrafficFailAfter:  600 * time.Second,
		RoutesStaleAfter:  120 * time.Second,
		RoutesFailAfter:   1200 * time.Second,
	}
	cfg.setDefaults(30 * time.Second)
	ladder := []struct {
		name       string
		trafficAge time.Duration
		feedsDown  int // of 2
		want       HealthState
	}{
		{"healthy", 0, 0, HealthHealthy},
		{"degraded", 0, 1, HealthDegraded},
		{"fail-static", 70 * time.Second, 0, HealthFailStatic},
		{"fail-back", 700 * time.Second, 0, HealthFailBack},
	}

	trackers := make([]*HealthTracker, n)
	for i := range trackers {
		rung := ladder[i%len(ladder)]
		tr := NewHealthTracker(cfg, func() time.Time { return now },
			fakeFresh{last: now.Add(-rung.trafficAge)})
		tr.RegisterFeed("pr1")
		tr.RegisterFeed("pr2")
		tr.FeedUp("pr1")
		tr.FeedUp("pr2")
		if rung.feedsDown > 0 {
			tr.FeedDown("pr1")
		}
		trackers[i] = tr
	}
	counts := make(map[HealthState]int)
	for i, tr := range trackers {
		rung := ladder[i%len(ladder)]
		h := tr.Evaluate()
		if h.State != rung.want {
			t.Fatalf("pop %d (%s): state = %s, want %s (reasons %v)",
				i, rung.name, h.State, rung.want, h.Reasons)
		}
		counts[h.State]++
	}
	for _, rung := range ladder {
		if got := counts[rung.want]; got < n/len(ladder) {
			t.Errorf("state %s seen %d times, want >= %d", rung.want, got, n/len(ladder))
		}
	}
}

func fptr(v float64) *float64 { return &v }

// reconcileFleet builds a 3-member supervised fleet of full controllers
// (fake peering routers, 12G of demand on a 10G PNI so every healthy
// cycle installs detour overrides) plus a reconciler over it.
func reconcileFleet(t *testing.T) (*FleetSupervisor, *Reconciler, []string) {
	t.Helper()
	sup := NewFleetSupervisor(FleetSupervisorConfig{})
	names := []string{"pop-a", "pop-b", "pop-c"}
	for _, name := range names {
		ctrl := statusController(t)
		if err := sup.Add(FleetMember{Name: name, Ctrl: ctrl}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every member until its overrides are installed.
	for round := 0; round < 5; round++ {
		sup.RunCycleAll()
	}
	for _, name := range names {
		ctrl, _ := sup.Controller(name)
		if len(ctrl.Installed()) == 0 {
			t.Fatalf("%s installed no overrides during warmup", name)
		}
	}
	return sup, NewReconciler(sup, ReconcilerConfig{}), names
}

// TestReconcilerRollingApply walks a full rollout and asserts the
// drain-before-apply contract: each PoP's overrides are withdrawn and
// its cycling paused before the new config lands, siblings keep
// cycling throughout, and the rollout only reports converged once every
// member has completed post-apply cycles under the new parameters.
func TestReconcilerRollingApply(t *testing.T) {
	sup, rec, names := reconcileFleet(t)

	if st := rec.Status(); st.Phase != "idle" {
		t.Fatalf("pre-rollout phase = %q, want idle", st.Phase)
	}
	gen, err := rec.SetDesired(FleetDesired{
		Default: &PoPConfigUpdate{Threshold: fptr(0.90), Target: fptr(0.90)},
	})
	if err != nil || gen != 1 {
		t.Fatalf("SetDesired = %d, %v", gen, err)
	}

	sawDrained := make(map[string]bool)
	for round := 0; round < 100; round++ {
		st := rec.Status()
		if st.Phase == "converged" || st.Phase == "failed" {
			break
		}
		// While a PoP drains, its overrides must already be withdrawn
		// and the supervisor must be skipping it.
		for _, ps := range st.PoPs {
			if ps.Phase != PhaseDraining.String() {
				continue
			}
			ctrl, _ := sup.Controller(ps.PoP)
			if n := len(ctrl.Installed()); n != 0 {
				t.Fatalf("%s draining with %d overrides still installed", ps.PoP, n)
			}
			if !sup.Draining(ps.PoP) {
				t.Fatalf("%s in phase draining but supervisor not draining it", ps.PoP)
			}
			sawDrained[ps.PoP] = true
		}
		sup.RunCycleAll()
		rec.Step()
	}

	st := rec.Status()
	if st.Phase != "converged" {
		t.Fatalf("rollout ended %q: %+v", st.Phase, st.PoPs)
	}
	for _, name := range names {
		if !sawDrained[name] {
			t.Errorf("%s was never observed drained before its apply", name)
		}
		ctrl, _ := sup.Controller(name)
		if gen := ctrl.ConfigGeneration(); gen != 1 {
			t.Errorf("%s config generation = %d, want 1", name, gen)
		}
		if th := ctrl.EffectiveConfig().Threshold; th != 0.90 {
			t.Errorf("%s threshold = %v, want 0.90 applied", name, th)
		}
		if sup.Draining(name) {
			t.Errorf("%s still draining after rollout", name)
		}
	}
	// The fleet keeps operating under the new config: one more round and
	// every member is detouring again.
	sup.RunCycleAll()
	for _, name := range names {
		ctrl, _ := sup.Controller(name)
		if len(ctrl.Installed()) == 0 {
			t.Errorf("%s installed nothing after the rollout resumed it", name)
		}
	}
}

// TestReconcilerValidationRejectsWholeDocument: one invalid entry
// rejects the document before anything is drained or applied.
func TestReconcilerValidationRejectsWholeDocument(t *testing.T) {
	sup, rec, names := reconcileFleet(t)
	_, err := rec.SetDesired(FleetDesired{
		Default: &PoPConfigUpdate{Threshold: fptr(0.90)},
		PoPs: map[string]PoPConfigUpdate{
			"pop-b": {Threshold: fptr(2.5)}, // out of range
		},
	})
	if err == nil || !strings.Contains(err.Error(), "pop-b") {
		t.Fatalf("SetDesired = %v, want pop-b validation error", err)
	}
	if _, err := rec.SetDesired(FleetDesired{
		PoPs: map[string]PoPConfigUpdate{"no-such-pop": {Threshold: fptr(0.9)}},
	}); err == nil {
		t.Fatal("SetDesired accepted an unknown PoP")
	}
	if st := rec.Status(); st.Phase != "idle" || st.Generation != 0 {
		t.Fatalf("status after rejected documents = %+v, want untouched idle", st)
	}
	for _, name := range names {
		ctrl, _ := sup.Controller(name)
		if gen := ctrl.ConfigGeneration(); gen != 0 {
			t.Errorf("%s config generation = %d after rejected document", name, gen)
		}
	}
}

// TestReconcilerFailureStopsRollout: a PoP that cannot converge inside
// the round budget fails the rollout and the queue is abandoned — a bad
// config never marches across the fleet.
func TestReconcilerFailureStopsRollout(t *testing.T) {
	sup, _, names := reconcileFleet(t)
	rec := NewReconciler(sup, ReconcilerConfig{MaxRoundsPerPhase: 3})
	if _, err := rec.SetDesired(FleetDesired{
		Default: &PoPConfigUpdate{Threshold: fptr(0.90), Target: fptr(0.90)},
	}); err != nil {
		t.Fatal(err)
	}
	// Step without ever running cycles: the first PoP drains and applies
	// but its sequence never advances, so convergence times out.
	for i := 0; i < 20; i++ {
		rec.Step()
	}
	st := rec.Status()
	if st.Phase != "failed" {
		t.Fatalf("phase = %q, want failed: %+v", st.Phase, st.PoPs)
	}
	if st.PoPs[0].Phase != PhaseFailed.String() {
		t.Errorf("first pop phase = %q, want failed", st.PoPs[0].Phase)
	}
	for _, ps := range st.PoPs[1:] {
		if ps.Phase != PhasePending.String() {
			t.Errorf("%s phase = %q, want pending (rollout must stop at first failure)", ps.PoP, ps.Phase)
		}
	}
	if st.Pending != 0 {
		t.Errorf("pending = %d, want 0 (queue abandoned)", st.Pending)
	}
	// The failed PoP was resumed, not left paused forever.
	for _, name := range names {
		if sup.Draining(name) {
			t.Errorf("%s left draining after failed rollout", name)
		}
	}
}

// TestReconcilerReplacesInFlightRollout: a new desired document aborts
// the current rollout cleanly, resuming any paused member.
func TestReconcilerReplacesInFlightRollout(t *testing.T) {
	sup, rec, _ := reconcileFleet(t)
	if _, err := rec.SetDesired(FleetDesired{Default: &PoPConfigUpdate{Threshold: fptr(0.90), Target: fptr(0.90)}}); err != nil {
		t.Fatal(err)
	}
	rec.Step() // pop-a now draining (paused)
	if !sup.Draining("pop-a") {
		t.Fatal("pop-a not draining after first Step")
	}
	gen, err := rec.SetDesired(FleetDesired{Default: &PoPConfigUpdate{Threshold: fptr(0.85), Target: fptr(0.85)}})
	if err != nil || gen != 2 {
		t.Fatalf("second SetDesired = %d, %v", gen, err)
	}
	if sup.Draining("pop-a") {
		t.Fatal("pop-a still draining after plan replacement")
	}
	for round := 0; round < 100; round++ {
		if st := rec.Status(); st.Phase == "converged" || st.Phase == "failed" {
			break
		}
		sup.RunCycleAll()
		rec.Step()
	}
	if st := rec.Status(); st.Phase != "converged" {
		t.Fatalf("replacement rollout ended %q: %+v", st.Phase, st.PoPs)
	}
	ctrl, _ := sup.Controller("pop-c")
	if th := ctrl.EffectiveConfig().Threshold; th != 0.85 {
		t.Errorf("threshold = %v, want the replacement document's 0.85", th)
	}
}
