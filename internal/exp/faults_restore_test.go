package exp

import (
	"slices"
	"sync"
	"testing"
	"time"

	"edgefabric/internal/core"
)

// Restore-path coverage for the netsim fault surface (faults.go): the
// E11 matrix proves each fault family once, these tests pin the
// restore/replay edge cases chaos composition hits — repeated kills,
// resets racing a Sync, and degraded-to-dead sFlow scripted via the
// loss rate rather than the kill switch.

// restoreTestHarness builds a controller-enabled harness with the E11
// health ladder and warms it into healthy steady-state overload.
func restoreTestHarness(t *testing.T) *Harness {
	t.Helper()
	h := newTestHarness(t, soakTestConfig())
	if _, ok := stepUntil(h, 15, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy && len(h.Controller.Installed()) > 0
	}); !ok {
		t.Fatal("warmup never produced healthy overrides")
	}
	return h
}

// TestDoubleKillBMPRestore kills the same router's BMP stream twice
// before restoring: the second kill must be idempotent (no panic on the
// already-closed conn, no stuck dialer), and the restore's redial must
// replay Peer Up + a full table dump so the store recovers every route.
func TestDoubleKillBMPRestore(t *testing.T) {
	h := restoreTestHarness(t)
	router := h.PoP.Routers()[0]
	health := h.Controller.Health()
	before := h.Controller.Store().Table().RouteCount()

	h.PoP.KillBMP(router)
	h.PoP.KillBMP(router) // double kill: must be a no-op, not a crash
	if !waitWall(5*time.Second, func() bool {
		ih := health.Evaluate()
		return ih.FeedsUp < ih.FeedsTotal
	}) {
		t.Fatal("killed BMP feed never went down")
	}
	// Step past the flush grace so restore has real work to redo.
	if _, ok := stepUntil(h, 8, func(*core.CycleReport) bool {
		for _, f := range health.Feeds() {
			if f.Router == router && f.Flushed {
				return true
			}
		}
		return false
	}); !ok {
		t.Fatal("dead BMP feed was never flushed")
	}
	if got := h.Controller.Store().Table().RouteCount(); got >= before {
		t.Fatalf("flush removed nothing: %d routes, had %d", got, before)
	}

	h.PoP.RestoreBMP(router)
	if !waitWall(10*time.Second, func() bool {
		ih := health.Evaluate()
		return ih.FeedsUp == ih.FeedsTotal
	}) {
		t.Fatal("BMP feed never reconnected after double kill + restore")
	}
	if !waitWall(5*time.Second, func() bool {
		return h.Controller.Store().Table().RouteCount() >= before
	}) {
		t.Fatalf("replay recovered %d routes, want %d",
			h.Controller.Store().Table().RouteCount(), before)
	}
	if _, ok := stepUntil(h, 6, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy
	}); !ok {
		t.Fatal("never recovered to healthy after restore")
	}
}

// TestResetInjectionDuringSync flaps the controller's iBGP session
// repeatedly while cycles (and therefore injector Syncs) run
// concurrently. Under -race this pins the injector's locking: a Sync
// racing a session teardown must neither corrupt delivery state nor
// wedge; afterwards the self-healing dialer re-establishes and the
// installed set is re-announced.
func TestResetInjectionDuringSync(t *testing.T) {
	h := restoreTestHarness(t)
	router := h.PoP.Routers()[0]
	health := h.Controller.Health()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				h.PoP.ResetInjection(router)
			}
		}
	}()
	// Each Step runs a cycle whose Sync races the resets above.
	for i := 0; i < 8; i++ {
		h.Step()
	}
	close(stop)
	wg.Wait()

	if !waitWall(10*time.Second, func() bool {
		ih := health.Evaluate()
		return ih.SessionsUp == ih.SessionsTotal
	}) {
		t.Fatal("injection session never re-established after reset storm")
	}
	if _, ok := stepUntil(h, 10, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy && len(h.Controller.Installed()) > 0
	}); !ok {
		t.Fatal("overrides never re-established after reset storm")
	}
	if !waitWall(5*time.Second, func() bool { return countControllerRoutes(h.PoP) > 0 }) {
		t.Fatal("re-announced overrides never reached the PoP table")
	}
}

// TestLossySinkFullLossRate scripts total sFlow loss through
// SetLossRate(1.0) — the degraded-collection path, not the Kill
// switch — and requires the same fail-static staircase: stale traffic
// freezes the installed set, prolonged silence withdraws it, restore
// recovers. The two paths share the ladder but not the code that
// drops the datagrams.
func TestLossySinkFullLossRate(t *testing.T) {
	h := restoreTestHarness(t)
	frozen := make(map[string]bool)
	for p := range h.Controller.Installed() {
		frozen[p.String()] = true
	}
	droppedBefore := h.Loss.Dropped()

	h.Loss.SetLossRate(1.0)
	if _, ok := stepUntil(h, 6, func(r *core.CycleReport) bool {
		return r.Health == core.HealthFailStatic
	}); !ok {
		t.Fatal("100% loss rate never reached fail-static")
	}
	if h.Loss.Dropped() == droppedBefore {
		t.Error("loss rate 1.0 dropped no datagrams")
	}
	// Frozen means frozen: the installed set must match the pre-fault
	// snapshot exactly.
	inst := h.Controller.Installed()
	if len(inst) != len(frozen) {
		t.Errorf("frozen set moved: %d overrides, had %d", len(inst), len(frozen))
	}
	for p := range inst {
		if !frozen[p.String()] {
			t.Errorf("override %s appeared while frozen", p)
		}
	}
	if _, ok := stepUntil(h, 10, func(r *core.CycleReport) bool {
		return r.Health == core.HealthFailBack
	}); !ok {
		t.Fatal("prolonged 100% loss never reached fail-back")
	}
	if n := len(h.Controller.Installed()); n != 0 {
		t.Errorf("fail-back left %d overrides installed", n)
	}

	h.Loss.SetLossRate(0)
	if _, ok := stepUntil(h, 8, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy
	}); !ok {
		t.Fatal("never recovered to healthy after loss rate reset")
	}
}

// TestFailBackRecoveryRespectsMoveBudget: a fail-back withdraws every
// weighted set, so the optimizer's hysteresis must not treat them as
// still installed when inputs return. Every recovery cycle may add at
// most MaxMoves new or changed sets, however many were installed before
// the fault.
func TestFailBackRecoveryRespectsMoveBudget(t *testing.T) {
	const maxMoves = 2
	cfg := perfAwareTestConfig()
	cfg.Multipath = true
	cfg.MultipathCfg.MaxMoves = maxMoves
	cfg.Health = soakTestConfig().Health
	h := newTestHarness(t, cfg)
	sets := func() int {
		n := 0
		for _, o := range h.Controller.Installed() {
			if len(o.Multipath) > 0 {
				n++
			}
		}
		return n
	}
	if _, ok := stepUntil(h, 40, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy && sets() >= 5*maxMoves
	}); !ok {
		t.Fatalf("warmup installed only %d weighted sets", sets())
	}
	before := sets()

	h.Loss.Kill()
	if _, ok := stepUntil(h, 10, func(r *core.CycleReport) bool {
		return r.Health == core.HealthFailBack
	}); !ok {
		t.Fatal("sFlow silence never reached fail-back")
	}
	if n := len(h.Controller.Installed()); n != 0 {
		t.Fatalf("fail-back left %d overrides installed", n)
	}
	h.Loss.Restore()

	added := 0
	for cycle := 1; cycle <= 12; cycle++ {
		pre := h.Controller.Installed()
		r := stepCycles(h, 1)
		if r.Health != core.HealthHealthy {
			continue
		}
		fresh := 0
		for _, o := range r.Overrides {
			if len(o.Multipath) > 0 && !sameWeightedSet(pre[o.Prefix], o) {
				fresh++
			}
		}
		if fresh > maxMoves {
			t.Errorf("recovery cycle %d installed %d new weighted sets, MaxMoves is %d (%d were installed before the fault)",
				cycle, fresh, maxMoves, before)
		}
		added += fresh
	}
	if added <= maxMoves {
		t.Fatalf("recovery re-installed %d weighted sets over 12 cycles; the budget never bound", added)
	}
}

// sameWeightedSet reports whether two overrides carry the same weighted
// members (next hops and weights, in order).
func sameWeightedSet(a, b core.Override) bool {
	return slices.EqualFunc(a.Multipath, b.Multipath, func(x, y core.PathWeight) bool {
		return x.Via.NextHop == y.Via.NextHop && x.WeightPct == y.WeightPct
	})
}
