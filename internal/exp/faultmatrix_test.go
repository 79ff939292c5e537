package exp

import (
	"testing"
	"time"

	"edgefabric/internal/core"
)

// TestE11FaultMatrix drives the scripted fault matrix: sFlow blackout,
// BMP feed kill + reconnect, injected cycle panic, and iBGP session
// reset — asserting the controller freezes instead of withdrawing on
// decayed demand, fails back past the second threshold, self-heals its
// feeds, and returns to the healthy steady state within bounded cycles.
func TestE11FaultMatrix(t *testing.T) {
	cfg := testConfig(true)
	// Thresholds scaled for a fast test: the steady-state traffic age is
	// exactly one 30 s cycle, so 45 s flags the first blind cycle;
	// fail-back follows 150 s (five cycles) into the blackout; a dead BMP
	// feed's routes flush after 90 s (three cycles).
	cfg.Health = core.HealthConfig{
		TrafficStaleAfter: 45 * time.Second,
		TrafficFailAfter:  150 * time.Second,
		BMPFlushAfter:     90 * time.Second,
	}
	h := newTestHarness(t, cfg)

	res, err := E11FaultMatrix(h)
	if err != nil {
		t.Fatalf("fault matrix aborted: %v (result so far: %+v)", err, res)
	}

	// Phase A: freeze, not withdraw, then fail back, then recover.
	if res.FrozenOverrides == 0 {
		t.Fatal("warmup installed no overrides; blackout phase proved nothing")
	}
	if res.FreezeCycles > 2 {
		t.Errorf("fail-static took %d cycles after blackout, want <= 2", res.FreezeCycles)
	}
	if !res.FrozenStable {
		t.Error("installed overrides changed while fail-static (withdrawn on decayed demand)")
	}
	if !res.FailBackWithdrew {
		t.Error("fail-back did not withdraw every override from the PoP")
	}
	if res.TrafficRecoverCycles > 3 {
		t.Errorf("healthy took %d cycles after sFlow restore, want <= 3", res.TrafficRecoverCycles)
	}
	if res.ReDetourCycles > 10 {
		t.Errorf("overrides took %d cycles to re-establish, want <= 10", res.ReDetourCycles)
	}

	// Phase B: degrade, flush after grace, reconnect with backoff, re-sync.
	if !res.BMPDegraded {
		t.Error("health never degraded while a BMP feed was dead")
	}
	if res.FlushedRoutes <= 0 {
		t.Errorf("grace-period flush removed %d routes, want > 0", res.FlushedRoutes)
	}
	if res.BMPReconnects == 0 {
		t.Error("killed BMP feed never counted a reconnect")
	}
	if !res.BMPResynced {
		t.Error("route store did not recover the full route set after BMP re-sync")
	}
	if res.BMPRecoverCycles > 3 {
		t.Errorf("healthy took %d cycles after BMP reconnect, want <= 3", res.BMPRecoverCycles)
	}

	// Phase C: panic recovered, counted, frozen through the hold.
	if !res.PanicCounted {
		t.Error("cycle panic was not counted in edgefabric_cycle_panics_total")
	}
	if !res.PanicFroze {
		t.Error("cycle panic did not freeze the installed override set")
	}
	if res.PanicRecoverCycles > 4 {
		t.Errorf("healthy took %d cycles after panic, want <= 4 (hold is 3)", res.PanicRecoverCycles)
	}

	// Phase D: session reset self-heals and re-announces.
	if res.InjectionFlaps == 0 {
		t.Error("injection session reset never counted a flap")
	}
	if !res.Reannounced {
		t.Error("re-established session was not re-fed the installed overrides")
	}

	if res.FinalState != core.HealthHealthy {
		t.Errorf("final health = %v, want healthy", res.FinalState)
	}
	t.Logf("E11: %+v", res)
}
