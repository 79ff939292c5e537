package exp

import (
	"fmt"
	"net/netip"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// ---------------------------------------------------------------------
// E11: fault matrix
// ---------------------------------------------------------------------
//
// E11 is the robustness counterpart of E6: instead of asking whether the
// controller avoids overload, it asks whether the controller stays *safe*
// when its own inputs die. It scripts four fault families against a PoP
// in sustained overload — total sFlow blackout, a BMP feed kill, an
// injected cycle panic, and an iBGP session reset — and records how the
// fail-static state machine responds and how quickly the PoP returns to
// the healthy steady state.

// FaultMatrixResult records one E11 run.
type FaultMatrixResult struct {
	// --- phase A: sFlow blackout mid-overload ---
	// FreezeCycles is the number of cycles from blackout to fail-static.
	FreezeCycles int
	// FrozenStable reports that the installed decision (prefixes, next
	// hops, interfaces, members and weights) never changed while frozen
	// (no withdrawals or re-weights on decayed demand).
	FrozenStable bool
	// FrozenOverrides is the size of the frozen set.
	FrozenOverrides int
	// FailBackCycles is the number of cycles from blackout to fail-back.
	FailBackCycles int
	// FailBackWithdrew reports that fail-back removed every override
	// from the controller and, after propagation, from the PoP table.
	FailBackWithdrew bool
	// TrafficRecoverCycles is the number of cycles from sFlow restore to
	// a healthy cycle.
	TrafficRecoverCycles int
	// ReDetourCycles is the number of cycles from restore until
	// overrides are re-established (overload persists throughout).
	ReDetourCycles int

	// --- phase B: BMP feed kill on one router ---
	// BMPDegraded reports that health degraded while the feed was dead.
	BMPDegraded bool
	// FlushedRoutes is how many routes the grace-period flush removed
	// from the controller's store.
	FlushedRoutes int
	// BMPReconnects is the feed's reconnect count after restore.
	BMPReconnects uint64
	// BMPResynced reports the store recovered the full route set after
	// the reconnect replay.
	BMPResynced bool
	// BMPRecoverCycles is the number of cycles from reconnect to a
	// healthy cycle.
	BMPRecoverCycles int

	// --- phase C: injected cycle panic ---
	// PanicCounted reports the edgefabric_cycle_panics_total increment.
	PanicCounted bool
	// PanicFroze reports that the panicking cycle produced a fail-static
	// report and held the installed decision through the hold.
	PanicFroze bool
	// PanicRecoverCycles is the number of cycles from the panic to a
	// healthy cycle.
	PanicRecoverCycles int

	// --- phase D: iBGP session reset ---
	// InjectionFlaps is the per-session flap count observed.
	InjectionFlaps uint64
	// Reannounced reports that the re-established session was re-fed the
	// installed set (overrides visible in the PoP table again).
	Reannounced bool

	// FinalState is the health state after the full matrix.
	FinalState core.HealthState
}

// countControllerRoutes counts controller-injected best routes in the
// PoP's ground-truth table.
func countControllerRoutes(p *netsim.PoP) int {
	n := 0
	p.Table.EachBest(func(_ netip.Prefix, r *rib.Route) {
		if r.PeerClass == rib.ClassController {
			n++
		}
	})
	return n
}

// stepCycles advances the harness until a controller cycle has run n
// times, returning the last report.
func stepCycles(h *Harness, n int) *core.CycleReport {
	var last *core.CycleReport
	for got := 0; got < n; {
		_, r := h.Step()
		if r != nil {
			last = r
			got++
		}
	}
	return last
}

// stepUntil advances cycle by cycle until pred holds or maxCycles pass,
// returning how many cycles ran and whether pred held.
func stepUntil(h *Harness, maxCycles int, pred func(*core.CycleReport) bool) (int, bool) {
	for i := 1; i <= maxCycles; i++ {
		r := stepCycles(h, 1)
		if pred(r) {
			return i, true
		}
	}
	return maxCycles, false
}

// waitWall polls cond on the wall clock (feed supervision and BGP
// redialing are wall-clock even though the simulation clock is virtual).
func waitWall(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// E11FaultMatrix runs the fault matrix against a controller-enabled
// harness in sustained overload. The harness must have been built with
// health thresholds that make staleness observable within a few cycles
// (see the E11 test for the reference configuration).
func E11FaultMatrix(h *Harness) (*FaultMatrixResult, error) {
	if h.Controller == nil {
		return nil, fmt.Errorf("exp: E11 needs ControllerEnabled")
	}
	res := &FaultMatrixResult{}
	health := h.Controller.Health()

	// Warm up into steady-state overload handling.
	_, ok := stepUntil(h, 15, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy && len(h.Controller.Installed()) > 0
	})
	if !ok {
		return nil, fmt.Errorf("exp: warmup never produced healthy overrides")
	}

	// ---- Phase A: total sFlow blackout mid-overload.
	installed := h.Controller.Installed()
	frozen := installedDecision(installed)
	res.FrozenOverrides = len(installed)
	h.Loss.Kill()
	res.FreezeCycles, ok = stepUntil(h, 4, func(r *core.CycleReport) bool {
		return r.Health == core.HealthFailStatic
	})
	if !ok {
		return res, fmt.Errorf("exp: blackout never reached fail-static")
	}
	// While frozen, the installed decision must not move (the demand
	// window is decaying under the controller; acting on it would
	// withdraw or re-weight detours exactly while blind).
	res.FrozenStable = installedDecision(h.Controller.Installed()) == frozen
	failBack, reachedFB := stepUntil(h, 8, func(r *core.CycleReport) bool {
		if r.Health == core.HealthFailStatic {
			res.FrozenStable = res.FrozenStable && installedDecision(h.Controller.Installed()) == frozen
		}
		return r.Health == core.HealthFailBack
	})
	if !reachedFB {
		return res, fmt.Errorf("exp: blackout never reached fail-back")
	}
	res.FailBackCycles = res.FreezeCycles + failBack
	res.FailBackWithdrew = len(h.Controller.Installed()) == 0 &&
		waitWall(5*time.Second, func() bool { return countControllerRoutes(h.PoP) == 0 })

	h.Loss.Restore()
	res.TrafficRecoverCycles, ok = stepUntil(h, 5, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy
	})
	if !ok {
		return res, fmt.Errorf("exp: traffic restore never recovered to healthy")
	}
	res.ReDetourCycles, ok = stepUntil(h, 10, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy && len(h.Controller.Installed()) > 0
	})
	if !ok {
		return res, fmt.Errorf("exp: overrides never re-established after restore")
	}

	// ---- Phase B: kill one router's BMP feed, flush, reconnect, re-sync.
	router := h.PoP.Routers()[0]
	before := h.Controller.Store().Table().RouteCount()
	h.PoP.KillBMP(router)
	// The stream dies on the wall clock; wait for the supervisor to see it
	// so the virtual down-clock starts before cycles advance.
	if !waitWall(5*time.Second, func() bool {
		ih := health.Evaluate()
		return ih.FeedsUp < ih.FeedsTotal
	}) {
		return res, fmt.Errorf("exp: killed BMP feed never went down")
	}
	_, ok = stepUntil(h, 8, func(r *core.CycleReport) bool {
		if r.Health == core.HealthDegraded {
			res.BMPDegraded = true
		}
		for _, f := range health.Feeds() {
			if f.Router == router && f.Flushed {
				return true
			}
		}
		return false
	})
	if !ok {
		return res, fmt.Errorf("exp: dead BMP feed was never flushed")
	}
	res.FlushedRoutes = before - h.Controller.Store().Table().RouteCount()

	h.PoP.RestoreBMP(router)
	if !waitWall(10*time.Second, func() bool {
		ih := health.Evaluate()
		return ih.FeedsUp == ih.FeedsTotal
	}) {
		return res, fmt.Errorf("exp: BMP feed never reconnected after restore")
	}
	for _, f := range health.Feeds() {
		if f.Router == router {
			res.BMPReconnects = f.Reconnects
		}
	}
	// The reconnect replay (Peer Up + table dump) must restore the store.
	res.BMPResynced = waitWall(5*time.Second, func() bool {
		return h.Controller.Store().Table().RouteCount() >= before
	})
	res.BMPRecoverCycles, ok = stepUntil(h, 5, func(r *core.CycleReport) bool {
		return r.Health == core.HealthHealthy
	})
	if !ok {
		return res, fmt.Errorf("exp: BMP reconnect never recovered to healthy")
	}

	// ---- Phase C: injected cycle panic.
	panicsBefore := h.Controller.Metrics().Counter("edgefabric_cycle_panics_total").Value()
	held := installedDecision(h.Controller.Installed())
	h.Controller.PanicNextCycle()
	r := stepCycles(h, 1)
	res.PanicCounted = h.Controller.Metrics().Counter("edgefabric_cycle_panics_total").Value() == panicsBefore+1
	res.PanicFroze = r.Health == core.HealthFailStatic && installedDecision(h.Controller.Installed()) == held
	res.PanicRecoverCycles, ok = stepUntil(h, 6, func(r *core.CycleReport) bool {
		if r.Health == core.HealthFailStatic {
			res.PanicFroze = res.PanicFroze && installedDecision(h.Controller.Installed()) == held
		}
		return r.Health == core.HealthHealthy
	})
	if !ok {
		return res, fmt.Errorf("exp: panic hold never released to healthy")
	}

	// ---- Phase D: iBGP session reset; the self-healing session redials
	// and is re-fed the installed set.
	addr := h.PoP.RouterIP(router)
	var flapsBefore uint64
	for _, s := range health.Sessions() {
		if s.Router == addr {
			flapsBefore = s.Flaps
		}
	}
	h.PoP.ResetInjection(router)
	// The drop propagates asynchronously: wait for the flap to register
	// before waiting for re-establishment, or the all-up check passes
	// vacuously.
	if !waitWall(10*time.Second, func() bool {
		for _, s := range health.Sessions() {
			if s.Router == addr && s.Flaps > flapsBefore {
				return true
			}
		}
		return false
	}) {
		return res, fmt.Errorf("exp: reset injection session never flapped")
	}
	if !waitWall(10*time.Second, func() bool {
		ih := health.Evaluate()
		return ih.SessionsUp == ih.SessionsTotal
	}) {
		return res, fmt.Errorf("exp: reset injection session never re-established")
	}
	for _, s := range health.Sessions() {
		if s.Router == addr {
			res.InjectionFlaps = s.Flaps - flapsBefore
		}
	}
	// The session drop withdrew the injected routes on that router (and,
	// in the sim's shared table, the PoP-wide entries); the re-establish
	// handler re-announces the installed set without waiting for a cycle.
	res.Reannounced = waitWall(5*time.Second, func() bool {
		return len(h.Controller.Installed()) == 0 || countControllerRoutes(h.PoP) > 0
	})
	stepCycles(h, 2)

	res.FinalState = health.Evaluate().State
	return res, nil
}
