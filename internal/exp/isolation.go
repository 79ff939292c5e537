package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
)

// ---------------------------------------------------------------------
// E13: fleet-host isolation
// ---------------------------------------------------------------------
//
// E13 validates the fleet host's two core claims. First, hosting N
// controllers in one process is *behaviorally invisible*: a fleet-host
// member and the same PoP run as an isolated process make identical
// steering decisions cycle for cycle, even though the host's sFlow
// samples all pass through one shared demux. Second, the members are
// *fault-isolated*: a total BMP outage at one PoP drives only that PoP
// down the fail-static ladder while every sibling keeps allocating,
// healthy — there is no shared health state to poison.

// FleetIsolationResult records one E13 run.
type FleetIsolationResult struct {
	// PoPs is the fleet size.
	PoPs int
	// TwinCheck counts the (pop, cycle) decisions compared against the
	// isolated twin: PoPs times the compared cycles, all identical when
	// hosting is behaviorally invisible.
	TwinCheck

	// Victim is the PoP whose BMP feeds were killed.
	Victim string
	// VictimState is the victim's health state at the end of the outage.
	VictimState core.HealthState
	// VictimFroze reports the victim reached fail-static and held its
	// installed override set frozen through the outage.
	VictimFroze bool
	// SiblingStates maps each untouched PoP to its state during the
	// outage.
	SiblingStates map[string]core.HealthState
	// SiblingsHealthy reports every untouched PoP stayed healthy and
	// kept completing cycles.
	SiblingsHealthy bool
	// FleetState is the /v1/fleet/health rollup state during the outage
	// (worst member wins, so "fail-static" — while each sibling's own
	// row stays "healthy").
	FleetState string
}

// fleetHealthRollup queries the host's /v1/fleet/health endpoint and
// returns the rollup state plus each PoP's row state.
func fleetHealthRollup(srv *api.Server) (string, map[string]string, error) {
	const path = "/v1/fleet/health?limit=1024"
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		return "", nil, fmt.Errorf("exp: %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var env struct {
		Data struct {
			State string `json:"state"`
			Page  struct {
				Items []api.FleetPoPDigest `json:"items"`
				Total int                  `json:"total"`
			} `json:"page"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		return "", nil, err
	}
	if n := len(env.Data.Page.Items); n != env.Data.Page.Total {
		return "", nil, fmt.Errorf("exp: %s returned %d of %d PoPs", path, n, env.Data.Page.Total)
	}
	rows := make(map[string]string, len(env.Data.Page.Items))
	for _, p := range env.Data.Page.Items {
		rows[p.PoP] = p.State
	}
	return env.Data.State, rows, nil
}

// E13FleetIsolation runs the experiment: build the same fleet twice —
// once hosted (shared process, shared sFlow demux) and once as isolated
// per-PoP harnesses — step both in lockstep comparing decisions for
// compareCycles, then kill every BMP feed of the hosted fleet's first
// PoP and run outageCycles more, asserting the blast radius is one PoP.
// cfgs are the members' configs (fleetConfigs).
func E13FleetIsolation(ctx context.Context, cfgs []HarnessConfig, compareCycles, outageCycles int) (*FleetIsolationResult, error) {
	if len(cfgs) < 2 || !cfgs[0].ControllerEnabled {
		return nil, fmt.Errorf("exp: E13 needs two or more controller-enabled PoPs")
	}
	host, iso, err := newTwinFleets(ctx, cfgs)
	if err != nil {
		return nil, fmt.Errorf("exp: E13 %w", err)
	}
	defer host.Close()
	defer iso.Close()

	res := &FleetIsolationResult{
		PoPs:          len(host.PoPs),
		SiblingStates: map[string]core.HealthState{},
	}

	// Phase 1: lockstep decision equivalence, hosted vs isolated.
	for cyc := 1; cyc <= compareCycles; cyc++ {
		res.step(host, iso, cyc)
	}

	// Phase 2: total BMP outage at PoP 0 of the hosted fleet.
	victim := host.PoPs[0]
	res.Victim = victim.Scenario.Topo.Name
	for _, router := range victim.PoP.Routers() {
		victim.PoP.KillBMP(router)
	}
	// The ladder takes RoutesStaleAfter to reach fail-static, and the
	// victim may legitimately re-decide during those first blind-but-
	// not-yet-stale cycles; the freeze property is that the installed
	// decision is unchanged from the first fail-static cycle onward.
	var frozen core.OverrideSet
	sawFailStatic, held := false, true
	siblingsCycled := true
	for cyc := 0; cyc < outageCycles; cyc++ {
		_, reports := host.Step()
		for i, h := range host.PoPs {
			r := reports[i]
			if i == 0 {
				if r != nil && r.Health == core.HealthFailStatic {
					k := h.Controller.Installed()
					if !sawFailStatic {
						sawFailStatic, frozen = true, k
					} else if !k.Equal(frozen) {
						held = false
					}
				}
				continue
			}
			name := h.Scenario.Topo.Name
			st := h.Controller.Health().Evaluate().State
			if prev, ok := res.SiblingStates[name]; !ok || st > prev {
				res.SiblingStates[name] = st
			}
			if r == nil || r.Health != core.HealthHealthy {
				siblingsCycled = false
			}
		}
	}
	res.VictimFroze = sawFailStatic && held
	res.VictimState = victim.Controller.Health().Evaluate().State
	res.SiblingsHealthy = siblingsCycled
	for _, st := range res.SiblingStates {
		if st != core.HealthHealthy {
			res.SiblingsHealthy = false
		}
	}

	// The API rollup must tell the same story: fleet state = worst
	// member, sibling rows healthy.
	state, rows, err := fleetHealthRollup(host.API)
	if err != nil {
		return res, err
	}
	res.FleetState = state
	for name := range res.SiblingStates {
		if rows[name] != core.HealthHealthy.String() {
			res.SiblingsHealthy = false
		}
	}
	return res, nil
}

// String renders the E13 outcome.
func (r *FleetIsolationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13: %d-PoP fleet host vs isolated: %d/%d cycles identical (%d override decisions)\n",
		r.PoPs, r.IdenticalCycles, r.ComparedCycles, r.OverridesSeen)
	if r.FirstMismatch != "" {
		fmt.Fprintf(&b, "  first mismatch: %s\n", r.FirstMismatch)
	}
	fmt.Fprintf(&b, "  BMP outage at %s: victim %s (froze=%v), fleet rollup %s\n",
		r.Victim, r.VictimState, r.VictimFroze, r.FleetState)
	names := make([]string, 0, len(r.SiblingStates))
	for n := range r.SiblingStates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  sibling %s: %s\n", n, r.SiblingStates[n])
	}
	return b.String()
}
