package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
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
	// CyclesCompared is how many lockstep cycles were diffed per PoP.
	CyclesCompared int
	// IdenticalCycles counts (pop, cycle) pairs whose override decisions
	// matched the isolated twin exactly; equal to PoPs*CyclesCompared
	// when hosting is behaviorally invisible.
	IdenticalCycles int
	// FirstMismatch describes the first decision divergence (empty when
	// none).
	FirstMismatch string
	// OverridesSeen counts override decisions compared, to prove the
	// equivalence was not vacuous.
	OverridesSeen int

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

// decisionKey canonicalizes one cycle's override set for comparison:
// prefix, next hop, and target interface — the complete steering
// decision — sorted into one string.
func decisionKey(overrides []core.Override) string {
	keys := make([]string, 0, len(overrides))
	for _, o := range overrides {
		nh := netip.Addr{}
		if o.Via != nil {
			nh = o.Via.NextHop
		}
		keys = append(keys, fmt.Sprintf("%s>%s@if%d", o.Prefix, nh, o.ToIF))
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
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
func E13FleetIsolation(ctx context.Context, cfg FleetConfig, compareCycles, outageCycles int) (*FleetIsolationResult, error) {
	if !cfg.Base.ControllerEnabled {
		return nil, fmt.Errorf("exp: E13 needs ControllerEnabled")
	}
	host, err := NewFleetHost(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: E13 host fleet: %w", err)
	}
	defer host.Close()
	iso, err := NewFleet(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: E13 isolated fleet: %w", err)
	}
	defer iso.Close()

	res := &FleetIsolationResult{
		PoPs:           len(host.PoPs),
		CyclesCompared: compareCycles,
		SiblingStates:  map[string]core.HealthState{},
	}

	// Phase 1: lockstep decision equivalence, hosted vs isolated.
	for cyc := 1; cyc <= compareCycles; cyc++ {
		for i := range host.PoPs {
			hr := stepCycles(host.PoPs[i], 1)
			ir := stepCycles(iso.PoPs[i], 1)
			res.OverridesSeen += len(hr.Overrides)
			hk, ik := decisionKey(hr.Overrides), decisionKey(ir.Overrides)
			if hk == ik {
				res.IdenticalCycles++
			} else if res.FirstMismatch == "" {
				res.FirstMismatch = fmt.Sprintf("%s cycle %d: hosted {%s} vs isolated {%s}",
					host.PoPs[i].Scenario.Topo.Name, cyc, hk, ik)
			}
		}
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
	// set is byte-stable from the first fail-static cycle onward.
	var frozen string
	sawFailStatic, held := false, true
	siblingsCycled := true
	for cyc := 0; cyc < outageCycles; cyc++ {
		for i, h := range host.PoPs {
			r := stepCycles(h, 1)
			if i == 0 {
				if r != nil && r.Health == core.HealthFailStatic {
					k := decisionKey(installedOverrides(h.Controller))
					if !sawFailStatic {
						sawFailStatic, frozen = true, k
					} else if k != frozen {
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

// installedOverrides flattens the controller's installed map for
// decisionKey.
func installedOverrides(c *core.Controller) []core.Override {
	m := c.Installed()
	out := make([]core.Override, 0, len(m))
	for _, o := range m {
		out = append(out, o)
	}
	return out
}

// String renders the E13 outcome.
func (r *FleetIsolationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13: %d-PoP fleet host vs isolated: %d/%d cycles identical (%d override decisions)\n",
		r.PoPs, r.IdenticalCycles, r.PoPs*r.CyclesCompared, r.OverridesSeen)
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
