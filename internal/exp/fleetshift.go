package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"edgefabric/internal/netsim"
)

// ---------------------------------------------------------------------
// E18: cross-PoP demand shifts
// ---------------------------------------------------------------------
//
// Edge Fabric is strictly per-PoP, but the demand it steers is not: when
// a region drops off one PoP (fiber cut, DNS steering away) or anycast
// re-homes a neighbor's users, load that vanished at one site reappears
// at others within a routing convergence. E18 reproduces that coupling
// with conserving demand-shift pairs — every byte drained from one PoP
// lands at the others — and validates two claims at fleet scale:
//
//  1. Hosting is behaviorally invisible under cross-PoP churn: a hosted
//     fleet member and its isolated twin, fed the same shift timeline,
//     make byte-identical steering decisions cycle for cycle.
//  2. Each receiving controller absorbs its share of the shifted demand
//     independently — demand measurably lands, the controller stays
//     healthy, and sustained drops do not appear while it has detour
//     room — with no cross-PoP coordination to lean on.
//
// Two episodes compose the timeline:
//
//	region-loss     PoP 1 (at its traffic peak) loses fraction f of its
//	                demand; every other PoP receives an equal share of
//	                the drained load (mult 1 + f·peak₁/Σ peakᵣ).
//	anycast-rehome  fraction g of PoP 2's users re-home onto PoP 3
//	                (from ×(1−g), to ×(1+g·peak₂/peak₃)); the rest of
//	                the fleet is untouched.

// FleetShiftConfig parameterizes an E18 run.
type FleetShiftConfig struct {
	// Base is the per-PoP harness config; ControllerEnabled is
	// required. Each member derives from Base as in fleetConfigs
	// (distinct seed, name, router block, peaks shiftPeakSpreadH
	// apart).
	Base HarnessConfig
	// PoPs is the fleet size. Default 4, minimum 3 (a loss PoP plus at
	// least two receivers; the re-homing pair needs a bystander to
	// prove non-receivers are untouched).
	PoPs int
	// EpisodeLen is each episode's duration. Default 20m. The timeline
	// around the episodes scales with it: an event-free lead-in of a
	// quarter episode establishing each PoP's demand baseline, a
	// quarter-episode gap between the two episodes, and a half-episode
	// event-free run-out.
	EpisodeLen time.Duration
}

// The E18 episodes' fixed shape and pass bounds.
const (
	// shiftPeakSpreadH is the hours between consecutive members' demand
	// peaks.
	shiftPeakSpreadH = 2
	// shiftLossFrac is the fraction of PoP 1's demand the region-loss
	// episode drains.
	shiftLossFrac = 0.6
	// shiftRehomeFrac is the fraction of PoP 2's demand the re-homing
	// episode lands on PoP 3.
	shiftRehomeFrac = 0.5
	// shiftDropBound is the worst per-tick ground-truth drop fraction a
	// receiving PoP may show inside its shift window once the
	// absorption grace has passed.
	shiftDropBound = 0.02
	// shiftAbsorbGraceTicks is how many ticks after a shift lands the
	// receiver gets to react before drops count against shiftDropBound
	// — the re-homed load arrives all at once, and the controller
	// needs sFlow windows plus a cycle or two of control lag to chase
	// it.
	shiftAbsorbGraceTicks = 6
)

func (c *FleetShiftConfig) setDefaults() {
	if c.PoPs == 0 {
		c.PoPs = 4
	}
	if c.EpisodeLen == 0 {
		c.EpisodeLen = 20 * time.Minute
	}
}

// ShiftPoPRow is one PoP's outcome inside one episode window.
type ShiftPoPRow struct {
	PoP string
	// Mult is the scheduled demand multiplier (1 = bystander).
	Mult float64
	// DemandRatio is mean in-window demand over the PoP's baseline.
	DemandRatio float64
	// WorstDropFrac is the worst per-tick drop fraction anywhere in
	// the window, including the reaction-lag spike as the load lands.
	WorstDropFrac float64
	// SustainedDropFrac is the worst per-tick drop fraction after the
	// absorption grace — what the PoP kept dropping once the
	// controller had time to react. This is what Pass gates on.
	SustainedDropFrac float64
	// PeakDetourFrac is the highest per-cycle detoured share in the
	// window (how hard the controller worked to absorb).
	PeakDetourFrac float64
	// Healthy reports every in-window cycle stayed at HealthHealthy.
	Healthy bool
}

// ShiftEpisode is one episode's across-PoPs outcome.
type ShiftEpisode struct {
	Kind string
	Rows []ShiftPoPRow
}

// FleetShiftResult records one E18 run.
type FleetShiftResult struct {
	PoPs   int
	Cycles int
	// TwinCheck counts the hosted-vs-isolated decision comparisons;
	// equal IdenticalCycles and ComparedCycles mean hosting is
	// invisible under cross-PoP churn.
	TwinCheck
	// Episodes are the two shift episodes' outcomes.
	Episodes []ShiftEpisode
}

// shiftPlan is one scheduled episode in tick coordinates.
type shiftPlan struct {
	kind  string
	mults []float64     // per-PoP multiplier, 1 = untouched
	at    time.Duration // offset from run start
	from  int           // first tick inside the window
	to    int           // first tick past the window
}

// E18FleetShift builds the same fleet twice — hosted (one process, one
// sFlow demux, one supervisor) and isolated — attaches identical
// conserving demand-shift timelines to each twin pair, steps both in
// lockstep comparing steering decisions, and measures whether every
// receiving PoP absorbed its share.
func E18FleetShift(ctx context.Context, cfg FleetShiftConfig) (*FleetShiftResult, error) {
	cfg.setDefaults()
	if !cfg.Base.ControllerEnabled {
		return nil, fmt.Errorf("exp: E18 needs ControllerEnabled")
	}
	if cfg.PoPs < 3 {
		return nil, fmt.Errorf("exp: E18 needs at least 3 PoPs, got %d", cfg.PoPs)
	}
	host, iso, err := newTwinFleets(ctx, fleetConfigs(cfg.Base, cfg.PoPs, shiftPeakSpreadH))
	if err != nil {
		return nil, fmt.Errorf("exp: E18 %w", err)
	}
	defer host.Close()
	defer iso.Close()

	tickLen := host.PoPs[0].Cfg.TickLen
	ticksOf := func(d time.Duration) int { return int(d / tickLen) }
	n := cfg.PoPs

	// Conserving multipliers. The members derive from one Base, so their
	// demand peaks are equal and the drained load splits evenly: a
	// region-loss of fraction f at PoP 1 sends f/(n-1) of a peak to each
	// receiver; a re-homing of fraction g from PoP 2 lands ×(1+g) on
	// PoP 3.
	lossMults := make([]float64, n)
	rehomeMults := make([]float64, n)
	for i := range lossMults {
		lossMults[i] = 1 + shiftLossFrac/float64(n-1)
		rehomeMults[i] = 1
	}
	lossMults[0] = 1 - shiftLossFrac
	rehomeMults[1] = 1 - shiftRehomeFrac
	rehomeMults[2] = 1 + shiftRehomeFrac

	quiet, gap, tail := cfg.EpisodeLen/4, cfg.EpisodeLen/4, cfg.EpisodeLen/2
	lossAt := quiet
	rehomeAt := quiet + cfg.EpisodeLen + gap
	total := rehomeAt + cfg.EpisodeLen + tail
	plans := []shiftPlan{
		{kind: "region-loss", mults: lossMults, at: lossAt,
			from: ticksOf(lossAt), to: ticksOf(lossAt + cfg.EpisodeLen)},
		{kind: "anycast-rehome", mults: rehomeMults, at: rehomeAt,
			from: ticksOf(rehomeAt), to: ticksOf(rehomeAt + cfg.EpisodeLen)},
	}

	// Attach the identical per-PoP timeline to both twins.
	for i := 0; i < n; i++ {
		var events []netsim.Event
		for _, p := range plans {
			if p.mults[i] == 1 {
				continue
			}
			events = append(events, netsim.Event{
				Kind:      netsim.EventDemandShift,
				At:        p.at,
				Duration:  cfg.EpisodeLen,
				Magnitude: p.mults[i],
			})
		}
		if err := host.PoPs[i].AttachEvents(events); err != nil {
			return nil, err
		}
		if err := iso.PoPs[i].AttachEvents(events); err != nil {
			return nil, err
		}
	}

	res := &FleetShiftResult{PoPs: n}
	// Each PoP's hosted member is tallied over the ticks outside both
	// windows (its demand baseline), over each window, and over each
	// window past the absorption grace.
	base := make([]tally, n)
	win, late := make([][]tally, len(plans)), make([][]tally, len(plans))
	for w := range plans {
		win[w], late[w] = make([]tally, n), make([]tally, n)
	}
	inWindow := func(t int) int {
		for pi, p := range plans {
			if t >= p.from && t < p.to {
				return pi
			}
		}
		return -1
	}

	ticks := ticksOf(total)
	res.Cycles = ticks
	for t := 0; t < ticks; t++ {
		w := inWindow(t)
		for i := 0; i < n; i++ {
			h := host.PoPs[i]
			hs, hr := res.step(h, iso.PoPs[i], t)
			if w < 0 {
				base[i].add(h.Scenario, hs, hr)
				continue
			}
			win[w][i].add(h.Scenario, hs, hr)
			if t-plans[w].from >= shiftAbsorbGraceTicks {
				late[w][i].add(h.Scenario, hs, hr)
			}
		}
	}

	for w, p := range plans {
		ep := ShiftEpisode{Kind: p.kind}
		for i := 0; i < n; i++ {
			in := &win[w][i]
			row := ShiftPoPRow{
				PoP:               host.PoPs[i].Scenario.Topo.Name,
				Mult:              p.mults[i],
				WorstDropFrac:     in.peakDropFrac,
				SustainedDropFrac: late[w][i].peakDropFrac,
				PeakDetourFrac:    in.peakDetour,
				Healthy:           in.unhealthy == 0,
			}
			if b := base[i].meanDemand(); b > 0 && in.ticks > 0 {
				row.DemandRatio = in.meanDemand() / b
			}
			ep.Rows = append(ep.Rows, row)
		}
		res.Episodes = append(res.Episodes, ep)
	}
	return res, nil
}

// Pass reports whether the run upholds E18's claims: every compared
// cycle byte-identical between the twins, every shifted PoP's demand
// actually moved (at least half the scheduled shift, leaving room for
// diurnal drift under the staggered peaks), every receiver absorbed its
// share without sustained drops, and every controller stayed healthy
// throughout its windows.
func (r *FleetShiftResult) Pass() bool {
	if r.ComparedCycles == 0 || r.IdenticalCycles != r.ComparedCycles {
		return false
	}
	for _, ep := range r.Episodes {
		for _, row := range ep.Rows {
			if !row.Healthy {
				return false
			}
			switch {
			case row.Mult > 1:
				if row.DemandRatio < 1+0.5*(row.Mult-1) {
					return false
				}
				if row.SustainedDropFrac > shiftDropBound {
					return false
				}
			case row.Mult < 1:
				if row.DemandRatio > 1-0.5*(1-row.Mult) {
					return false
				}
			}
		}
	}
	return true
}

// String renders the E18 outcome.
func (r *FleetShiftResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E18: %d-PoP cross-PoP shifts over %d ticks: %d/%d cycles identical (%d override decisions)\n",
		r.PoPs, r.Cycles, r.IdenticalCycles, r.ComparedCycles, r.OverridesSeen)
	if r.FirstMismatch != "" {
		fmt.Fprintf(&b, "  first mismatch: %s\n", r.FirstMismatch)
	}
	for _, ep := range r.Episodes {
		fmt.Fprintf(&b, "  %s:\n", ep.Kind)
		fmt.Fprintf(&b, "    %-10s %6s %8s %10s %10s %8s %8s\n",
			"pop", "mult", "demand", "worst drop", "sustained", "detour", "healthy")
		for _, row := range ep.Rows {
			fmt.Fprintf(&b, "    %-10s %5.2fx %7.2fx %9.3f%% %9.3f%% %7.1f%% %8v\n",
				row.PoP, row.Mult, row.DemandRatio, 100*row.WorstDropFrac,
				100*row.SustainedDropFrac, 100*row.PeakDetourFrac, row.Healthy)
		}
	}
	if r.Pass() {
		fmt.Fprintf(&b, "  PASS: shifts absorbed independently, hosting invisible\n")
	} else {
		fmt.Fprintf(&b, "  FAIL\n")
	}
	return b.String()
}
