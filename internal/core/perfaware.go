package core

import (
	"fmt"
	"net/netip"
	"sort"

	"edgefabric/internal/altpath"
)

// PerfConfig parameterizes performance-aware overrides (the paper's §6
// extension: use alternate-path measurements to steer prefixes whose
// BGP-preferred path is measurably slower).
type PerfConfig struct {
	// MinGainMS is the median-RTT improvement an alternate must show
	// before the controller steers onto it. Default 20 (the paper's
	// reporting threshold).
	MinGainMS float64
	// MinSamples is the minimum sample count on both paths. Default 16.
	MinSamples int
	// MaxMoves caps performance overrides per cycle (0 = unlimited).
	MaxMoves int
}

func (c *PerfConfig) setDefaults() {
	if c.MinGainMS == 0 {
		c.MinGainMS = 20
	}
	if c.MinSamples == 0 {
		c.MinSamples = 16
	}
}

// PerfAllocateTraced turns alternate-path measurements into overrides
// for prefixes whose best alternate is at least MinGainMS faster than
// the BGP-preferred path, subject to the same capacity discipline as the
// overload allocator: a move is only made if it keeps the target
// interface at or below the allocator target utilization given the
// current projection plus any moves already accepted (including the
// overload overrides passed in as prior).
//
// Overload mitigation takes precedence: prefixes already moved by prior
// are skipped, and capacity consumed by prior moves is accounted.
//
// When tr is non-nil, every report the pass evaluates gets a trace
// record with per-candidate rejection reasons. A nil tr records nothing
// and keeps the sorted-loop early exit.
func PerfAllocateTraced(
	proj *Projection,
	inv *Inventory,
	reports []*altpath.PrefixReport,
	prior *AllocResult,
	alloc AllocatorConfig,
	cfg PerfConfig,
	tr *CycleTrace,
) []Override {
	cfg.setDefaults()
	alloc.setDefaults()

	load := make(map[int]float64, len(proj.IfLoadBps))
	for id, bps := range proj.IfLoadBps {
		load[id] = bps
	}
	movedAlready := make(map[netip.Prefix]bool)
	if prior != nil {
		for _, o := range prior.Overrides {
			load[o.FromIF] -= o.RateBps
			load[o.ToIF] += o.RateBps
			movedAlready[o.Prefix] = true
			// A split detour keys the more-specific half; mark the
			// aggregate too, or the perf pass re-moves the whole prefix
			// on top of the halves' accounting.
			if o.SplitOf.IsValid() {
				movedAlready[o.SplitOf] = true
			}
		}
	}

	// Biggest measured gains first: with a bounded move budget, fix the
	// worst performers.
	sorted := append([]*altpath.PrefixReport(nil), reports...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].GapMS > sorted[b].GapMS })

	budgetSpent := false
	var out []Override
	for _, rep := range sorted {
		if rep.GapMS < cfg.MinGainMS {
			if tr == nil {
				break // sorted: no further report qualifies
			}
			// Tracing: keep walking solely to record why the remaining
			// reports were skipped.
			if rep.BestAlt != nil && rep.BestAlt.Route != nil && tr.Lookup(rep.Prefix) == nil {
				pt := tr.Prefix(rep.Prefix)
				pt.reject(CandidateTrace{
					Phase: "perf", Via: rep.BestAlt.Route, Reason: RejectGapBelowThreshold,
					GapMS: rep.GapMS, NeedGapMS: cfg.MinGainMS,
				})
				pt.outcome(OutcomeNone, nil, "measured gain below threshold")
			}
			continue
		}
		// A nil or route-less BestAlt does not terminate the scan:
		// negative-gap reports sort below nil-alt ones (GapMS zero), so
		// breaking here would skip still-qualifying reports.
		if rep.BestAlt == nil || rep.BestAlt.Route == nil {
			continue
		}
		if len(rep.Paths) == 0 {
			continue // degenerate report: no primary measurement
		}
		if movedAlready[rep.Prefix] {
			continue
		}
		if budgetSpent {
			pt := tr.Prefix(rep.Prefix)
			pt.reject(CandidateTrace{Phase: "perf", Via: rep.BestAlt.Route, Reason: RejectMoveBudget})
			pt.outcome(OutcomeNone, nil, "perf move budget exhausted (MaxMoves)")
			continue
		}
		pt := tr.Prefix(rep.Prefix)
		if rep.Paths[0].N < cfg.MinSamples || rep.BestAlt.N < cfg.MinSamples {
			n := rep.Paths[0].N
			if rep.BestAlt.N < n {
				n = rep.BestAlt.N
			}
			pt.reject(CandidateTrace{
				Phase: "perf", Via: rep.BestAlt.Route, Reason: RejectInsufficientSamples,
				Samples: n, NeedSamples: cfg.MinSamples, GapMS: rep.GapMS,
			})
			pt.outcome(OutcomeNone, nil, "insufficient measurement samples")
			continue
		}
		plan, ok := proj.Plans[rep.Prefix]
		if !ok {
			pt.outcome(OutcomeNone, nil, "no demand measured for the prefix")
			continue // no demand measured for the prefix
		}
		pt.setPlan(plan)
		alt := rep.BestAlt.Route
		if alt.EgressIF == plan.Preferred.EgressIF {
			pt.reject(CandidateTrace{Phase: "perf", Via: alt, Reason: RejectSamePort, GapMS: rep.GapMS})
			pt.outcome(OutcomeNone, nil, "fastest alternate shares the preferred egress port")
			continue
		}
		info, ok := inv.InterfaceByID(alt.EgressIF)
		if !ok {
			pt.reject(CandidateTrace{Phase: "perf", Via: alt, Reason: RejectNoInterface, GapMS: rep.GapMS})
			pt.outcome(OutcomeNone, nil, "alternate egress interface not in inventory")
			continue
		}
		if load[alt.EgressIF]+plan.RateBps > alloc.Target*info.CapacityBps {
			pt.reject(CandidateTrace{
				Phase: "perf", Via: alt, Reason: RejectWouldExceedTarget,
				LoadBps: load[alt.EgressIF], MoveBps: plan.RateBps,
				LimitBps: alloc.Target * info.CapacityBps, GapMS: rep.GapMS,
			})
			pt.outcome(OutcomeNone, nil, "would congest the faster path")
			continue // would congest the faster path — self-defeating
		}
		load[plan.Preferred.EgressIF] -= plan.RateBps
		load[alt.EgressIF] += plan.RateBps
		reason := fmt.Sprintf("alt path %.0fms faster (p50 %.0f vs %.0f)",
			rep.GapMS, rep.BestAlt.P50, rep.Paths[0].P50)
		pt.accept("perf", alt, load[alt.EgressIF]-plan.RateBps, plan.RateBps,
			alloc.Target*info.CapacityBps, rep.GapMS)
		pt.outcome(OutcomePerfMoved, alt, reason)
		out = append(out, Override{
			Prefix:  rep.Prefix,
			Via:     alt,
			FromIF:  plan.Preferred.EgressIF,
			ToIF:    alt.EgressIF,
			RateBps: plan.RateBps,
			Reason:  reason,
		})
		if cfg.MaxMoves > 0 && len(out) >= cfg.MaxMoves {
			if tr == nil {
				break
			}
			budgetSpent = true
		}
	}
	return out
}
