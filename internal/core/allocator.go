package core

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sync/atomic"

	"edgefabric/internal/rib"
)

// SelectStrategy orders the candidate prefixes the allocator considers
// when draining an overloaded interface.
type SelectStrategy int

// Prefix selection strategies (the paper's choice plus two ablation
// controls, see DESIGN.md §5).
const (
	// SelectBestAlternative prefers prefixes whose best detour target is
	// a peer route (rather than transit) and has the most spare
	// capacity — the paper's behaviour.
	SelectBestAlternative SelectStrategy = iota
	// SelectLargestFirst moves the highest-rate prefixes first,
	// minimizing the number of overrides.
	SelectLargestFirst
	// SelectRandom uses an arbitrary-but-stable order (ablation
	// control).
	SelectRandom
)

// String returns the strategy name.
func (s SelectStrategy) String() string {
	switch s {
	case SelectBestAlternative:
		return "best-alternative"
	case SelectLargestFirst:
		return "largest-first"
	case SelectRandom:
		return "random"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// TargetStrategy picks among feasible detour routes for one prefix.
type TargetStrategy int

// Detour target strategies.
const (
	// TargetPreferPeerMostSpare prefers the best peering tier, then the
	// interface with the most spare capacity — the paper's behaviour.
	TargetPreferPeerMostSpare TargetStrategy = iota
	// TargetFirstFeasible takes the highest-BGP-preference alternate
	// that fits.
	TargetFirstFeasible
	// TargetMostSpare ignores tier and maximizes spare capacity.
	TargetMostSpare
)

// String returns the strategy name.
func (s TargetStrategy) String() string {
	switch s {
	case TargetPreferPeerMostSpare:
		return "prefer-peer-most-spare"
	case TargetFirstFeasible:
		return "first-feasible"
	case TargetMostSpare:
		return "most-spare"
	default:
		return fmt.Sprintf("target(%d)", int(s))
	}
}

// AllocatorConfig parameterizes the overload allocator.
type AllocatorConfig struct {
	// Threshold is the utilization above which an interface is
	// overloaded. Default 0.95.
	Threshold float64
	// Target is the ceiling the allocator will fill a detour-target
	// interface to (overloaded interfaces are always drained to below
	// Threshold). Default = Threshold; values above Threshold let
	// detours pack targets a bit hotter than the alarm level.
	Target float64
	// Select orders candidate prefixes on an overloaded interface.
	Select SelectStrategy
	// TargetSelect picks among feasible detours for a prefix.
	TargetSelect TargetStrategy
	// MaxDetours caps overrides per cycle (0 = unlimited).
	MaxDetours int
	// NoSticky disables detour retention: by default (paper behaviour)
	// a prefix already detoured keeps its current detour while its
	// preferred interface remains above threshold and the detour stays
	// feasible, which suppresses override churn between cycles.
	// Retention needs the previous override set: see AllocateSticky.
	NoSticky bool
	// AllowSplit enables sub-prefix detours (the paper's §7 extension):
	// when an overloaded interface cannot be drained by whole-prefix
	// moves — typically because one very large prefix exceeds every
	// alternate's headroom — the allocator announces one more-specific
	// half of the prefix toward an alternate, steering half its traffic
	// by longest-prefix match.
	AllowSplit bool
}

func (c *AllocatorConfig) setDefaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.95
	}
	if c.Target == 0 {
		c.Target = c.Threshold
	}
}

// Override is one allocator decision: steer a prefix onto an alternate
// route.
type Override struct {
	// Prefix is the steered prefix. For split detours this is a
	// more-specific half of SplitOf.
	Prefix netip.Prefix
	// SplitOf, when valid, is the aggregate prefix this override steers
	// half of (AllowSplit).
	SplitOf netip.Prefix
	// Via is the organic alternate route the traffic is steered onto.
	// For a multipath override this is the heaviest member's route.
	Via *rib.Route
	// FromIF / ToIF are the egress interfaces before and after. For a
	// multipath override ToIF is the heaviest member's interface.
	FromIF, ToIF int
	// RateBps is the demand moved (the prefix's whole projected rate
	// for a multipath override).
	RateBps float64
	// Multipath, when non-empty, spreads the prefix's demand across a
	// weighted set of egresses instead of a single detour. Members are
	// ordered heaviest-first; weights sum to 100.
	Multipath []PathWeight
	// Reason is a one-line explanation for the audit log.
	Reason string
}

// PathWeight is one member of a weighted multipath override.
type PathWeight struct {
	// Via is the organic route this member steers onto.
	Via *rib.Route
	// ToIF is the member's egress interface.
	ToIF int
	// WeightPct is the member's share of the prefix's demand, in
	// integer percent (1..100); a set's weights sum to 100.
	WeightPct int
	// RateBps is the member's share of the projected demand.
	RateBps float64
}

// SameMultipath reports whether two weighted member sets are
// identical: same routes in the same order with the same weights.
func SameMultipath(a, b []PathWeight) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Via != b[i].Via || a[i].ToIF != b[i].ToIF || a[i].WeightPct != b[i].WeightPct {
			return false
		}
	}
	return true
}

// AllocResult is the allocator's outcome for one cycle.
type AllocResult struct {
	// Overrides are the decisions, in the order they were made.
	Overrides []Override
	// ResidualOverloadBps maps interfaces the allocator could not fully
	// drain to the excess offered load left above threshold.
	ResidualOverloadBps map[int]float64
	// DetouredBps is the total rate moved.
	DetouredBps float64
	// Retained counts overrides carried over from the previous cycle by
	// the stickiness pass.
	Retained int
}

// allocEpoch numbers allocator calls: a call marks the plans it detours
// by stamping them with its epoch instead of building a set of moved
// prefixes. One counter for the whole process, so plans shared between
// projections, or projections allocated by a fleet of controllers,
// never read another call's stamp as their own.
var allocEpoch atomic.Uint64

// AllocateStickyTraced runs the paper's greedy overload-mitigation
// algorithm over a projection: while some interface is projected above
// threshold, pick the most overloaded one and move whole prefixes from
// it onto their best feasible alternate route until it drops below
// target. A detour is feasible only if it keeps its target interface at
// or below target utilization, so the allocator never trades one
// overload for another. It mutates only its own working copy of the
// projected loads; the Projection itself is unchanged.
//
// prior is the override set installed by the previous cycle (e.g.
// Injector.Installed; nil for none). Unless cfg.NoSticky is set, a
// previously-detoured prefix whose preferred interface is still above
// threshold keeps its existing detour (feasibility permitting) before
// any new detours are chosen, which suppresses override churn while an
// overload persists.
//
// When tr is non-nil, every prefix the allocator considers gets a
// structured trace record (candidates with rejection reasons, final
// outcome) in tr. A nil tr records nothing and costs nothing.
func AllocateStickyTraced(proj *Projection, inv *Inventory, cfg AllocatorConfig, prior map[netip.Prefix]Override, tr *CycleTrace) *AllocResult {
	cfg.setDefaults()
	res := &AllocResult{ResidualOverloadBps: make(map[int]float64)}

	// One read of the inventory per call (never kept across calls): the
	// loops and sort comparators below ask for capacities thousands of
	// times, and every Inventory read locks, and Interfaces() also sorts.
	// Working loads and capacities are vectors indexed by interface ID
	// (NewInventory bounds the IDs), sized to cover the inventory and
	// every interface the projection loads.
	ifs := inv.Interfaces()
	n := 0
	if len(ifs) > 0 {
		n = ifs[len(ifs)-1].ID + 1
	}
	for id := range proj.IfLoadBps {
		n = max(n, id+1)
	}
	load, capacity := make([]float64, n), make([]float64, n)
	for id, bps := range proj.IfLoadBps {
		if id >= 0 {
			load[id] = bps
		}
	}
	for _, info := range ifs {
		capacity[info.ID] = info.CapacityBps
	}
	// An alternate's egress interface need not be in the inventory: read
	// by ID with a bounds check, absent reading as zero.
	at := func(v []float64, id int) float64 {
		if uint(id) < uint(len(v)) {
			return v[id]
		}
		return 0
	}
	capOf := func(id int) float64 { return at(capacity, id) }
	// A plan detoured by this call carries the call's epoch.
	epoch := allocEpoch.Add(1)

	// candidateDetourRate returns the best feasible detour for moving
	// rate bps of a plan's traffic, given current working loads, or nil.
	// Each alternate's verdict is recorded into pt (nil = no tracing);
	// the winner is flipped from "outranked" to accepted.
	candidateDetourRate := func(plan *PrefixPlan, rate float64, phase string, pt *PrefixTrace) *rib.Route {
		var best *rib.Route
		var bestSpare float64
		for _, alt := range plan.Alternates {
			if alt.EgressIF == plan.Preferred.EgressIF {
				tr.reject(pt, CandidateTrace{Phase: phase, Via: alt, Reason: RejectSamePort})
				continue // same port (e.g. another peer on the same IXP interface)
			}
			c := capOf(alt.EgressIF)
			if c == 0 {
				tr.reject(pt, CandidateTrace{Phase: phase, Via: alt, Reason: RejectNoInterface})
				continue
			}
			if load[alt.EgressIF]+rate > cfg.Target*c {
				tr.reject(pt, CandidateTrace{
					Phase: phase, Via: alt, Reason: RejectWouldExceedTarget,
					LoadBps: load[alt.EgressIF], MoveBps: rate, LimitBps: cfg.Target * c,
				})
				continue // would overload the target
			}
			tr.reject(pt, CandidateTrace{
				Phase: phase, Via: alt, Reason: RejectOutranked,
				LoadBps: load[alt.EgressIF], MoveBps: rate, LimitBps: cfg.Target * c,
			})
			spare := cfg.Target*c - load[alt.EgressIF] - rate
			switch cfg.TargetSelect {
			case TargetFirstFeasible:
				pt.markChosen(alt)
				return alt
			case TargetMostSpare:
				if best == nil || spare > bestSpare {
					best, bestSpare = alt, spare
				}
			default: // TargetPreferPeerMostSpare
				if best == nil ||
					alt.PeerClass < best.PeerClass ||
					(alt.PeerClass == best.PeerClass && spare > bestSpare) {
					best, bestSpare = alt, spare
				}
			}
		}
		pt.markChosen(best)
		return best
	}

	// Stickiness pass: retain still-needed, still-feasible detours from
	// the previous cycle before choosing any new ones.
	if !cfg.NoSticky && len(prior) > 0 {
		keys := make([]netip.Prefix, 0, len(prior))
		for p := range prior {
			keys = append(keys, p)
		}
		rib.SortPrefixes(keys)
		for _, prefix := range keys {
			old := prior[prefix]
			// Multipath overrides belong to the perf pass, which applies
			// its own hysteresis; retaining one here as a single-path
			// detour would collapse the weighted set.
			if len(old.Multipath) > 0 {
				continue
			}
			// A split override is keyed by the more-specific half; its
			// demand lives under the aggregate's plan at half rate.
			planKey := prefix
			rateShare := 1.0
			if old.SplitOf.IsValid() {
				planKey = old.SplitOf
				rateShare = 0.5
			}
			pt := tr.Prefix(planKey)
			if pt != nil && old.SplitOf.IsValid() {
				pt.SplitPrefix = prefix
			}
			plan, ok := proj.Plans[planKey]
			if !ok {
				pt.outcome(OutcomeNone, nil, "sticky detour lapsed: demand gone")
				continue // demand gone
			}
			pt.setPlan(plan)
			rate := plan.RateBps * rateShare
			fromIF := plan.Preferred.EgressIF
			if at(load, fromIF) <= cfg.Threshold*capOf(fromIF) {
				pt.outcome(OutcomeNone, nil, "sticky detour lapsed: preferred interface below threshold")
				continue // overload gone; let the detour lapse
			}
			var via *rib.Route
			for _, alt := range plan.Alternates {
				if alt.PeerAddr == old.Via.PeerAddr && alt.EgressIF != fromIF {
					via = alt
					break
				}
			}
			if via == nil {
				pt.outcome(OutcomeNone, nil, "sticky detour lapsed: previous detour route withdrawn")
				continue // the old detour route no longer exists
			}
			viaLoad, viaLimit := at(load, via.EgressIF), cfg.Target*capOf(via.EgressIF)
			if viaLimit == 0 || viaLoad+rate > viaLimit {
				tr.reject(pt, CandidateTrace{
					Phase: "sticky", Via: via, Reason: RejectWouldExceedTarget,
					LoadBps: viaLoad, MoveBps: rate, LimitBps: viaLimit,
				})
				pt.outcome(OutcomeNone, nil, "sticky detour lapsed: no longer feasible")
				continue // no longer feasible
			}
			tr.accept(pt, "sticky", via, viaLoad, rate, viaLimit, 0)
			pt.outcome(OutcomeRetained, via, "retained: overload persists")
			load[fromIF] -= rate
			load[via.EgressIF] += rate
			plan.moved = epoch
			res.Overrides = append(res.Overrides, Override{
				Prefix:  prefix,
				SplitOf: old.SplitOf,
				Via:     via,
				FromIF:  fromIF,
				ToIF:    via.EgressIF,
				RateBps: rate,
				Reason:  "retained: overload persists",
			})
			res.DetouredBps += rate
			res.Retained++
		}
	}

	// Interfaces the allocator already failed to drain; skipped when
	// picking the next-worst so the loop always makes progress.
	gaveUp := make([]bool, n)
	for iter := 0; iter < len(ifs)+8; iter++ {
		// Most overloaded interface by ratio.
		overIF, overUtil := -1, cfg.Threshold
		for _, info := range ifs {
			if gaveUp[info.ID] {
				continue
			}
			u := load[info.ID] / info.CapacityBps
			if u > overUtil {
				overIF, overUtil = info.ID, u
			}
		}
		if overIF < 0 {
			break
		}
		drainBps := cfg.Threshold * capOf(overIF)

		// Candidate prefixes on the interface, with their current best
		// detours. With heavy-hitter prioritization in force
		// (Projection.HeavyThrBps > 0) only plans at or above the
		// threshold are consulted first: detouring favors the biggest
		// flows anyway, and skipping the (far larger) tail keeps this
		// pass O(heavy) instead of O(interface). The tail is consulted
		// only when the feasible heavy movers cannot cover the excess.
		type cand struct {
			plan   *PrefixPlan
			detour *rib.Route
			// spare is the detour target's headroom at collection; loads
			// do not move until the candidates are sorted.
			spare float64
		}
		var cands []cand
		bucket := proj.PrefixesOnInterface(overIF)
		collect := func(lo, hi float64) float64 {
			feasible := 0.0
			for _, plan := range bucket {
				if plan.moved == epoch || plan.RateBps < lo || plan.RateBps >= hi {
					continue
				}
				pt := tr.Prefix(plan.Prefix)
				pt.setPlan(plan)
				if d := candidateDetourRate(plan, plan.RateBps, "overload", pt); d != nil {
					cands = append(cands, cand{plan, d, cfg.Target*capOf(d.EgressIF) - load[d.EgressIF]})
					feasible += plan.RateBps
				} else {
					pt.outcome(OutcomeNone, nil, "no feasible alternate")
				}
			}
			return feasible
		}
		const inf = math.MaxFloat64
		if thr := proj.HeavyThrBps; thr > 0 {
			feasible := collect(thr, inf)
			if feasible < load[overIF]-drainBps {
				collect(0, thr)
			}
		} else {
			collect(0, inf)
		}
		// The final prefix tiebreak makes each order total, so the
		// (faster, unstable) sort is deterministic. Candidates arrive
		// prefix-ordered per collect pass, so for fully-tied entries
		// this matches what a stable sort produced.
		switch cfg.Select {
		case SelectLargestFirst:
			slices.SortFunc(cands, func(a, b cand) int {
				if a.plan.RateBps != b.plan.RateBps {
					if a.plan.RateBps > b.plan.RateBps {
						return -1
					}
					return 1
				}
				return rib.ComparePrefixes(a.plan.Prefix, b.plan.Prefix)
			})
		case SelectRandom:
			// PrefixesOnInterface order is stable by prefix — arbitrary
			// with respect to rate and alternatives.
		default: // SelectBestAlternative
			slices.SortFunc(cands, func(a, b cand) int {
				da, db := a.detour, b.detour
				if da.PeerClass != db.PeerClass {
					if da.PeerClass < db.PeerClass {
						return -1
					}
					return 1
				}
				// More spare headroom on the detour target first.
				if a.spare != b.spare {
					if a.spare > b.spare {
						return -1
					}
					return 1
				}
				if a.plan.RateBps != b.plan.RateBps {
					if a.plan.RateBps > b.plan.RateBps {
						return -1
					}
					return 1
				}
				return rib.ComparePrefixes(a.plan.Prefix, b.plan.Prefix)
			})
		}

		for ci, c := range cands {
			if load[overIF] <= drainBps {
				if tr != nil {
					for _, rest := range cands[ci:] {
						tr.Prefix(rest.plan.Prefix).outcome(OutcomeNotNeeded, nil,
							"interface drained below target before this prefix")
					}
				}
				break
			}
			if cfg.MaxDetours > 0 && len(res.Overrides) >= cfg.MaxDetours {
				if tr != nil {
					for _, rest := range cands[ci:] {
						pt := tr.Prefix(rest.plan.Prefix)
						tr.reject(pt, CandidateTrace{Phase: "overload", Via: rest.detour, Reason: RejectMoveBudget})
						pt.outcome(OutcomeNone, nil, "move budget exhausted (MaxDetours)")
					}
				}
				break
			}
			// Re-validate: earlier moves may have consumed the target's
			// headroom.
			pt := tr.Prefix(c.plan.Prefix)
			pt.resetCandidates()
			detour := candidateDetourRate(c.plan, c.plan.RateBps, "overload", pt)
			if detour == nil {
				pt.outcome(OutcomeNone, nil, "no feasible alternate after earlier moves")
				continue
			}
			load[overIF] -= c.plan.RateBps
			load[detour.EgressIF] += c.plan.RateBps
			c.plan.moved = epoch
			reason := fmt.Sprintf("if %d projected %.0f%% > %.0f%%",
				overIF, overUtil*100, cfg.Threshold*100)
			pt.outcome(OutcomeDetoured, detour, reason)
			res.Overrides = append(res.Overrides, Override{
				Prefix:  c.plan.Prefix,
				Via:     detour,
				FromIF:  overIF,
				ToIF:    detour.EgressIF,
				RateBps: c.plan.RateBps,
				Reason:  reason,
			})
			res.DetouredBps += c.plan.RateBps
		}
		// Split pass: whole-prefix moves were not enough; steer half of
		// the biggest remaining prefixes via more-specific halves.
		if cfg.AllowSplit && load[overIF] > drainBps {
			var splitCands []*PrefixPlan
			for _, plan := range proj.PrefixesOnInterface(overIF) {
				if plan.moved == epoch {
					continue
				}
				splitCands = append(splitCands, plan)
			}
			slices.SortFunc(splitCands, func(a, b *PrefixPlan) int {
				if a.RateBps != b.RateBps {
					if a.RateBps > b.RateBps {
						return -1
					}
					return 1
				}
				return rib.ComparePrefixes(a.Prefix, b.Prefix)
			})
			for _, plan := range splitCands {
				if load[overIF] <= drainBps {
					break
				}
				if cfg.MaxDetours > 0 && len(res.Overrides) >= cfg.MaxDetours {
					break
				}
				half := plan.RateBps / 2
				pt := tr.Prefix(plan.Prefix)
				detour := candidateDetourRate(plan, half, "split", pt)
				if detour == nil {
					continue
				}
				lo, _, ok := rib.Split(plan.Prefix)
				if !ok {
					continue
				}
				load[overIF] -= half
				load[detour.EgressIF] += half
				plan.moved = epoch
				reason := fmt.Sprintf("split: if %d projected %.0f%% > %.0f%%, no whole-prefix detour fits",
					overIF, overUtil*100, cfg.Threshold*100)
				if pt != nil {
					pt.SplitPrefix = lo
				}
				pt.outcome(OutcomeSplit, detour, reason)
				res.Overrides = append(res.Overrides, Override{
					Prefix:  lo,
					SplitOf: plan.Prefix,
					Via:     detour,
					FromIF:  overIF,
					ToIF:    detour.EgressIF,
					RateBps: half,
					Reason:  reason,
				})
				res.DetouredBps += half
			}
		}
		if load[overIF] > drainBps {
			res.ResidualOverloadBps[overIF] = load[overIF] - drainBps
			gaveUp[overIF] = true
		}

		if cfg.MaxDetours > 0 && len(res.Overrides) >= cfg.MaxDetours {
			// Record any remaining overloads as residual before exiting.
			for _, info := range ifs {
				u := load[info.ID] / info.CapacityBps
				if u > cfg.Threshold {
					if _, ok := res.ResidualOverloadBps[info.ID]; !ok {
						res.ResidualOverloadBps[info.ID] = load[info.ID] - cfg.Threshold*info.CapacityBps
					}
				}
			}
			break
		}
	}
	return res
}
