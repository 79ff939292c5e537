package core

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"

	"edgefabric/internal/altpath"
	"edgefabric/internal/rib"
)

// This file implements the controller's one performance pass, the
// weighted multipath optimizer: it spreads one prefix's demand across up
// to MaxPaths egresses in proportion to headroom and measured per-path
// RTT/retransmit statistics (BGP-Multipath Routing in the Internet
// grounds the mechanism). MaxPaths 1 is the paper's §6 whole-prefix
// move onto a measurably better path. It composes after the overload
// allocator: prefixes the overload pass already moved are left alone,
// and capacity its moves consumed is accounted before any split is
// sized.

// MultipathConfig parameterizes MultipathAllocate.
type MultipathConfig struct {
	// MaxPaths caps the members of one weighted set. Default 3 (the
	// measured primary plus the MaxAltPaths measured alternates). 1 moves
	// the whole prefix onto the single best path instead (see
	// MultipathAllocateTraced).
	MaxPaths int
	// MinGainMS is the measured median-RTT gap that triggers a split on
	// performance grounds. Default 20 (the paper's §6 threshold).
	MinGainMS float64
	// SpreadUtil is the preferred-interface utilization above which a
	// split is triggered even without an RTT gap, pulling demand out of
	// the congestion band before the overload allocator's threshold is
	// reached. Default 0.72.
	SpreadUtil float64
	// ToleranceMS bounds how much slower than the primary's median a
	// member may be and still join the set. Default 25.
	ToleranceMS float64
	// MaxLossFrac excludes members whose measured retransmit fraction
	// exceeds it. Default 0.10.
	MaxLossFrac float64
	// RetransPenalty scales how strongly measured loss discounts a
	// member's weight: weight ∝ headroom / (P50 × (1 + RetransPenalty ×
	// RetransFrac)). Default 8 (a 10%-loss path weighs ~1/2 of a clean
	// one at equal RTT and headroom).
	RetransPenalty float64
	// MinWeightPct drops members whose share would round below it; the
	// freed share is redistributed. Default 5.
	MinWeightPct int
	// HysteresisPct keeps the previously-installed member weights when
	// the freshly-computed set has the same members and every weight
	// moved by no more than this many points — re-announcing an
	// unchanged set is free, re-announcing a jittered one is churn.
	// Default 10.
	HysteresisPct int
	// MinSamples is the minimum sample count on every member (and the
	// primary). Default 16.
	MinSamples int
	// MaxMoves caps new or changed multipath overrides per cycle
	// (0 = unlimited). Hysteresis re-affirmations are free.
	MaxMoves int
}

func (c *MultipathConfig) setDefaults() {
	if c.MaxPaths == 0 {
		c.MaxPaths = 3
	}
	if c.MinGainMS == 0 {
		c.MinGainMS = 20
	}
	if c.SpreadUtil == 0 {
		c.SpreadUtil = 0.72
	}
	if c.ToleranceMS == 0 {
		c.ToleranceMS = 25
	}
	if c.MaxLossFrac == 0 {
		c.MaxLossFrac = 0.10
	}
	if c.RetransPenalty == 0 {
		c.RetransPenalty = 8
	}
	if c.MinWeightPct == 0 {
		c.MinWeightPct = 5
	}
	if c.HysteresisPct == 0 {
		c.HysteresisPct = 10
	}
	if c.MinSamples == 0 {
		c.MinSamples = 16
	}
}

// MultipathPrior indexes the multipath overrides of a previous cycle by
// prefix, for hysteresis.
func MultipathPrior(overrides []Override) map[netip.Prefix]Override {
	out := make(map[netip.Prefix]Override)
	for _, o := range overrides {
		if len(o.Multipath) > 0 {
			out[o.Prefix] = o
		}
	}
	return out
}

// mpMember is one candidate member during weight computation.
type mpMember struct {
	stat   *altpath.PathStat
	hdrm   float64 // spare bps below target on the member's interface
	limit  float64 // target-utilization bps bound
	share  float64 // assigned bps
	weight float64 // assignShares scratch: this iteration's spread weight
}

// MultipathAllocateTraced computes weighted multipath overrides from
// alternate-path measurements: for each reported prefix whose measured
// alternate is at least MinGainMS faster OR whose preferred interface
// sits above SpreadUtil, demand is split across up to MaxPaths measured
// paths in proportion to interface headroom discounted by measured RTT
// and retransmit fraction. At MaxPaths 1 the whole prefix moves instead,
// onto the eligible path with the lowest loss-discounted median that
// carries the whole rate below target, unless that is the primary.
// prior is the overload pass's result (its moves take precedence and
// its capacity consumption is accounted); prev is the previous cycle's
// installed multipath set (hysteresis). reports is reordered in place
// (largest gap first, ties by prefix), so the result does not depend on
// the order it arrives in. tr receives decision provenance; a nil tr
// records nothing and keeps the sorted-loop early exits.
func MultipathAllocateTraced(
	proj *Projection,
	inv *Inventory,
	reports []*altpath.PrefixReport,
	prior *AllocResult,
	prev map[netip.Prefix]Override,
	alloc AllocatorConfig,
	cfg MultipathConfig,
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
			if o.SplitOf.IsValid() {
				movedAlready[o.SplitOf] = true
			}
		}
	}
	capOf := func(id int) float64 {
		if info, ok := inv.InterfaceByID(id); ok {
			return info.CapacityBps
		}
		return 0
	}

	// Biggest measured gains first, so a bounded budget fixes the worst
	// performers; the prefix tie-break makes the order total.
	slices.SortFunc(reports, func(a, b *altpath.PrefixReport) int {
		if c := cmp.Compare(b.GapMS, a.GapMS); c != 0 {
			return c
		}
		return rib.ComparePrefixes(a.Prefix, b.Prefix)
	})

	moves := 0
	budgetSpent := false
	var out []Override
	// Per-prefix scratch, bounded by MaxPaths and reused across prefixes.
	scratch := make([]mpMember, 0, cfg.MaxPaths)
	fresh := make([]PathWeight, 0, cfg.MaxPaths)
	for _, rep := range reports {
		if len(rep.Paths) == 0 || !rep.Paths[0].Primary || rep.Paths[0].Route == nil {
			continue // degenerate report: no primary measurement
		}
		if movedAlready[rep.Prefix] {
			continue
		}
		plan, ok := proj.Plans[rep.Prefix]
		if !ok {
			continue // no demand measured for the prefix
		}
		primary := &rep.Paths[0]
		prefIF := plan.Preferred.EgressIF
		prefCap := capOf(prefIF)
		util := 0.0
		if prefCap > 0 {
			util = load[prefIF] / prefCap
		}
		congested := util >= cfg.SpreadUtil
		if rep.GapMS < cfg.MinGainMS && !congested {
			// Neither trigger fires. Reports are gap-sorted, but the
			// congestion trigger is per-interface, so keep scanning; only
			// record a trace for prefixes that at least had an alternate.
			if tr != nil && rep.BestAlt != nil && rep.BestAlt.Route != nil && tr.Lookup(rep.Prefix) == nil {
				pt := tr.Prefix(rep.Prefix)
				pt.reject(CandidateTrace{
					Phase: "multipath", Via: rep.BestAlt.Route, Reason: RejectGapBelowThreshold,
					GapMS: rep.GapMS, NeedGapMS: cfg.MinGainMS,
				})
				pt.outcome(OutcomeNone, nil, "gap below threshold and preferred interface uncongested")
			}
			continue
		}
		if budgetSpent {
			// Hysteresis re-affirmations stay free even with the budget
			// spent: dropping an installed set is itself churn.
			if po, ok := prev[rep.Prefix]; ok {
				if o, kept := reaffirm(po, plan, load, capOf, alloc); kept {
					out = append(out, o)
					applyShares(load, prefIF, o)
					continue
				}
			}
			pt := tr.Prefix(rep.Prefix)
			if pt != nil {
				via := primary.Route
				if rep.BestAlt != nil && rep.BestAlt.Route != nil {
					via = rep.BestAlt.Route
				}
				pt.reject(CandidateTrace{Phase: "multipath", Via: via, Reason: RejectMoveBudget})
				pt.outcome(OutcomeNone, nil, "multipath move budget exhausted (MaxMoves)")
			}
			continue
		}
		pt := tr.Prefix(rep.Prefix)
		pt.setPlan(plan)
		if primary.N < cfg.MinSamples {
			pt.reject(CandidateTrace{
				Phase: "multipath", Via: primary.Route, Reason: RejectInsufficientSamples,
				Samples: primary.N, NeedSamples: cfg.MinSamples, GapMS: rep.GapMS,
			})
			pt.outcome(OutcomeNone, nil, "insufficient samples on the primary path")
			continue
		}

		// Candidate members: the measured paths within ToleranceMS of
		// the primary's median, clean enough, sampled enough, one per
		// egress port (the fastest wins a port).
		rate := plan.RateBps
		members := scratch[:0]
		for i := range rep.Paths {
			ps := &rep.Paths[i]
			if ps.Route == nil {
				continue
			}
			if !ps.Primary {
				if ps.N < cfg.MinSamples {
					pt.reject(CandidateTrace{
						Phase: "multipath", Via: ps.Route, Reason: RejectInsufficientSamples,
						Samples: ps.N, NeedSamples: cfg.MinSamples,
					})
					continue
				}
				if ps.P50 > primary.P50+cfg.ToleranceMS {
					pt.reject(CandidateTrace{
						Phase: "multipath", Via: ps.Route, Reason: RejectGapBelowThreshold,
						GapMS: primary.P50 - ps.P50, NeedGapMS: -cfg.ToleranceMS,
					})
					continue
				}
			}
			if ps.RetransFrac > cfg.MaxLossFrac {
				pt.reject(CandidateTrace{Phase: "multipath", Via: ps.Route, Reason: RejectLossyPath})
				continue
			}
			info, ok := inv.InterfaceByID(ps.Route.EgressIF)
			if !ok {
				pt.reject(CandidateTrace{Phase: "multipath", Via: ps.Route, Reason: RejectNoInterface})
				continue
			}
			if slices.ContainsFunc(members, func(m mpMember) bool { return m.stat.Route.EgressIF == ps.Route.EgressIF }) {
				continue // a faster member already holds this port
			}
			limit := alloc.Target * info.CapacityBps
			base := load[ps.Route.EgressIF]
			if ps.Route.EgressIF == prefIF {
				base -= rate // the prefix's own demand sits here today
			}
			m := mpMember{stat: ps, limit: limit, hdrm: math.Max(0, limit-base)}
			if cfg.MaxPaths > 1 {
				members = append(members, m)
				if len(members) >= cfg.MaxPaths {
					break
				}
				continue
			}
			// One slot leaves no set to split, so no path is privileged:
			// the slot goes to the lowest loss-discounted median among the
			// paths that carry the whole rate below target.
			switch {
			case !ps.Primary && ps.Route.EgressIF == prefIF:
				pt.reject(CandidateTrace{Phase: "multipath", Via: ps.Route, Reason: RejectSamePort})
			case m.hdrm < rate:
				pt.reject(CandidateTrace{
					Phase: "multipath", Via: ps.Route, Reason: RejectWouldExceedTarget,
					LoadBps: base, MoveBps: rate, LimitBps: limit,
				})
			case len(members) == 0 || cfg.cost(ps) < cfg.cost(members[0].stat):
				members = append(members[:0], m)
			}
		}
		if len(members) == 0 {
			pt.outcome(OutcomeNone, nil, "no eligible multipath member")
			continue
		}
		if len(members) == 1 && members[0].stat.Route.EgressIF == prefIF {
			pt.outcome(OutcomeNone, nil, "no eligible member beats the preferred path")
			continue
		}

		if !assignShares(members, rate, cfg) {
			worst := &members[0]
			pt.reject(CandidateTrace{
				Phase: "multipath", Via: worst.stat.Route, Reason: RejectWouldExceedTarget,
				LoadBps: worst.limit - worst.hdrm, MoveBps: rate, LimitBps: worst.limit,
			})
			pt.outcome(OutcomeNone, nil, "no member set can absorb the demand below target")
			continue
		}
		// Drop members whose share rounds below the floor and re-spread.
		for {
			kept := members[:0]
			for _, m := range members {
				if int(math.Round(100*m.share/rate)) >= cfg.MinWeightPct {
					kept = append(kept, m)
				}
			}
			if len(kept) == len(members) || len(kept) == 0 {
				break
			}
			members = kept
			if !assignShares(members, rate, cfg) {
				members = nil
				break
			}
		}
		if len(members) == 0 {
			pt.outcome(OutcomeNone, nil, "no member set can absorb the demand below target")
			continue
		}
		if len(members) == 1 && members[0].stat.Route.EgressIF == prefIF {
			pt.outcome(OutcomeNone, nil, "split collapsed back onto the preferred path")
			continue
		}

		fresh = memberWeights(fresh[:0], members, rate)

		// Hysteresis: same members within HysteresisPct of the installed
		// weights -> re-affirm the installed set verbatim (refreshing the
		// rate accounting); the injector sees an identical announcement
		// and emits no updates. Only a new or changed set is rendered.
		var o Override
		changed := true
		if po, ok := prev[rep.Prefix]; ok && sameMembers(po.Multipath, fresh, cfg.HysteresisPct) {
			if ro, kept := reaffirm(po, plan, load, capOf, alloc); kept {
				o, changed = ro, false
			}
		}
		if changed {
			o = buildOverride(rep.Prefix, plan, members[0].stat, fresh, rate, rep.GapMS, primary, congested, util)
		}

		for _, pw := range o.Multipath {
			pt.accept("multipath", pw.Via, load[pw.ToIF], pw.RateBps,
				alloc.Target*capOf(pw.ToIF), 0)
		}
		if len(o.Multipath) > 0 {
			pt.outcome(OutcomeMultipath, o.Via, o.Reason)
		} else {
			pt.accept("multipath", o.Via, load[o.ToIF], rate, alloc.Target*capOf(o.ToIF), 0)
			pt.outcome(OutcomePerfMoved, o.Via, o.Reason)
		}
		applyShares(load, prefIF, o)
		out = append(out, o)
		if changed {
			moves++
			if cfg.MaxMoves > 0 && moves >= cfg.MaxMoves {
				if tr == nil && len(prev) == 0 {
					break // nothing left to re-affirm or trace
				}
				budgetSpent = true
			}
		}
	}
	return out
}

// assignShares distributes rate across members in proportion to
// headroom discounted by RTT and loss, clamping members at their
// target-utilization bound and re-spreading the excess. Returns false
// if the member set cannot absorb the rate below target.
func assignShares(members []mpMember, rate float64, cfg MultipathConfig) bool {
	var totalHdrm float64
	for i := range members {
		members[i].share = 0
		totalHdrm += members[i].hdrm
	}
	if totalHdrm < rate {
		return false
	}
	remaining := rate
	for iter := 0; iter < len(members)+1 && remaining > 1; iter++ {
		var totalW float64
		for i := range members {
			m := &members[i]
			m.weight = 0
			spare := m.hdrm - m.share
			if spare <= 0 {
				continue
			}
			m.weight = spare / cfg.cost(m.stat)
			totalW += m.weight
		}
		if totalW == 0 {
			return false
		}
		assigned := 0.0
		for i := range members {
			m := &members[i]
			if m.weight == 0 {
				continue
			}
			add := remaining * m.weight / totalW
			if spare := m.hdrm - m.share; add > spare {
				add = spare
			}
			m.share += add
			assigned += add
		}
		remaining -= assigned
		if assigned == 0 {
			return false
		}
	}
	return remaining <= 1
}

// cost is a path's loss-discounted median RTT, P50 × (1 + RetransPenalty
// × RetransFrac): the RTT half of a member's weight, and the whole of
// the k = 1 choice.
func (c *MultipathConfig) cost(ps *altpath.PathStat) float64 {
	return ps.P50 * (1 + c.RetransPenalty*ps.RetransFrac)
}

// memberWeights sorts a final member set heaviest-first and appends its
// integer weights (summing to 100) to dst. A set that collapsed to a
// single member yields no weights.
func memberWeights(dst []PathWeight, members []mpMember, rate float64) []PathWeight {
	slices.SortStableFunc(members, func(a, b mpMember) int { return cmp.Compare(b.share, a.share) })
	if len(members) == 1 {
		return dst
	}
	total := 0
	for _, m := range members {
		pct := int(math.Round(100 * m.share / rate))
		if pct < 1 {
			pct = 1
		}
		dst = append(dst, PathWeight{Via: m.stat.Route, ToIF: m.stat.Route.EgressIF, WeightPct: pct})
		total += pct
	}
	dst[0].WeightPct += 100 - total // rounding remainder to the heaviest
	for i := range dst {
		dst[i].RateBps = rate * float64(dst[i].WeightPct) / 100
	}
	return dst
}

// buildOverride renders a final member set into an Override: pws when
// it has weights (copied; the caller reuses pws), else a plain
// whole-prefix perf override onto the single non-preferred member best.
// Its reason starts "alt path" (the injector tags those CommunityPerf).
func buildOverride(prefix netip.Prefix, plan *PrefixPlan, best *altpath.PathStat, pws []PathWeight, rate, gapMS float64, primary *altpath.PathStat, congested bool, util float64) Override {
	prefIF := plan.Preferred.EgressIF
	if len(pws) == 0 {
		// A member no faster than the primary wins only on the primary's
		// loss or its port's congestion: name those, not a negative gain.
		reason := fmt.Sprintf("alt path %.0fms faster (p50 %.0f vs %.0f)",
			primary.P50-best.P50, best.P50, primary.P50)
		if primary.P50-best.P50 < 0.5 {
			reason = fmt.Sprintf("alt path (p50 %.0f vs %.0f; primary loss %.0f%%, preferred util %.2f)",
				best.P50, primary.P50, 100*primary.RetransFrac, util)
		}
		return Override{
			Prefix:  prefix,
			Via:     best.Route,
			FromIF:  prefIF,
			ToIF:    best.Route.EgressIF,
			RateBps: rate,
			Reason:  reason,
		}
	}
	pws = slices.Clone(pws)
	why := "measured gap"
	if congested {
		why = fmt.Sprintf("preferred util %.2f", util)
	}
	if gapMS >= 0 && congested {
		why = fmt.Sprintf("gap %.0fms + util %.2f", gapMS, util)
	}
	return Override{
		Prefix:    prefix,
		Via:       pws[0].Via,
		FromIF:    prefIF,
		ToIF:      pws[0].ToIF,
		RateBps:   rate,
		Multipath: pws,
		Reason: fmt.Sprintf("multipath %d-way %s (%s)",
			len(pws), weightsString(pws), why),
	}
}

func weightsString(pws []PathWeight) string {
	s := ""
	for i, pw := range pws {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%d", pw.WeightPct)
	}
	return s
}

// sameMembers reports whether the installed and freshly-computed member
// sets have identical routes and every weight within tolPct points.
func sameMembers(old, fresh []PathWeight, tolPct int) bool {
	if len(old) != len(fresh) || len(old) == 0 {
		return false
	}
	for _, pw := range fresh {
		i := slices.IndexFunc(old, func(o PathWeight) bool { return o.Via.PeerAddr == pw.Via.PeerAddr })
		if i < 0 {
			return false
		}
		if d := old[i].WeightPct - pw.WeightPct; d > tolPct || -d > tolPct {
			return false
		}
	}
	return true
}

// reaffirm re-emits a previously-installed multipath override against
// the current plan: member routes must still exist among the plan's
// routes and every member must still fit below target at the refreshed
// rate. Returns false if the installed set is no longer valid.
func reaffirm(po Override, plan *PrefixPlan, load map[int]float64, capOf func(int) float64, alloc AllocatorConfig) (Override, bool) {
	if len(po.Multipath) == 0 {
		return Override{}, false
	}
	current := func(peer netip.Addr) bool {
		return plan.Preferred.PeerAddr == peer ||
			slices.ContainsFunc(plan.Alternates, func(alt *rib.Route) bool { return alt.PeerAddr == peer })
	}
	rate := plan.RateBps
	prefIF := plan.Preferred.EgressIF
	pws := make([]PathWeight, len(po.Multipath))
	for i, pw := range po.Multipath {
		if !current(pw.Via.PeerAddr) {
			return Override{}, false
		}
		share := rate * float64(pw.WeightPct) / 100
		base := load[pw.ToIF]
		if pw.ToIF == prefIF {
			base -= rate
		}
		if base+share > alloc.Target*capOf(pw.ToIF) {
			return Override{}, false
		}
		pws[i] = PathWeight{Via: pw.Via, ToIF: pw.ToIF, WeightPct: pw.WeightPct, RateBps: share}
	}
	o := po
	o.Multipath = pws
	o.FromIF = prefIF
	o.RateBps = rate
	return o, true
}

// applyShares books an emitted override's demand movement into the
// working load map.
func applyShares(load map[int]float64, prefIF int, o Override) {
	load[prefIF] -= o.RateBps
	if len(o.Multipath) == 0 {
		load[o.ToIF] += o.RateBps
		return
	}
	for _, pw := range o.Multipath {
		load[pw.ToIF] += pw.RateBps
	}
}
