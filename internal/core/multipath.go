package core

import (
	"cmp"
	"math"
	"net/netip"
	"slices"
	"strconv"

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
	// MaxMoves caps new or changed multipath overrides per cycle
	// (0 = unlimited). Hysteresis re-affirmations are free.
	MaxMoves int
}

func (c *MultipathConfig) setDefaults() {
	if c.MaxPaths == 0 {
		c.MaxPaths = 3
	}
}

// The optimizer's fixed filter and weighting bounds.
const (
	// multipathMinGainMS is the measured median-RTT gap that triggers a
	// split on performance grounds (the paper's §6 threshold).
	multipathMinGainMS = 20
	// multipathSpreadUtil is the preferred-interface utilization above
	// which a split is triggered even without an RTT gap, pulling
	// demand out of the congestion band before the overload
	// allocator's threshold is reached.
	multipathSpreadUtil = 0.72
	// multipathToleranceMS bounds how much slower than the primary's
	// median a member may be and still join the set.
	multipathToleranceMS = 25
	// MultipathMaxLossFrac excludes members whose measured retransmit
	// fraction exceeds it.
	MultipathMaxLossFrac = 0.10
	// multipathRetransPenalty scales how strongly measured loss
	// discounts a member's weight: weight ∝ headroom / (P50 × (1 +
	// multipathRetransPenalty × RetransFrac)); a 10%-loss path weighs
	// ~1/2 of a clean one at equal RTT and headroom.
	multipathRetransPenalty = 8
	// MultipathMinWeightPct drops members whose share would round below
	// it; the freed share is redistributed.
	MultipathMinWeightPct = 5
	// multipathHysteresisPct keeps the previously-installed member
	// weights when the freshly-computed set has the same members and
	// every weight moved by no more than this many points —
	// re-announcing an unchanged set is free, re-announcing a jittered
	// one is churn.
	multipathHysteresisPct = 10
	// multipathMinSamples is the minimum sample count on every member
	// (and the primary).
	multipathMinSamples = 16
)

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
// alternate is at least multipathMinGainMS faster OR whose preferred
// interface sits above multipathSpreadUtil, demand is split across up to MaxPaths measured
// paths in proportion to interface headroom discounted by measured RTT
// and retransmit fraction. At MaxPaths 1 the whole prefix moves instead,
// onto the eligible path with the lowest loss-discounted median that
// carries the whole rate below target, unless that is the primary.
// prior is the overload pass's result (its moves take precedence and
// its capacity consumption is accounted); prev is the previous cycle's
// installed multipath set (hysteresis). reports is reordered in place
// (largest gap first, ties by prefix), so the result does not depend on
// the order it arrives in. tr receives decision provenance for every
// prefix a trigger fired on; a nil tr records nothing and keeps the
// sorted-loop early exits.
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
	// Re-affirmed member sets are built in pending, sized for every
	// prior set, and packed into shared blocks on return (packMembers);
	// reaffirmed indexes them in out.
	priorMembers := 0
	for _, po := range prev {
		priorMembers += len(po.Multipath)
	}
	pending := make([]PathWeight, 0, priorMembers)
	reaffirmed := make([]int, 0, len(prev))
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
		congested := util >= multipathSpreadUtil
		if rep.GapMS < multipathMinGainMS && !congested {
			// Neither trigger fires. Reports are gap-sorted, but the
			// congestion trigger is per-interface, so keep scanning. No
			// record: most measured prefixes end here every cycle, and
			// Controller.Explain renders this outcome on demand.
			continue
		}
		if budgetSpent {
			// Hysteresis re-affirmations stay free even with the budget
			// spent: dropping an installed set is itself churn.
			if po, ok := prev[rep.Prefix]; ok {
				if o, kept := reaffirm(po, plan, load, capOf, alloc, &pending); kept {
					reaffirmed = append(reaffirmed, len(out))
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
				tr.reject(pt, CandidateTrace{Phase: "multipath", Via: via, Reason: RejectMoveBudget})
				pt.outcome(OutcomeNone, nil, "multipath move budget exhausted (MaxMoves)")
			}
			continue
		}
		pt := tr.Prefix(rep.Prefix)
		pt.setPlan(plan)
		if primary.N < multipathMinSamples {
			tr.reject(pt, CandidateTrace{
				Phase: "multipath", Via: primary.Route, Reason: RejectInsufficientSamples,
				Samples: primary.N, NeedSamples: multipathMinSamples, GapMS: rep.GapMS,
			})
			pt.outcome(OutcomeNone, nil, "insufficient samples on the primary path")
			continue
		}

		// Candidate members: the measured paths within
		// multipathToleranceMS of the primary's median, clean enough,
		// sampled enough, one per egress port (the fastest wins a port).
		rate := plan.RateBps
		members := scratch[:0]
		for i := range rep.Paths {
			ps := &rep.Paths[i]
			if ps.Route == nil {
				continue
			}
			if !ps.Primary {
				if ps.N < multipathMinSamples {
					tr.reject(pt, CandidateTrace{
						Phase: "multipath", Via: ps.Route, Reason: RejectInsufficientSamples,
						Samples: ps.N, NeedSamples: multipathMinSamples,
					})
					continue
				}
				if ps.P50 > primary.P50+multipathToleranceMS {
					tr.reject(pt, CandidateTrace{
						Phase: "multipath", Via: ps.Route, Reason: RejectGapBelowThreshold,
						GapMS: primary.P50 - ps.P50, NeedGapMS: -multipathToleranceMS,
					})
					continue
				}
			}
			if ps.RetransFrac > MultipathMaxLossFrac {
				tr.reject(pt, CandidateTrace{Phase: "multipath", Via: ps.Route, Reason: RejectLossyPath})
				continue
			}
			info, ok := inv.InterfaceByID(ps.Route.EgressIF)
			if !ok {
				tr.reject(pt, CandidateTrace{Phase: "multipath", Via: ps.Route, Reason: RejectNoInterface})
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
				tr.reject(pt, CandidateTrace{Phase: "multipath", Via: ps.Route, Reason: RejectSamePort})
			case m.hdrm < rate:
				tr.reject(pt, CandidateTrace{
					Phase: "multipath", Via: ps.Route, Reason: RejectWouldExceedTarget,
					LoadBps: base, MoveBps: rate, LimitBps: limit,
				})
			case len(members) == 0 || pathCost(ps) < pathCost(members[0].stat):
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

		if !assignShares(members, rate) {
			worst := &members[0]
			tr.reject(pt, CandidateTrace{
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
				if int(math.Round(100*m.share/rate)) >= MultipathMinWeightPct {
					kept = append(kept, m)
				}
			}
			if len(kept) == len(members) || len(kept) == 0 {
				break
			}
			members = kept
			if !assignShares(members, rate) {
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

		// Hysteresis: same members within multipathHysteresisPct of the
		// installed weights -> re-affirm the installed set verbatim
		// (refreshing the rate accounting); the injector sees an
		// identical announcement and emits no updates. Only a new or
		// changed set is rendered.
		var o Override
		changed := true
		if po, ok := prev[rep.Prefix]; ok && sameMembers(po.Multipath, fresh) {
			if ro, kept := reaffirm(po, plan, load, capOf, alloc, &pending); kept {
				o, changed = ro, false
			}
		}
		if changed {
			o = buildOverride(rep.Prefix, plan, members[0].stat, fresh, rate, rep.GapMS, primary, congested, util, prev[rep.Prefix].Reason)
		}

		for _, pw := range o.Multipath {
			tr.accept(pt, "multipath", pw.Via, load[pw.ToIF], pw.RateBps,
				alloc.Target*capOf(pw.ToIF), 0)
		}
		if len(o.Multipath) > 0 {
			pt.outcome(OutcomeMultipath, o.Via, o.Reason)
		} else {
			tr.accept(pt, "multipath", o.Via, load[o.ToIF], rate, alloc.Target*capOf(o.ToIF), 0)
			pt.outcome(OutcomePerfMoved, o.Via, o.Reason)
		}
		applyShares(load, prefIF, o)
		if !changed {
			reaffirmed = append(reaffirmed, len(out))
		}
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
	packMembers(out, reaffirmed)
	return out
}

// assignShares distributes rate across members in proportion to
// headroom discounted by RTT and loss, clamping members at their
// target-utilization bound and re-spreading the excess. Returns false
// if the member set cannot absorb the rate below target.
func assignShares(members []mpMember, rate float64) bool {
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
			m.weight = spare / pathCost(m.stat)
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

// pathCost is a path's loss-discounted median RTT, P50 × (1 +
// multipathRetransPenalty × RetransFrac): the RTT half of a member's
// weight, and the whole of the k = 1 choice.
func pathCost(ps *altpath.PathStat) float64 {
	return ps.P50 * (1 + multipathRetransPenalty*ps.RetransFrac)
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

// packMembers moves the member sets of out[i], for each i in idx, into
// shared blocks of packBlock members, the last one sized to what is
// left, so the blocks carry almost no slack. The re-affirmed sets it
// packs repeat their prior's members and weights, and the controller's
// prior is what the injector holds, so the injector keeps its own copy
// and only the cycle's report holds the blocks: a few allocations a
// cycle, freed with the report. A changed set is what the injector
// keeps for as long as it stays installed, so buildOverride gives each
// its own allocation.
func packMembers(out []Override, idx []int) {
	left := 0
	for _, i := range idx {
		left += len(out[i].Multipath)
	}
	var block []PathWeight
	for _, i := range idx {
		ms := out[i].Multipath
		if cap(block)-len(block) < len(ms) {
			block = make([]PathWeight, 0, max(len(ms), min(left, packBlock)))
		}
		at := len(block)
		block = append(block, ms...)
		out[i].Multipath = block[at:len(block):len(block)]
		left -= len(ms)
	}
}

// packBlock is packMembers' block size in members. The Go allocator
// puts an 8-byte header in front of a pointerful object over 512 bytes,
// so 255 members (8 160 bytes) fill its 8 KiB size class, where 256
// would take the 9 472-byte class and waste 14 %.
const packBlock = 255

// buildOverride renders a final member set into an Override: pws when
// it has weights (copied; the caller reuses pws), else a plain
// whole-prefix perf override onto the single non-preferred member best.
// Its reason starts "alt path" (the injector tags those CommunityPerf).
// prevReason is the installed override's reason: when the new text is
// the same, the installed string is reused.
func buildOverride(prefix netip.Prefix, plan *PrefixPlan, best *altpath.PathStat, pws []PathWeight, rate, gapMS float64, primary *altpath.PathStat, congested bool, util float64, prevReason string) Override {
	prefIF := plan.Preferred.EgressIF
	var buf [96]byte
	if len(pws) == 0 {
		return Override{
			Prefix:  prefix,
			Via:     best.Route,
			FromIF:  prefIF,
			ToIF:    best.Route.EgressIF,
			RateBps: rate,
			Reason:  reuseString(appendPerfReason(buf[:0], best, primary, util), prevReason),
		}
	}
	pws = slices.Clone(pws)
	return Override{
		Prefix:    prefix,
		Via:       pws[0].Via,
		FromIF:    prefIF,
		ToIF:      pws[0].ToIF,
		RateBps:   rate,
		Multipath: pws,
		Reason:    reuseString(appendMultipathReason(buf[:0], pws, gapMS, congested, util), prevReason),
	}
}

// reuseString returns prev when it spells b, else b as a new string.
func reuseString(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// appendPerfReason appends a whole-prefix move's reason: "alt path %.0fms
// faster (p50 %.0f vs %.0f)". A member no faster than the primary wins
// only on the primary's loss or its port's congestion: the reason names
// those, not a negative gain.
func appendPerfReason(b []byte, best, primary *altpath.PathStat, util float64) []byte {
	b = append(b, "alt path "...)
	if primary.P50-best.P50 < 0.5 {
		b = append(b, "(p50 "...)
		b = strconv.AppendFloat(b, best.P50, 'f', 0, 64)
		b = append(b, " vs "...)
		b = strconv.AppendFloat(b, primary.P50, 'f', 0, 64)
		b = append(b, "; primary loss "...)
		b = strconv.AppendFloat(b, 100*primary.RetransFrac, 'f', 0, 64)
		b = append(b, "%, preferred util "...)
		b = strconv.AppendFloat(b, util, 'f', 2, 64)
		return append(b, ')')
	}
	b = strconv.AppendFloat(b, primary.P50-best.P50, 'f', 0, 64)
	b = append(b, "ms faster (p50 "...)
	b = strconv.AppendFloat(b, best.P50, 'f', 0, 64)
	b = append(b, " vs "...)
	b = strconv.AppendFloat(b, primary.P50, 'f', 0, 64)
	return append(b, ')')
}

// appendMultipathReason appends a weighted set's reason: "multipath
// %d-way %s (%s)" with the weights joined by "/" and why the split
// fired: "measured gap", "preferred util %.2f", or "gap %.0fms + util
// %.2f".
func appendMultipathReason(b []byte, pws []PathWeight, gapMS float64, congested bool, util float64) []byte {
	b = append(b, "multipath "...)
	b = strconv.AppendInt(b, int64(len(pws)), 10)
	b = append(b, "-way "...)
	for i, pw := range pws {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(pw.WeightPct), 10)
	}
	switch {
	case gapMS >= 0 && congested:
		b = append(b, " (gap "...)
		b = strconv.AppendFloat(b, gapMS, 'f', 0, 64)
		b = append(b, "ms + util "...)
		b = strconv.AppendFloat(b, util, 'f', 2, 64)
	case congested:
		b = append(b, " (preferred util "...)
		b = strconv.AppendFloat(b, util, 'f', 2, 64)
	default:
		b = append(b, " (measured gap"...)
	}
	return append(b, ')')
}

// sameMembers reports whether the installed and freshly-computed member
// sets have identical routes and every weight within
// multipathHysteresisPct points.
func sameMembers(old, fresh []PathWeight) bool {
	if len(old) != len(fresh) || len(old) == 0 {
		return false
	}
	for _, pw := range fresh {
		i := slices.IndexFunc(old, func(o PathWeight) bool { return o.Via.PeerAddr == pw.Via.PeerAddr })
		if i < 0 {
			return false
		}
		if d := old[i].WeightPct - pw.WeightPct; d > multipathHysteresisPct || -d > multipathHysteresisPct {
			return false
		}
	}
	return true
}

// reaffirm re-emits a previously-installed multipath override against
// the current plan: member routes must still exist among the plan's
// routes and every member must still fit below target at the refreshed
// rate. The re-emitted members are appended to pending, the call's
// scratch, until packMembers moves them. Returns false if the installed
// set is no longer valid.
func reaffirm(po Override, plan *PrefixPlan, load map[int]float64, capOf func(int) float64, alloc AllocatorConfig, pending *[]PathWeight) (Override, bool) {
	if len(po.Multipath) == 0 {
		return Override{}, false
	}
	current := func(peer netip.Addr) bool {
		return plan.Preferred.PeerAddr == peer ||
			slices.ContainsFunc(plan.Alternates, func(alt *rib.Route) bool { return alt.PeerAddr == peer })
	}
	rate := plan.RateBps
	prefIF := plan.Preferred.EgressIF
	for _, pw := range po.Multipath {
		if !current(pw.Via.PeerAddr) {
			return Override{}, false
		}
		base := load[pw.ToIF]
		if pw.ToIF == prefIF {
			base -= rate
		}
		if base+rate*float64(pw.WeightPct)/100 > alloc.Target*capOf(pw.ToIF) {
			return Override{}, false
		}
	}
	at := len(*pending)
	for _, pw := range po.Multipath {
		*pending = append(*pending, PathWeight{Via: pw.Via, ToIF: pw.ToIF, WeightPct: pw.WeightPct, RateBps: rate * float64(pw.WeightPct) / 100})
	}
	o := po
	o.Multipath = (*pending)[at:len(*pending):len(*pending)]
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
