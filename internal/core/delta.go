package core

import (
	"net/netip"
	"slices"

	"edgefabric/internal/rib"
)

// Delta-driven projection: instead of rebuilding the whole Projection
// from a fresh demand scan and a full-table snapshot every cycle,
// ProjectDelta keeps the previous cycle's Projection alive and edits
// exactly what moved:
//
//   - Route churn comes from the table's mutation journal
//     (rib.Table.ChangedSince): only prefixes the BMP feeds actually
//     touched get a fresh route snapshot and a re-plan.
//   - Demand churn comes from scanning the cycle's rate map (O(active
//     demand), never O(table)): a prefix whose routes are clean and
//     whose rate moved gets an in-place rate refresh — no snapshot, no
//     new plan, no index rebuild.
//   - Everything else — the overwhelming majority of a million-prefix
//     table in steady state — is untouched: its plan, its byIF bucket
//     slot, and its contribution to the projected interface loads all
//     carry over by pointer.
//
// A periodic full sweep (FullSweepEvery) rebuilds from scratch as a
// safety pass, resetting any accumulated floating-point drift in the
// incrementally-maintained load sums and re-validating the whole
// projection against the table; journal overflow (a reader too far
// behind) also falls back to the sweep. With both epsilons zero the
// delta path is decision-equivalent to Project — see delta_test.go.

// DeltaStats reports what one ProjectDelta cycle did.
type DeltaStats struct {
	// Full marks a cycle that fell back to a full rebuild; FullReason
	// says why (first cycle, periodic sweep, journal overflow).
	Full       bool
	FullReason string
	// Changed counts route-journal entries consumed (duplicates
	// included).
	Changed int
	// Recomputed counts prefixes re-planned from a fresh route
	// snapshot; RateOnly counts in-place demand refreshes that needed
	// no snapshot.
	Recomputed int
	RateOnly   int
	// Removed counts prefixes dropped from the projection because
	// their demand vanished.
	Removed int
	// Live is the number of positive-demand prefixes this cycle.
	Live int
	// Unchanged reports that the projection's routed state (plans,
	// interface loads, per-interface indexes) is identical to the
	// previous cycle's: the allocator would decide exactly the same,
	// so its previous result can be reused (see AllocateDelta).
	Unchanged bool
	// HeavyThr is the heavy-hitter rate threshold applied this cycle
	// (0 = every prefix treated exactly).
	HeavyThr float64
}

// defaultFullSweepEvery is the delta-cycle cadence of the full-rebuild
// safety pass when Projector.FullSweepEvery is zero.
const defaultFullSweepEvery = 64

// hhRefreshEvery is the delta-cycle cadence of the heavy-hitter
// threshold refresh. The K-th-largest quickselect is O(live demand), so
// running it every cycle would dominate million-prefix steady state;
// the threshold drifts with aggregate demand (diurnal timescales), so a
// few cycles of staleness is immaterial. Full sweeps always refresh.
const hhRefreshEvery = 8

// ProjectDelta builds the cycle's Projection incrementally from the
// previous one, recomputing only prefixes whose routes changed (per the
// table's mutation journal) or whose demand moved beyond the applicable
// epsilon. The returned Projection is owned by the Projector and
// mutated in place on subsequent calls: callers must not retain it
// across cycles. The first call, every FullSweepEvery-th call, and any
// call that outran the table's journal rebuild from scratch.
//
// Demand keys must be canonical (masked) prefixes — the same form the
// table journals — or route changes cannot be matched to demand
// entries. The sFlow collector and the simulators satisfy this.
func (pj *Projector) ProjectDelta(routes *rib.Table, demand map[netip.Prefix]float64) (*Projection, DeltaStats) {
	st := DeltaStats{HeavyThr: pj.hhThr}

	sweepEvery := pj.FullSweepEvery
	if sweepEvery == 0 {
		sweepEvery = defaultFullSweepEvery
	}
	switch {
	case pj.cur == nil:
		return pj.fullSweep(routes, demand, &st, "first cycle")
	case sweepEvery > 0 && pj.sinceSweep >= sweepEvery:
		return pj.fullSweep(routes, demand, &st, "periodic safety sweep")
	}

	changed, now, ok := routes.ChangedSince(pj.lastVer, pj.changedBuf)
	if !ok {
		return pj.fullSweep(routes, demand, &st, "route journal overflow")
	}
	pj.changedBuf = changed
	st.Changed = len(changed)

	pj.seq++
	pj.sinceSweep++
	cur := pj.cur

	// Dirty pre-pass: journal-touched prefixes that carry demand get a
	// fresh route snapshot and a re-plan before the demand scan; their
	// records end up stamped with this cycle's seq, which the scan reads
	// as "already handled". One without demand loses its record here:
	// left to the removal pass, which a striding cycle can skip, it
	// would keep routes read before the change and serve them if the
	// demand came back. Everything here is O(route churn), and it keeps
	// the scan itself free of per-entry dirty-set lookups.
	snapP, snapR := pj.snapPrefixes[:0], pj.snapRates[:0]
	for _, p := range changed {
		if bps := demand[p]; bps > 0 {
			snapP = append(snapP, p)
			snapR = append(snapR, bps)
		} else if rec := pj.record(p); rec != nil {
			pj.dropRecord(rec)
			st.Removed++
		}
	}
	st.Recomputed = pj.recompute(routes, snapP, snapR)

	// Demand scan: O(active demand), with the per-entry cost kept
	// minimal — heavy hitters and this cycle's tail stripe pay one
	// record lookup; off-stripe tail entries pay none at all and coast
	// on their recorded rate until their stripe rotates around (or the
	// periodic sweep re-reads everything).
	stride := uint64(1)
	if pj.TailStride > 1 {
		stride = uint64(pj.TailStride)
	}
	striding := pj.HeavyK > 0 && stride > 1 && pj.hhThr > 0
	phase := pj.seq % stride
	// Power-of-two strides (the common configuration) stripe with a mask
	// instead of a per-entry 64-bit division.
	strideMask := uint64(0)
	if stride&(stride-1) == 0 {
		strideMask = stride - 1
	}
	collectHH := pj.HeavyK > 0 && (pj.sinceThr+1 >= hhRefreshEvery || pj.hhThr == 0)
	// Banded refresh: only rates within a factor of two of the current
	// threshold can contain the new K-th largest — if they don't (the
	// band yields fewer than K samples, i.e. the threshold collapsed by
	// more than 2x between refreshes), updateHeavyThr zeroes the
	// threshold and the next cycle re-collects everything. Appending a
	// few-times-K band instead of every live rate keeps refresh cycles
	// indistinguishable from ordinary ones at a million prefixes.
	hhBand := 0.0
	if collectHH && pj.hhThr > 0 {
		hhBand = pj.hhThr / 2
	}
	snapP, snapR = snapP[:0], snapR[:0]
	hh := pj.hhBuf[:0]
	live := 0
	routedTouched := false
	demandBps := 0.0
	for p, bps := range demand {
		demandBps += bps
		if bps <= 0 {
			continue
		}
		live++
		if collectHH && bps >= hhBand {
			hh = append(hh, bps)
		}
		if striding && bps < pj.hhThr {
			if s := stripeOf(p); strideMask != 0 {
				if s&strideMask != phase {
					continue
				}
			} else if s%stride != phase {
				continue
			}
		}
		rec := pj.record(p)
		if rec == nil {
			// Never projected before: needs a route snapshot.
			snapP = append(snapP, p)
			snapR = append(snapR, bps)
			continue
		}
		if rec.seq == pj.seq {
			continue // re-planned by the dirty pre-pass
		}
		// Visited: the removal pass reads the stamp as "still demanded".
		rec.seq = pj.seq
		// Routes untouched since the last cycle: the record's route
		// slices are still valid whatever the demand did.
		if equalWithin(rec.RateBps, bps, pj.tolFor(rec.RateBps, bps)) {
			continue
		}
		st.RateOnly++
		if rec.Preferred != nil {
			// byIF buckets are ordered by prefix, so an in-place
			// rate change never invalidates their sort.
			cur.IfLoadBps[rec.Preferred.EgressIF] += bps - rec.RateBps
			routedTouched = true
		} else {
			cur.UnroutedBps += bps - rec.RateBps
		}
		rec.RateBps = bps
	}
	pj.snapPrefixes, pj.snapRates = snapP, snapR
	st.Live = live
	st.Recomputed += pj.recompute(routes, snapP, snapR)

	// Removal pass: there is one record per projected or unrouted
	// prefix, and records are only ever created for live-demand
	// prefixes, so more records than live prefixes means demand vanished
	// somewhere. Every record the scan or a re-plan visited carries this
	// cycle's stamp; only when the scan skipped off-stripe entries does
	// an unstamped record need a demand probe to tell coasting from
	// gone. (With TailStride > 1 a brand-new off-stripe tail prefix can
	// make the records lag the live set by a few cycles in the other
	// direction; it joins when its stripe comes up, at which point any
	// simultaneous removal surfaces here too.)
	if len(cur.Plans)+len(pj.unrouted) > live {
		for _, recs := range [2]map[netip.Prefix]*PrefixPlan{cur.Plans, pj.unrouted} {
			for _, rec := range recs {
				if rec.seq == pj.seq || striding && demand[rec.Prefix] > 0 {
					continue
				}
				pj.dropRecord(rec)
				st.Removed++
			}
		}
	}

	pj.lastVer = now
	pj.hhBuf = hh
	cur.HeavyThrBps = st.HeavyThr
	cur.DemandBps = demandBps
	if collectHH {
		pj.updateHeavyThr(hh)
		pj.sinceThr = 0
	} else {
		pj.sinceThr++
	}
	st.Unchanged = st.Recomputed == 0 && st.Removed == 0 && !routedTouched
	return cur, st
}

// ResetDelta discards the projector's incremental state; the next
// ProjectDelta rebuilds from scratch. The controller calls it after a
// recovered cycle panic, when the live projection can no longer be
// trusted.
func (pj *Projector) ResetDelta() {
	pj.cur = nil
}

// fullSweep rebuilds the projection from scratch via Project and
// re-anchors the delta state (live projection, journal cursor) to it.
func (pj *Projector) fullSweep(routes *rib.Table, demand map[netip.Prefix]float64, st *DeltaStats, reason string) (*Projection, DeltaStats) {
	st.Full = true
	st.FullReason = reason
	// Read the version before the snapshot inside Project: mutations
	// landing in between are journaled above this mark and simply
	// replayed as dirty next cycle — recomputation is idempotent.
	now := routes.Version()
	proj := pj.Project(routes, demand)
	// The table-sized scratch is dropped, not held for the next sweep
	// many cycles away; delta cycles regrow views to the churn's size.
	pj.scratch, pj.rates, pj.views = nil, nil, nil
	pj.cur = proj
	pj.lastVer = now
	pj.sinceSweep = 0
	pj.sinceThr = 0 // Project just refreshed the heavy threshold
	st.Live = len(proj.Plans) + len(pj.unrouted)
	st.Recomputed = len(proj.Plans)
	return proj, *st
}

// recompute re-plans the given prefixes (rates aligned) from one bulk
// route snapshot and returns how many it re-planned: a prefix the
// journal lists twice is re-planned once, its record's stamp marking it
// done.
func (pj *Projector) recompute(routes *rib.Table, prefixes []netip.Prefix, rates []float64) int {
	if len(prefixes) == 0 {
		return 0
	}
	pj.views = routes.SnapshotRoutesInto(prefixes, pj.views)
	// Views share the table's route slices; held past the call they
	// would pin slices the RIB has since replaced.
	defer clear(pj.views)
	n := 0
	for i, p := range prefixes {
		rec := pj.record(p)
		if rec != nil && rec.seq == pj.seq {
			continue
		}
		pj.applyRecompute(rec, p, rates[i], pj.views[i])
		n++
	}
	return n
}

// applyRecompute re-plans one prefix from a fresh route view and splices
// the result into the live projection, preserving plan pointers (and so
// byIF bucket slots) whenever the prefix stays routed. rec is the
// prefix's record, nil when it has none yet.
func (pj *Projector) applyRecompute(rec *PrefixPlan, p netip.Prefix, bps float64, view rib.RouteView) {
	cur := pj.cur
	organic := organicRoutes(view)
	switch {
	case rec != nil && rec.Preferred != nil && organic != nil:
		// Routed before and after: rewrite the plan in place so
		// cur.Plans and the byIF bucket keep their pointer.
		oldIF, newIF := rec.Preferred.EgressIF, organic[0].EgressIF
		cur.IfLoadBps[oldIF] -= rec.RateBps
		rec.Preferred, rec.Alternates = organic[0], organic[1:]
		if newIF != oldIF {
			cur.bucketRemove(rec, oldIF)
			cur.bucketAdd(rec, newIF)
		}
		cur.IfLoadBps[newIF] += bps
	case rec != nil && rec.Preferred != nil:
		// Routed → unrouted: drop the plan, which holders of last
		// cycle's pointers may still read, and note the prefix afresh.
		pj.dropRecord(rec)
		rec = pj.noteUnrouted(p)
		cur.UnroutedBps += bps
	case organic == nil:
		// New or previously-unrouted prefix, still unrouted.
		if rec == nil {
			rec = pj.noteUnrouted(p)
		}
		cur.UnroutedBps -= rec.RateBps
		cur.UnroutedBps += bps
	default:
		// New or previously-unrouted prefix gained a route; an unrouted
		// note, which nothing outside the projector ever saw, becomes
		// the plan.
		if rec == nil {
			rec = pj.alloc.new()
			rec.Prefix = p
		} else {
			pj.dropRecord(rec)
		}
		rec.Preferred, rec.Alternates = organic[0], organic[1:]
		cur.Plans[p] = rec
		cur.bucketAdd(rec, organic[0].EgressIF)
		cur.IfLoadBps[organic[0].EgressIF] += bps
	}
	rec.RateBps, rec.gen, rec.seq = bps, view.Gen, pj.seq
}

// noteUnrouted creates the record of a demanded prefix with no organic
// route.
func (pj *Projector) noteUnrouted(p netip.Prefix) *PrefixPlan {
	if pj.unrouted == nil {
		pj.unrouted = make(map[netip.Prefix]*PrefixPlan)
	}
	rec := pj.alloc.new()
	rec.Prefix = p
	pj.unrouted[p] = rec
	return rec
}

// dropRecord takes a record, and the load it accounts for, out of the
// live projection.
func (pj *Projector) dropRecord(rec *PrefixPlan) {
	cur := pj.cur
	if rec.Preferred == nil {
		cur.UnroutedBps -= rec.RateBps
		delete(pj.unrouted, rec.Prefix)
		return
	}
	ifID := rec.Preferred.EgressIF
	cur.IfLoadBps[ifID] -= rec.RateBps
	delete(cur.Plans, rec.Prefix)
	cur.bucketRemove(rec, ifID)
}

// bucketAdd appends a plan to an interface's byIF bucket, recording its
// slot for O(1) removal.
func (proj *Projection) bucketAdd(plan *PrefixPlan, ifID int) {
	b := proj.byIF[ifID]
	plan.pos = len(b)
	proj.byIF[ifID] = append(b, plan)
	proj.ifSorted[ifID] = false
}

// bucketRemove swap-removes a plan from an interface's byIF bucket by
// its recorded slot; an interface left with no plans carries no
// projected load.
func (proj *Projection) bucketRemove(plan *PrefixPlan, ifID int) {
	b := proj.byIF[ifID]
	pos := plan.pos
	if uint(pos) >= uint(len(b)) || b[pos] != plan {
		// Slots are exact by construction; tolerate corruption with a
		// scan rather than dropping load accounting on the floor.
		if pos = slices.Index(b, plan); pos < 0 {
			return
		}
	}
	last := len(b) - 1
	if pos != last {
		b[pos] = b[last]
		b[pos].pos = pos
		proj.ifSorted[ifID] = false
	}
	b[last] = nil
	proj.byIF[ifID] = b[:last]
	if last == 0 {
		delete(proj.IfLoadBps, ifID)
	}
}

// stripeOf maps a prefix to its tail stripe. The low byte is the
// fastest-varying byte of the synthetic and real-world address layouts
// (the /24's third octet, the /48's sixth byte), so consecutive
// prefixes spread evenly across stripes.
func stripeOf(p netip.Prefix) uint64 {
	a := p.Addr()
	if a.Is4() {
		b := a.As4()
		return uint64(b[3])<<24 | uint64(b[0])<<16 | uint64(b[1])<<8 | uint64(b[2])
	}
	b := a.As16()
	return uint64(b[2])<<24 | uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// tolFor returns the relative demand tolerance for reusing a prefix's
// plan: heavy hitters (at or above the heavy threshold on either the
// cached or the incoming rate) always use Epsilon; tail prefixes may
// use the coarser TailEpsilon. With HeavyK unset the threshold is zero
// and every prefix is heavy — plain Epsilon semantics.
func (pj *Projector) tolFor(oldRate, newRate float64) float64 {
	tol := pj.Epsilon
	if pj.TailEpsilon > tol && pj.hhThr > 0 && oldRate < pj.hhThr && newRate < pj.hhThr {
		tol = pj.TailEpsilon
	}
	return tol
}

// updateHeavyThr sets the next cycle's heavy-hitter threshold to the
// HeavyK-th largest of the collected rates. The one-cycle lag keeps the
// threshold deterministic for the cycle it applies to. rates may be a
// banded subset (everything >= half the previous threshold): fewer than
// K samples then means the true K-th largest fell below the band, so
// the threshold resets to zero and the next cycle collects unbanded.
// rates is permuted in place.
func (pj *Projector) updateHeavyThr(rates []float64) {
	if pj.HeavyK <= 0 || len(rates) <= pj.HeavyK {
		pj.hhThr = 0
		return
	}
	pj.hhThr = kthLargest(rates, pj.HeavyK)
}

// kthLargest returns the k-th largest value (1-based) via iterative
// quickselect with median-of-three pivoting; a is permuted in place.
func kthLargest(a []float64, k int) float64 {
	lo, hi, want := 0, len(a)-1, k-1
	for lo < hi {
		// Median-of-three pivot, moved to a[lo].
		mid := lo + (hi-lo)/2
		if a[mid] > a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] > a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[mid] > a[hi] {
			a[mid], a[hi] = a[hi], a[mid]
		}
		pivot := a[hi]
		// Partition descending: everything > pivot left of i.
		i := lo
		for j := lo; j < hi; j++ {
			if a[j] > pivot {
				a[i], a[j] = a[j], a[i]
				i++
			}
		}
		a[i], a[hi] = a[hi], a[i]
		switch {
		case i == want:
			return a[i]
		case i < want:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
	return a[want]
}

// AllocState carries the allocator's cross-cycle reuse state for
// AllocateDelta: the previous cycle's result and the prior override set
// that produced it.
type AllocState struct {
	last      *AllocResult
	lastPrior OverrideSet // immutable, so kept without a copy
	lastThr   float64
}

// samePrior reports whether two prior sets would drive the sticky pass
// identically: same prefixes, same detour route, same split/rate shape,
// same member routes and weights.
func samePrior(a, b OverrideSet) bool {
	return slices.EqualFunc(a, b, func(oa, ob Override) bool {
		return oa.Prefix == ob.Prefix && oa.Via == ob.Via && oa.SplitOf == ob.SplitOf &&
			oa.FromIF == ob.FromIF && oa.ToIF == ob.ToIF && oa.RateBps == ob.RateBps &&
			slices.EqualFunc(oa.Multipath, ob.Multipath, func(x, y PathWeight) bool {
				return x.Via == y.Via && x.ToIF == y.ToIF && x.WeightPct == y.WeightPct
			})
	})
}

// AllocateDelta is AllocateStickyTraced with the projection delta
// threaded through: when the cycle's DeltaStats prove the projection's
// routed state is identical to the previous cycle's (no prefix
// re-planned, none removed, no routed rate moved — so no interface's
// utilization crossed any band) and the prior override set is the same,
// the allocator's inputs are bit-identical and its previous result is
// returned without a scan. AllocateStickyTraced is deterministic over
// its inputs, so the reuse is exact, not approximate.
//
// A traced call (tr != nil) never reuses: reusing a result would leave
// the cycle without fresh per-prefix decision traces. It keeps no reuse
// state either, and empties st, so an untraced call after it cannot
// reuse a result from before it.
func AllocateDelta(proj *Projection, inv *Inventory, cfg AllocatorConfig, prior OverrideSet, tr *CycleTrace, ds *DeltaStats, st *AllocState) *AllocResult {
	if tr != nil {
		*st = AllocState{}
		return AllocateStickyTraced(proj, inv, cfg, prior, tr)
	}
	if ds != nil && ds.Unchanged && st.last != nil &&
		st.lastThr == proj.HeavyThrBps && samePrior(prior, st.lastPrior) {
		return st.last
	}
	res := AllocateStickyTraced(proj, inv, cfg, prior, tr)
	st.last = res
	st.lastThr = proj.HeavyThrBps
	st.lastPrior = prior
	return res
}
