package core

import (
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"edgefabric/internal/rib"
)

// TrafficSource supplies the controller's demand estimate: egress bits
// per second per destination prefix. The sFlow collector
// (sflow.Collector) implements it; experiments may plug in exact demand.
type TrafficSource interface {
	// Rates returns the current per-prefix egress rates in bps.
	Rates() map[netip.Prefix]float64
}

// trafficRatesInto is an optional TrafficSource upgrade: merge the
// rates into a caller-owned map (cleared first, allocated when nil),
// letting the cycle reuse one demand map instead of allocating a fresh
// one per cycle. sflow.Collector implements it.
type trafficRatesInto interface {
	RatesInto(dst map[netip.Prefix]float64) map[netip.Prefix]float64
}

// trafficRate is an optional TrafficSource upgrade: read one prefix's
// rate without materializing the full map (the Explain endpoint's
// single-prefix query). sflow.Collector implements it.
type trafficRate interface {
	Rate(p netip.Prefix) float64
}

// PrefixPlan is the projection's view of one prefix: its demand, the
// route BGP would pick absent overrides, and the preference-ordered
// alternates. Preferred and Alternates may share the route store's
// internal copy-on-write slices; treat them as read-only.
type PrefixPlan struct {
	Prefix netip.Prefix
	// RateBps is the measured demand.
	RateBps float64
	// Preferred is the BGP-preferred organic route (never a controller
	// injection).
	Preferred *rib.Route
	// Alternates are the remaining organic routes, best first.
	Alternates []*rib.Route

	// The plan is also the one record the projector and the allocator
	// keep per prefix, so neither holds a prefix-keyed map beside Plans:
	// pos is the plan's slot in its Projection.byIF bucket, gen the table
	// generation its routes were read at, seq the projection cycle that
	// last visited it, and moved the epoch of the allocator call that
	// last detoured it. A record with a nil Preferred is the projector's
	// note of a demanded prefix with no organic route (RateBps is the
	// demand last seen); it lives in Projector.unrouted only, never in
	// Plans or a bucket.
	pos   int
	gen   uint64
	seq   uint64
	moved uint64
}

// Projection is the controller's model of the PoP for one cycle: what
// every interface would carry if all demand followed BGP's preferred
// routes, with no overrides installed.
//
// Ignoring the controller's own injected routes here is load-bearing
// (paper §4.2): if projected load reflected installed overrides, the
// demand that motivated an override would vanish from the overloaded
// interface's projection one cycle later, the override would be
// withdrawn, and the system would oscillate.
//
// A Projection is built once per cycle and then read by the allocator;
// it is not safe for concurrent use (PrefixesOnInterface sorts its
// per-interface index lazily).
type Projection struct {
	// IfLoadBps is projected offered load per interface ID.
	IfLoadBps map[int]float64
	// Plans maps each demanded prefix to its routing options.
	Plans map[netip.Prefix]*PrefixPlan
	// UnroutedBps is demand for prefixes with no organic route.
	UnroutedBps float64
	// DemandBps is the sum of the whole demand map the projection was
	// built from, summed by the scan that walks it anyway.
	DemandBps float64
	// HeavyThrBps is the heavy-hitter rate threshold in force for this
	// cycle (0 = every prefix is tracked exactly). The allocator uses
	// it to consult heavy plans first when draining an overload.
	HeavyThrBps float64

	// byIF indexes plans by preferred egress interface, built during
	// projection so the allocator's repeated PrefixesOnInterface calls
	// don't rescan every plan. Lists are sorted lazily on first access;
	// ifSorted records which already are. byIF[if][plan.pos] == plan, so
	// the delta path (ProjectDelta) moves or removes plans in O(1).
	byIF     map[int][]*PrefixPlan
	ifSorted map[int]bool
}

// projectParallelMin is the demanded-prefix count below which projection
// runs on a single goroutine; under it, fan-out overhead dominates any
// sharding win. Overridable in tests to force the parallel path.
var projectParallelMin = 4096

// Projector builds Projections and carries the cross-cycle plan cache:
// a PrefixPlan is reused verbatim when the prefix's route-table
// generation is unchanged and its demand moved by no more than Epsilon,
// so steady-state cycles recompute only the churn. The zero value is
// ready to use. A Projector is not safe for concurrent use; the
// controller owns one per control loop.
type Projector struct {
	// Epsilon is the relative per-prefix demand change below which a
	// cached plan (including its demand figure) is reused verbatim.
	// Zero reuses plans only when routes and exact demand are
	// unchanged; route changes always force recomputation.
	Epsilon float64
	// Workers caps the projection fan-out. 0 means GOMAXPROCS.
	Workers int
	// FullSweepEvery is the delta-cycle cadence of ProjectDelta's
	// full-rebuild safety pass. 0 defaults to defaultFullSweepEvery;
	// negative disables the periodic sweep (overflow fallback remains).
	FullSweepEvery int
	// HeavyK enables heavy-hitter prioritization: the top-K prefixes
	// by rate are always tracked exactly (Epsilon tolerance) while the
	// tail may coast on TailEpsilon. 0 treats every prefix exactly.
	HeavyK int
	// TailEpsilon is the relative demand tolerance applied to tail
	// (non-heavy-hitter) prefixes when HeavyK is set. Values at or
	// below Epsilon have no effect.
	TailEpsilon float64
	// TailStride, with HeavyK set, makes ProjectDelta's demand scan
	// visit each tail (below-threshold) prefix only every
	// TailStride-th cycle, rotating through address stripes; heavy
	// hitters, route changes, and rates crossing the heavy threshold
	// are still applied every cycle. Values <= 1 visit everything
	// every cycle.
	TailStride int

	// seq numbers projection cycles. cache is the plan cache, one record
	// per routed prefix: it IS the latest projection's Plans map (cur's,
	// on the delta path), so caching a plan costs no second map. unrouted
	// holds the records of demanded prefixes with no organic route.
	seq      uint64
	cache    map[netip.Prefix]*PrefixPlan
	unrouted map[netip.Prefix]*PrefixPlan
	views    []rib.RouteView
	scratch  []netip.Prefix
	rates    []float64

	// Delta state (see delta.go): the live projection edited in place,
	// the journal cursor into the route table, cycles since the last
	// full sweep, and reusable scratch for the dirty machinery.
	cur          *Projection
	lastVer      uint64
	sinceSweep   int
	changedBuf   []netip.Prefix
	snapPrefixes []netip.Prefix
	snapRates    []float64
	alloc        planChunk
	hhThr        float64
	hhBuf        []float64
	sinceThr     int
}

// projShard accumulates one worker's share of the projection. records
// holds the shard's plans and, with a nil Preferred, its unrouted notes.
type projShard struct {
	records  []*PrefixPlan
	ifLoad   map[int]float64
	unrouted float64
	alloc    planChunk
}

// planChunk hands out PrefixPlans from fixed-size blocks, trading one
// allocation per chunkSize plans for the per-plan allocation a naive
// &PrefixPlan{} would cost. Blocks never move, so handed-out pointers
// stay valid.
type planChunk struct {
	block []PrefixPlan
}

const planChunkSize = 512

func (a *planChunk) new() *PrefixPlan {
	if len(a.block) == 0 {
		a.block = make([]PrefixPlan, planChunkSize)
	}
	p := &a.block[0]
	a.block = a.block[1:]
	return p
}

// Project builds a Projection from the route store and a demand
// snapshot: a one-shot projection with no cross-cycle cache. The
// controller uses a persistent Projector instead.
func Project(routes *rib.Table, demand map[netip.Prefix]float64) *Projection {
	var pj Projector
	return pj.Project(routes, demand)
}

// Project builds the cycle's Projection. The route table is read under
// a single bulk snapshot (one read-lock acquisition), the demand map is
// sharded across workers, and unchanged prefixes are served from the
// plan cache.
func (pj *Projector) Project(routes *rib.Table, demand map[netip.Prefix]float64) *Projection {
	pj.seq++
	// The cache is about to become this projection's Plans; a live delta
	// projection would no longer mirror it (fullSweep re-anchors).
	pj.cur = nil

	prefixes, rates := pj.scratch[:0], pj.rates[:0]
	demandBps := 0.0
	for p, bps := range demand {
		demandBps += bps
		if bps > 0 {
			prefixes = append(prefixes, p)
			rates = append(rates, bps)
		}
	}
	pj.scratch, pj.rates = prefixes, rates

	views := routes.SnapshotRoutesInto(prefixes, pj.views)
	pj.views = views
	// Views share the table's route slices; held past the call they
	// would pin slices the RIB has since replaced.
	defer clear(views)

	workers := pj.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(prefixes) < projectParallelMin {
		workers = 1
	}
	if workers > len(prefixes) {
		workers = 1
	}

	shards := make([]projShard, workers)
	if workers == 1 {
		pj.projectShard(&shards[0], prefixes, rates, views)
	} else {
		var wg sync.WaitGroup
		chunk := (len(prefixes) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(prefixes))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(s *projShard, lo, hi int) {
				defer wg.Done()
				pj.projectShard(s, prefixes[lo:hi], rates[lo:hi], views[lo:hi])
			}(&shards[w], lo, hi)
		}
		wg.Wait()
	}

	// Plans is sized up front: growing a million-entry map incrementally
	// spends seconds zeroing successively larger buckets.
	proj := &Projection{
		DemandBps: demandBps,
		IfLoadBps: make(map[int]float64),
		Plans:     make(map[netip.Prefix]*PrefixPlan, len(prefixes)),
		byIF:      make(map[int][]*PrefixPlan),
		ifSorted:  make(map[int]bool),
	}
	var unrouted map[netip.Prefix]*PrefixPlan
	// Merge in shard order so the result is deterministic for a given
	// shard partition.
	for i := range shards {
		s := &shards[i]
		proj.UnroutedBps += s.unrouted
		for id, bps := range s.ifLoad {
			proj.IfLoadBps[id] += bps
		}
		for _, plan := range s.records {
			if plan.Preferred == nil {
				if unrouted == nil {
					unrouted = make(map[netip.Prefix]*PrefixPlan)
				}
				unrouted[plan.Prefix] = plan
				continue
			}
			proj.Plans[plan.Prefix] = plan
			b := proj.byIF[plan.Preferred.EgressIF]
			plan.pos = len(b)
			proj.byIF[plan.Preferred.EgressIF] = append(b, plan)
		}
	}
	// Prefixes that stopped appearing in demand are evicted by not being
	// carried over.
	pj.cache, pj.unrouted = proj.Plans, unrouted
	// The threshold in force during this cycle is what the allocator
	// should see; refresh it for the next cycle afterwards (rates is
	// done feeding the shards; quickselect may permute it).
	proj.HeavyThrBps = pj.hhThr
	pj.updateHeavyThr(rates)
	return proj
}

// record returns the projector's record for a prefix — its plan when
// routed, its unrouted note otherwise — or nil when it has none.
func (pj *Projector) record(p netip.Prefix) *PrefixPlan {
	if rec, ok := pj.cache[p]; ok {
		return rec
	}
	return pj.unrouted[p]
}

// projectShard computes records for one contiguous chunk of the
// demanded prefixes into a private accumulator; rates and views are
// aligned with prefixes. It reads the cache but never writes it (the
// merge phase replaces it), so shards can run concurrently.
func (pj *Projector) projectShard(s *projShard, prefixes []netip.Prefix, rates []float64, views []rib.RouteView) {
	s.ifLoad = make(map[int]float64)
	s.records = make([]*PrefixPlan, 0, len(prefixes))
	for i, prefix := range prefixes {
		bps := rates[i]
		view := views[i]
		var plan *PrefixPlan
		switch c := pj.record(prefix); {
		case c == nil || c.gen != view.Gen || view.Routes == nil:
			plan = buildPlan(&s.alloc, prefix, bps, view)
		case c.Preferred == nil:
			// Same table state that had no organic route last time:
			// still unrouted, no need to re-filter.
		case equalWithin(c.RateBps, bps, pj.tolFor(c.RateBps, bps)):
			plan = c // routes and demand unchanged: reuse verbatim
		default:
			// Routes unchanged: reuse the filtered organic slices,
			// refresh only the rate.
			plan = s.alloc.new()
			*plan = PrefixPlan{Prefix: prefix, RateBps: bps, Preferred: c.Preferred, Alternates: c.Alternates, gen: c.gen}
		}
		if plan == nil {
			s.unrouted += bps
			plan = s.alloc.new()
			*plan = PrefixPlan{Prefix: prefix, RateBps: bps, gen: view.Gen}
		} else {
			s.ifLoad[plan.Preferred.EgressIF] += plan.RateBps
		}
		s.records = append(s.records, plan)
	}
}

// organicRoutes filters a prefix's routes down to the organic set, or
// returns nil when there is none (no routes at all, or only controller
// injections). In the common case of no injected routes (view.Injected
// == 0, tracked by the table at mutation time) the table's sorted slice
// is shared outright — no scan, no copy, no sort.
func organicRoutes(view rib.RouteView) []*rib.Route {
	if view.Injected == len(view.Routes) {
		return nil
	}
	if view.Injected == 0 {
		return view.Routes
	}
	organic := make([]*rib.Route, 0, len(view.Routes)-view.Injected)
	for _, r := range view.Routes {
		if r.PeerClass != rib.ClassController {
			organic = append(organic, r)
		}
	}
	return organic
}

// buildPlan wraps a prefix's organic routes in a plan, or returns nil
// when it has none.
func buildPlan(alloc *planChunk, prefix netip.Prefix, bps float64, view rib.RouteView) *PrefixPlan {
	organic := organicRoutes(view)
	if organic == nil {
		return nil
	}
	plan := alloc.new()
	*plan = PrefixPlan{Prefix: prefix, RateBps: bps, Preferred: organic[0], Alternates: organic[1:], gen: view.Gen}
	return plan
}

// equalWithin reports whether a and b differ by at most eps relative to
// the larger magnitude. eps <= 0 demands exact equality.
func equalWithin(a, b, eps float64) bool {
	if a == b {
		return true
	}
	if eps <= 0 {
		return false
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 0 {
		m = -m
	}
	return d <= eps*m
}

// Utilization returns projected load divided by capacity for an
// interface.
func (p *Projection) Utilization(inv *Inventory, ifID int) float64 {
	info, ok := inv.InterfaceByID(ifID)
	if !ok || info.CapacityBps == 0 {
		return 0
	}
	return p.IfLoadBps[ifID] / info.CapacityBps
}

// byPrefix orders plans by prefix, the order of a byIF bucket.
func byPrefix(a, b *PrefixPlan) int { return rib.ComparePrefixes(a.Prefix, b.Prefix) }

// PrefixesOnInterface returns the plans whose preferred route egresses
// via ifID, in stable (prefix) order. The returned slice is shared with
// the projection's index; callers must not mutate it.
func (p *Projection) PrefixesOnInterface(ifID int) []*PrefixPlan {
	if p.byIF != nil {
		out := p.byIF[ifID]
		if !p.ifSorted[ifID] {
			slices.SortFunc(out, byPrefix)
			for i, plan := range out {
				plan.pos = i
			}
			p.ifSorted[ifID] = true
		}
		return out
	}
	// Fallback for hand-constructed Projections (tests): scan all plans.
	var out []*PrefixPlan
	for _, plan := range p.Plans {
		if plan.Preferred.EgressIF == ifID {
			out = append(out, plan)
		}
	}
	slices.SortFunc(out, byPrefix)
	return out
}
