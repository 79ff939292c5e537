package netsim

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// PrefixTick is the dataplane's per-prefix result for one tick.
type PrefixTick struct {
	// DemandBps is the offered load.
	DemandBps float64
	// EgressIF is the interface the traffic left through (-1 if
	// unrouted).
	EgressIF int
	// PeerAddr identifies the route used.
	PeerAddr netip.Addr
	// Class is the peering tier of the route used.
	Class rib.PeerClass
	// Injected marks traffic carried by a controller override.
	Injected bool
	// HasSplit marks a split override: half the demand leaves via
	// SplitIF instead (the controller announced a more-specific half).
	HasSplit bool
	// SplitIF is the egress interface of the split half (valid only
	// when HasSplit).
	SplitIF int
	// SplitBps is the demand carried by the split half.
	SplitBps float64
	// Members describes the weighted multipath set carrying the prefix
	// when the controller installed one (nil for single-path
	// forwarding). EgressIF/PeerAddr/Class then describe the heaviest
	// member, and RTTms/LossFrac are demand-weighted across members.
	Members []MemberTick
	// RTTms is the experienced round-trip time including congestion
	// (of the aggregate's primary share).
	RTTms float64
	// LossFrac is the fraction of the prefix's primary-share traffic
	// lost (interface drops plus scripted path loss).
	LossFrac float64
}

// MemberTick is one weighted member of a multipath set for one tick.
type MemberTick struct {
	// EgressIF is the member's egress interface.
	EgressIF int
	// NextHop is the member route's next hop (the underlying peer).
	NextHop netip.Addr
	// WeightPct is the controller-announced share in percent.
	WeightPct int
	// Bps is the demand the member carried this tick.
	Bps float64
}

// TickStats is the dataplane's result for one tick.
type TickStats struct {
	// Time is the tick's virtual timestamp.
	Time time.Time
	// Duration is the tick length.
	Duration time.Duration
	// IfLoadBps is offered load per interface.
	IfLoadBps map[int]float64
	// IfDropsBps is dropped load per interface.
	IfDropsBps map[int]float64
	// Prefix holds the per-prefix details.
	Prefix map[netip.Prefix]*PrefixTick
	// UnroutedBps is demand with no route at all.
	UnroutedBps float64
}

// TotalDemandBps sums offered load across interfaces.
func (s *TickStats) TotalDemandBps() float64 {
	var t float64
	for _, v := range s.IfLoadBps {
		t += v
	}
	return t
}

// TotalDropsBps sums drops across interfaces.
func (s *TickStats) TotalDropsBps() float64 {
	var t float64
	for _, v := range s.IfDropsBps {
		t += v
	}
	return t
}

// Utilization returns load/capacity for an interface in stats.
func (s *TickStats) Utilization(topo *Topology, ifID int) float64 {
	ifc := topo.InterfaceByID(ifID)
	if ifc == nil || ifc.CapacityBps == 0 {
		return 0
	}
	return s.IfLoadBps[ifID] / ifc.CapacityBps
}

// Dataplane assigns per-prefix demand to egress interfaces according to
// the PoP's forwarding table (which includes any controller-injected
// overrides), models congestion, and feeds the sFlow agents.
type Dataplane struct {
	topo   *Topology
	table  *rib.Table
	perf   *PathPerf
	demand *DemandModel
	// agents maps router name to its sFlow agent; nil disables
	// sampling.
	agents map[string]*sflow.Agent
	// bestClass caches the best available class per prefix for the
	// anomaly model: an immutable snapshot, computed lazily from the
	// table and swapped whole under bestMu when the table version moves,
	// so concurrent RTTForRoute calls read it without a lock.
	bestClass atomic.Pointer[classSnapshot]
	bestMu    sync.Mutex
}

// classSnapshot is the best organic class per prefix at one table
// version.
type classSnapshot struct {
	ver  uint64
	best map[netip.Prefix]uint8
}

// NewDataplane wires a dataplane over the PoP's forwarding table.
func NewDataplane(topo *Topology, table *rib.Table, perf *PathPerf, demand *DemandModel, agents map[string]*sflow.Agent) *Dataplane {
	return &Dataplane{
		topo:   topo,
		table:  table,
		perf:   perf,
		demand: demand,
		agents: agents,
	}
}

// bestClasses returns the best organic class per prefix, recomputed
// when the table changed (ignoring controller routes, which do not
// define the "preferred class" anomalies attach to). Safe for concurrent
// use; the map is shared and must not be modified.
func (dp *Dataplane) bestClasses() map[netip.Prefix]uint8 {
	v := dp.table.Version()
	if s := dp.bestClass.Load(); s != nil && s.ver == v {
		return s.best
	}
	dp.bestMu.Lock()
	defer dp.bestMu.Unlock()
	if s := dp.bestClass.Load(); s != nil && s.ver >= v {
		return s.best // rebuilt while this call waited
	}
	m := make(map[netip.Prefix]uint8, dp.table.Len())
	dp.table.EachRoutes(func(p netip.Prefix, routes []*rib.Route) {
		best := uint8(255)
		for _, r := range routes {
			if r.PeerClass == rib.ClassController {
				continue
			}
			if uint8(r.PeerClass) < best {
				best = uint8(r.PeerClass)
			}
		}
		m[p] = best
	})
	dp.bestClass.Store(&classSnapshot{ver: v, best: m})
	return m
}

// Tick advances the dataplane by dt at virtual time t: computes offered
// load per interface from the demand model, derives congestion and
// drops, reports sampled bytes to the sFlow agents, and returns the tick
// statistics.
func (dp *Dataplane) Tick(t time.Time, dt time.Duration) *TickStats {
	bestClass := dp.bestClasses()
	stats := &TickStats{
		Time:       t,
		Duration:   dt,
		IfLoadBps:  make(map[int]float64, len(dp.topo.Interfaces)),
		IfDropsBps: make(map[int]float64),
		Prefix:     make(map[netip.Prefix]*PrefixTick, len(dp.demand.Prefixes())),
	}
	// Pass 1: route each prefix and accumulate interface load.
	viaPeer := make(map[netip.Prefix]*Peer, len(dp.demand.Prefixes()))
	for _, pi := range dp.demand.Prefixes() {
		bps := dp.demand.Rate(pi, t)
		pt := &PrefixTick{DemandBps: bps, EgressIF: -1}
		stats.Prefix[pi.Prefix] = pt
		route := dp.table.Best(pi.Prefix)
		if route == nil {
			route = dp.table.Lookup(pi.RepAddr)
		}
		if route == nil {
			stats.UnroutedBps += bps
			continue
		}
		pt.EgressIF = route.EgressIF
		pt.PeerAddr = route.PeerAddr
		// Injected overrides identify the underlying peer by next hop;
		// report the underlying tier so traffic shares stay meaningful.
		if route.PeerClass == rib.ClassController {
			pt.Injected = true
			// A weighted multipath set: the controller installed one
			// route per member slot; hash demand across them in
			// proportion to the announced weights.
			if _, _, ok := rib.ParseMultipathCommunities(route.Communities); ok {
				if members := dp.multipathMembers(pi.Prefix, bps); len(members) > 0 {
					pt.Members = members
					pt.EgressIF = members[0].EgressIF
					if peer := dp.topo.PeerByAddr(members[0].NextHop); peer != nil {
						viaPeer[pi.Prefix] = peer
						pt.Class = peer.Class
					}
					for _, m := range members {
						stats.IfLoadBps[m.EgressIF] += m.Bps
					}
					continue
				}
			}
			if peer := dp.topo.PeerByAddr(route.NextHop); peer != nil {
				viaPeer[pi.Prefix] = peer
				pt.Class = peer.Class
			}
		} else {
			pt.Class = route.PeerClass
			viaPeer[pi.Prefix] = dp.topo.PeerByAddr(route.PeerAddr)
			// Split override: a controller route on a more-specific
			// half steers half the aggregate's demand via LPM.
			if lo, hi, ok := rib.Split(pi.Prefix); ok {
				for _, half := range [2]netip.Prefix{lo, hi} {
					hr := dp.table.Best(half)
					if hr == nil || hr.PeerClass != rib.ClassController {
						continue
					}
					pt.Injected = true
					pt.HasSplit = true
					pt.SplitIF = hr.EgressIF
					pt.SplitBps = bps / 2
					bps -= pt.SplitBps
					stats.IfLoadBps[hr.EgressIF] += pt.SplitBps
					break
				}
			}
		}
		stats.IfLoadBps[route.EgressIF] += bps
	}
	// Pass 2: congestion, drops, latency, and sampling.
	for _, pi := range dp.demand.Prefixes() {
		pt := stats.Prefix[pi.Prefix]
		if pt.EgressIF < 0 {
			continue
		}
		if len(pt.Members) > 0 {
			dp.tickMultipath(pi, pt, stats, dt, bestClass[pi.Prefix])
			continue
		}
		primaryBps := pt.DemandBps - pt.SplitBps
		util := stats.Utilization(dp.topo, pt.EgressIF)
		drop := LossFraction(util)
		pt.LossFrac = drop
		var rtt float64
		if peer := viaPeer[pi.Prefix]; peer != nil {
			rtt = dp.perf.BaseRTT(pi.Prefix, peer, bestClass[pi.Prefix])
			// Scripted path loss is experienced by the prefix but is not
			// an interface drop (the loss happens beyond the egress).
			pt.LossFrac = min(1, drop+dp.perf.PathLoss(peer.Addr))
		}
		pt.RTTms = rtt + CongestionDelay(util)
		if drop > 0 {
			stats.IfDropsBps[pt.EgressIF] += primaryBps * drop
		}
		if pt.HasSplit {
			if sUtil := stats.Utilization(dp.topo, pt.SplitIF); sUtil > 1 {
				stats.IfDropsBps[pt.SplitIF] += pt.SplitBps * LossFraction(sUtil)
			}
		}
		// sFlow sampling happens on the router that owns the egress
		// interface, against offered load.
		if dp.agents != nil {
			dp.observe(pi, pt.EgressIF, primaryBps, dt)
			if pt.HasSplit {
				dp.observe(pi, pt.SplitIF, pt.SplitBps, dt)
			}
		}
	}
	if dp.agents != nil {
		for _, ag := range dp.agents {
			_ = ag.Tick(uint32(dt.Milliseconds()))
		}
	}
	return stats
}

// multipathMembers gathers the controller's installed multipath member
// routes for a prefix (one per slot, stored under synthetic per-slot
// peer addresses) and splits bps across them in proportion to the
// announced weight communities. Partial installs (a member UPDATE not
// yet delivered) degrade gracefully: the present members carry the full
// demand, renormalized.
func (dp *Dataplane) multipathMembers(p netip.Prefix, bps float64) []MemberTick {
	type slotRoute struct {
		slot int
		pct  int
		r    *rib.Route
	}
	var slots []slotRoute
	total := 0
	for _, r := range dp.table.Routes(p) {
		if r.PeerClass != rib.ClassController {
			continue
		}
		slot, pct, ok := rib.ParseMultipathCommunities(r.Communities)
		if !ok || pct <= 0 {
			continue
		}
		slots = append(slots, slotRoute{slot: slot, pct: pct, r: r})
		total += pct
	}
	if len(slots) == 0 || total <= 0 {
		return nil
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].slot < slots[b].slot })
	out := make([]MemberTick, len(slots))
	for i, s := range slots {
		out[i] = MemberTick{
			EgressIF:  s.r.EgressIF,
			NextHop:   s.r.NextHop,
			WeightPct: s.pct,
			Bps:       bps * float64(s.pct) / float64(total),
		}
	}
	return out
}

// tickMultipath computes pass-2 results for a prefix carried by a
// weighted multipath set: demand-weighted RTT and loss across members,
// per-member interface drops, and per-member sFlow observations.
// bestClass is the prefix's best organic class.
func (dp *Dataplane) tickMultipath(pi *PrefixInfo, pt *PrefixTick, stats *TickStats, dt time.Duration, bestClass uint8) {
	var rtt, loss float64
	for _, m := range pt.Members {
		w := m.Bps / pt.DemandBps
		util := stats.Utilization(dp.topo, m.EgressIF)
		drop := LossFraction(util)
		memberLoss := drop
		var base float64
		if peer := dp.topo.PeerByAddr(m.NextHop); peer != nil {
			base = dp.perf.BaseRTT(pi.Prefix, peer, bestClass)
			memberLoss = min(1, drop+dp.perf.PathLoss(peer.Addr))
		}
		rtt += w * (base + CongestionDelay(util))
		loss += w * memberLoss
		if drop > 0 {
			stats.IfDropsBps[m.EgressIF] += m.Bps * drop
		}
		if dp.agents != nil {
			dp.observe(pi, m.EgressIF, m.Bps, dt)
		}
	}
	pt.RTTms = rtt
	pt.LossFrac = loss
}

// observe reports offered bytes on an interface to its router's sFlow
// agent.
func (dp *Dataplane) observe(pi *PrefixInfo, ifID int, bps float64, dt time.Duration) {
	ifc := dp.topo.InterfaceByID(ifID)
	if ifc == nil {
		return
	}
	if ag := dp.agents[ifc.Router]; ag != nil {
		bytes := uint64(bps / 8 * dt.Seconds())
		_ = ag.ObserveBytes(pi.RepAddr, ifID, bytes)
	}
}

// RTTForRoute exposes the uncongested model RTT the dataplane would
// assign to prefix via the peer owning the given route — the alternate
// path measurement subsystem uses it to "measure" candidate paths. Safe
// for concurrent use, including beside table writes.
func (dp *Dataplane) RTTForRoute(p netip.Prefix, r *rib.Route) float64 {
	bestClass := dp.bestClasses()
	// Injected copies point at the same next hop as an organic route.
	peer := dp.topo.PeerByAddr(r.PeerAddr)
	if peer == nil {
		peer = dp.topo.PeerByAddr(r.NextHop)
	}
	if peer == nil {
		return 0
	}
	return dp.perf.BaseRTT(p, peer, bestClass[p])
}

// LossForRoute exposes the scripted transport-loss fraction on the
// route's path, the other half of the measurement subsystem's RTTSource:
// the "retransmit counters" the optimizer uses to keep demand off lossy
// alternates.
func (dp *Dataplane) LossForRoute(_ netip.Prefix, r *rib.Route) float64 {
	peer := dp.topo.PeerByAddr(r.PeerAddr)
	if peer == nil {
		peer = dp.topo.PeerByAddr(r.NextHop)
	}
	if peer == nil {
		return 0
	}
	return dp.perf.PathLoss(peer.Addr)
}

// Perf exposes the path performance model (the scenario event layer
// scripts its impairment overlay).
func (dp *Dataplane) Perf() *PathPerf { return dp.perf }
