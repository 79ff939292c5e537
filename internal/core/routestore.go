package core

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"edgefabric/internal/bmp"
	"edgefabric/internal/rib"
)

// RouteStore is the controller's copy of every route the PoP's peering
// routers learned, fed by their BMP streams. Unlike a router's Loc-RIB,
// it retains *all* routes per prefix — the allocator needs the
// alternates, not just BGP's winner.
//
// RouteStore implements bmp.Handler; wire it to one bmp.Collector
// HandleConn goroutine per monitored router.
type RouteStore struct {
	inv   *Inventory
	table *rib.Table

	// mu guards batch and serializes its ApplyBatch flushes. OnRoute
	// enqueues ops here instead of mutating the table per route, so a
	// full-table BMP dump replay costs one table write lock per
	// routeBatchSize routes rather than one per route — a concurrent
	// control cycle's snapshot reads interleave at batch boundaries
	// instead of starving. bmp.Collector flushes whenever a stream
	// drains (BatchFlusher), so quiesced state is always fully applied.
	mu    sync.Mutex
	batch []rib.BatchOp

	routesSeen    atomic.Uint64
	withdrawsSeen atomic.Uint64
	unknownPeers  atomic.Uint64
}

// routeBatchSize bounds buffered ops before an in-line flush.
const routeBatchSize = 256

// routeSlabMax bounds the routes OnRoute allocates at once, so that a
// slab stays a size-classed object: a 200-NLRI slab is a 33 KB large
// object, and what allocating one of those costs depends on how far the
// sweep of the last GC has got.
const routeSlabMax = 128

// NewRouteStore returns a store resolving peers against inv. The policy
// mirrors the routers' import policy so the controller's preference
// order matches what the routers would choose.
func NewRouteStore(inv *Inventory) *RouteStore {
	return &RouteStore{inv: inv, table: rib.NewTable(rib.DefaultPolicy())}
}

// Table exposes the underlying route table (shared, concurrency-safe).
func (s *RouteStore) Table() *rib.Table { return s.table }

// Routes returns the preference-sorted routes for a prefix.
func (s *RouteStore) Routes(p netip.Prefix) []*rib.Route { return s.table.Routes(p) }

// LookupPrefix maps an address to the most specific known prefix (used
// as the sFlow collector's PrefixMapper).
func (s *RouteStore) LookupPrefix(a netip.Addr) netip.Prefix { return s.table.LookupPrefix(a) }

// MapPrefix implements sflow.PrefixMapper.
func (s *RouteStore) MapPrefix(a netip.Addr) netip.Prefix { return s.table.LookupPrefix(a) }

// Stats reports counters: routes ingested, withdrawals, and messages
// from peers missing from the inventory.
func (s *RouteStore) Stats() (routes, withdraws, unknownPeers uint64) {
	return s.routesSeen.Load(), s.withdrawsSeen.Load(), s.unknownPeers.Load()
}

// OnInitiation implements bmp.Handler.
func (s *RouteStore) OnInitiation(string, *bmp.Initiation) {}

// OnTermination implements bmp.Handler.
func (s *RouteStore) OnTermination(string) {}

// OnStats implements bmp.Handler.
func (s *RouteStore) OnStats(string, *bmp.StatsReport) {}

// OnPeerUp implements bmp.Handler.
func (s *RouteStore) OnPeerUp(router string, m *bmp.PeerUp) {}

// OnPeerDown implements bmp.Handler: the monitored router lost its
// session with the peer, so every route learned from it is gone. Any
// buffered routes are applied first so the removal observes everything
// that preceded it on the wire.
func (s *RouteStore) OnPeerDown(router string, m *bmp.PeerDown) {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
	s.table.RemovePeer(m.Peer.PeerAddr)
}

// FlushRoutes implements bmp.BatchFlusher: apply all buffered route
// ops under one table lock acquisition.
func (s *RouteStore) FlushRoutes() {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

func (s *RouteStore) flushLocked() {
	if len(s.batch) == 0 {
		return
	}
	res := s.table.ApplyBatch(s.batch)
	// Withdrawals count when they changed a best route, matching what
	// per-op Remove reported before batching.
	if res.WithdrawBestChanged > 0 {
		s.withdrawsSeen.Add(uint64(res.WithdrawBestChanged))
	}
	for i := range s.batch {
		s.batch[i] = rib.BatchOp{}
	}
	s.batch = s.batch[:0]
}

// OnRoute implements bmp.Handler: fold one monitored UPDATE into the
// store. The ops are buffered and applied in batches (see mu); import
// policy is applied here at enqueue time, since rib.ApplyBatch does
// not.
func (s *RouteStore) OnRoute(router string, m *bmp.RouteMonitoring) {
	peerAddr := m.Peer.PeerAddr
	info, known := s.inv.PeerByAddr(peerAddr)
	u := m.Update
	policy := s.table.Policy()

	// One flattened AS path per UPDATE and one route slab per routeSlabMax
	// NLRI, not one of each per NLRI: the table copies each route into its
	// arena, so nothing retains them.
	nlri := len(u.NLRI)
	if u.Attrs.MPReach != nil {
		nlri += len(u.Attrs.MPReach.NLRI)
	}
	var tmpl rib.Route
	var slab []rib.Route
	if known && nlri > 0 {
		tmpl = rib.Route{
			ASPath:      u.Attrs.FlatASPath(),
			PathHops:    u.Attrs.PathHopCount(),
			Origin:      rib.Origin(u.Attrs.Origin),
			MED:         u.Attrs.MED,
			HasMED:      u.Attrs.HasMED,
			Communities: u.Attrs.Communities,
			PeerAddr:    peerAddr,
			PeerAS:      m.Peer.PeerAS,
			PeerClass:   info.Class,
			EgressIF:    info.InterfaceID,
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	apply := func(prefix netip.Prefix, nextHop netip.Addr) {
		if !known {
			s.unknownPeers.Add(1)
			return
		}
		if len(slab) == 0 {
			slab = make([]rib.Route, min(nlri, routeSlabMax))
		}
		nlri-- // NLRI still to come, this one included
		r := &slab[0]
		*r = tmpl
		r.Prefix, r.NextHop = prefix, nextHop
		if policy != nil && !policy.Import(r) {
			return // the slot is reused by the next NLRI
		}
		slab = slab[1:]
		// Counted at enqueue even if the table then suppresses it as a
		// duplicate: Stats consumers pace themselves on routes ingested.
		s.routesSeen.Add(1)
		s.batch = append(s.batch, rib.BatchOp{Route: r})
	}
	withdraw := func(prefix netip.Prefix) {
		s.batch = append(s.batch, rib.BatchOp{Prefix: prefix, Peer: peerAddr})
	}

	for _, w := range u.Withdrawn {
		withdraw(w)
	}
	if u.Attrs.MPUnreach != nil {
		for _, w := range u.Attrs.MPUnreach.Withdrawn {
			withdraw(w)
		}
	}
	for _, n := range u.NLRI {
		apply(n, u.Attrs.NextHop)
	}
	if u.Attrs.MPReach != nil {
		for _, n := range u.Attrs.MPReach.NLRI {
			apply(n, u.Attrs.MPReach.NextHop)
		}
	}
	if len(s.batch) >= routeBatchSize {
		s.flushLocked()
	}
}

// compile-time interface checks
var (
	_ bmp.Handler      = (*RouteStore)(nil)
	_ bmp.BatchFlusher = (*RouteStore)(nil)
)
