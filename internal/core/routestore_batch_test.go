package core

import (
	"fmt"
	"net/netip"
	"testing"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/rib"
)

func routeMsg(peer netip.Addr, peerAS uint32, prefixes ...string) *bmp.RouteMonitoring {
	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			HasOrigin: true,
			ASPath:    bgp.Sequence(peerAS),
			NextHop:   peer,
		},
	}
	for _, p := range prefixes {
		u.NLRI = append(u.NLRI, netip.MustParsePrefix(p))
	}
	return &bmp.RouteMonitoring{
		Peer:   bmp.PeerHeader{PeerAddr: peer, PeerAS: peerAS},
		Update: u,
	}
}

func withdrawMsg(peer netip.Addr, peerAS uint32, prefixes ...string) *bmp.RouteMonitoring {
	u := &bgp.Update{}
	for _, p := range prefixes {
		u.Withdrawn = append(u.Withdrawn, netip.MustParsePrefix(p))
	}
	return &bmp.RouteMonitoring{
		Peer:   bmp.PeerHeader{PeerAddr: peer, PeerAS: peerAS},
		Update: u,
	}
}

// TestRouteStoreBatching pins the buffer-then-flush behavior: routes
// sit in the batch until FlushRoutes (or the size threshold), and a
// flush applies them all under one table version burst.
func TestRouteStoreBatching(t *testing.T) {
	inv := testInventory(t)
	store := NewRouteStore(inv)
	peer := netip.MustParseAddr("172.20.0.1")

	store.OnRoute("pr1", routeMsg(peer, 65010, "10.5.0.0/24", "10.6.0.0/24"))
	if n := store.Table().RouteCount(); n != 0 {
		t.Fatalf("routes applied before flush: %d", n)
	}
	if routes, _, _ := store.Stats(); routes != 2 {
		t.Errorf("routesSeen = %d, want 2 (counted at enqueue)", routes)
	}
	store.FlushRoutes()
	if n := store.Table().RouteCount(); n != 2 {
		t.Fatalf("routes after flush = %d, want 2", n)
	}

	// Withdraw buffered the same way; stats count only best-changing
	// withdrawals, as before batching.
	store.OnRoute("pr1", withdrawMsg(peer, 65010, "10.5.0.0/24", "10.99.0.0/24"))
	store.FlushRoutes()
	if n := store.Table().RouteCount(); n != 1 {
		t.Fatalf("routes after withdraw = %d, want 1", n)
	}
	if _, withdraws, _ := store.Stats(); withdraws != 1 {
		t.Errorf("withdrawsSeen = %d, want 1", withdraws)
	}

	// The size threshold flushes inline, without waiting for the
	// collector's drain point.
	for i := 0; i < routeBatchSize/2+2; i++ {
		store.OnRoute("pr1", routeMsg(peer, 65010,
			fmt.Sprintf("10.7.%d.0/24", i%256), fmt.Sprintf("10.8.%d.0/24", i%256)))
	}
	if n := store.Table().RouteCount(); n < routeBatchSize {
		t.Errorf("threshold flush did not run: %d routes applied", n)
	}

	// OnPeerDown flushes pending routes first, then removes the peer —
	// a queued add must not survive the down by being applied after it.
	store.OnRoute("pr1", routeMsg(peer, 65010, "10.9.0.0/24"))
	store.OnPeerDown("pr1", &bmp.PeerDown{Peer: bmp.PeerHeader{PeerAddr: peer, PeerAS: 65010}})
	if n := store.Table().RouteCount(); n != 0 {
		t.Fatalf("routes after peer down = %d, want 0", n)
	}

	// Unknown peers never enter the batch.
	store.OnRoute("pr1", routeMsg(netip.MustParseAddr("172.20.9.9"), 64999, "10.10.0.0/24"))
	store.FlushRoutes()
	if _, _, unknown := store.Stats(); unknown != 1 {
		t.Errorf("unknownPeers = %d, want 1", unknown)
	}
	if n := store.Table().RouteCount(); n != 0 {
		t.Errorf("unknown peer's route applied: %d", n)
	}
}

// TestRouteStoreBatchStatsEquivalence drives an identical event stream
// through the batching store and a per-op reference (Accept/Remove
// directly on a table) and demands identical tables and stats.
func TestRouteStoreBatchStatsEquivalence(t *testing.T) {
	inv := testInventory(t)
	store := NewRouteStore(inv)
	ref := rib.NewTable(rib.DefaultPolicy())
	var refRoutes, refWithdraws uint64

	peers := []struct {
		addr netip.Addr
		as   uint32
	}{
		{netip.MustParseAddr("172.20.0.1"), 65010},
		{netip.MustParseAddr("172.20.0.3"), 65012},
		{netip.MustParseAddr("172.20.0.9"), 64601},
	}
	apply := func(m *bmp.RouteMonitoring) {
		store.OnRoute("pr1", m)
		info, known := inv.PeerByAddr(m.Peer.PeerAddr)
		for _, w := range m.Update.Withdrawn {
			if ref.Remove(w, m.Peer.PeerAddr) {
				refWithdraws++
			}
		}
		for _, n := range m.Update.NLRI {
			if !known {
				continue
			}
			r := &rib.Route{
				Prefix:    n,
				NextHop:   m.Update.Attrs.NextHop,
				ASPath:    m.Update.Attrs.FlatASPath(),
				PathHops:  m.Update.Attrs.PathHopCount(),
				Origin:    rib.Origin(m.Update.Attrs.Origin),
				PeerAddr:  m.Peer.PeerAddr,
				PeerAS:    m.Peer.PeerAS,
				PeerClass: info.Class,
				EgressIF:  info.InterfaceID,
			}
			if acc, _ := ref.Accept(r); acc {
				refRoutes++
			}
		}
	}

	for i := 0; i < 300; i++ {
		p := peers[i%len(peers)]
		prefix := fmt.Sprintf("10.%d.%d.0/24", i%7, i%29)
		if i%5 == 4 {
			apply(withdrawMsg(p.addr, p.as, prefix))
		} else {
			apply(routeMsg(p.addr, p.as, prefix))
		}
	}
	store.FlushRoutes()

	if store.Table().RouteCount() != ref.RouteCount() || store.Table().Len() != ref.Len() {
		t.Errorf("table %d/%d routes, want %d/%d",
			store.Table().Len(), store.Table().RouteCount(), ref.Len(), ref.RouteCount())
	}
	routes, withdraws, _ := store.Stats()
	if routes != refRoutes || withdraws != refWithdraws {
		t.Errorf("stats = %d routes / %d withdraws, want %d / %d", routes, withdraws, refRoutes, refWithdraws)
	}
	for _, p := range ref.Prefixes() {
		want := ref.Routes(p)
		got := store.Table().Routes(p)
		if len(got) != len(want) {
			t.Fatalf("%v: %d routes, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i].PeerAddr != want[i].PeerAddr {
				t.Errorf("%v[%d]: %v, want %v", p, i, got[i].PeerAddr, want[i].PeerAddr)
			}
		}
	}
}

// TestRouteStoreDuplicateUpdateAllocs pins what an absorbed re-sync
// costs per UPDATE: one flattened AS path and one route slab, whatever
// the NLRI count — and every policy-accepted route still counts in
// Stats, which consumers pace themselves on.
func TestRouteStoreDuplicateUpdateAllocs(t *testing.T) {
	store := NewRouteStore(testInventory(t))
	prefixes := make([]string, 200)
	for i := range prefixes {
		prefixes[i] = fmt.Sprintf("10.%d.%d.0/24", 20+i/256, i%256)
	}
	msg := routeMsg(netip.MustParseAddr("172.20.0.9"), 64601, prefixes...)
	store.OnRoute("pr1", msg)
	store.FlushRoutes()
	ver := store.Table().Version()

	const runs = 20
	avg := testing.AllocsPerRun(runs, func() {
		store.OnRoute("pr1", msg)
		store.FlushRoutes()
	})
	if avg > 3 { // the flattened AS path and two slabs (routeSlabMax + the rest)
		t.Errorf("duplicate 200-NLRI UPDATE + flush allocates %.1f objects, want <= 3", avg)
	}
	if got := store.Table().Version(); got != ver {
		t.Errorf("duplicates moved the table version %d → %d", ver, got)
	}
	// AllocsPerRun makes one warm-up call beyond runs.
	if routes, _, _ := store.Stats(); routes != uint64((runs+2)*len(prefixes)) {
		t.Errorf("Stats routes = %d, want %d", routes, (runs+2)*len(prefixes))
	}
}

// An UPDATE wider than routeSlabMax takes its routes from several slabs,
// and ops buffered by an earlier UPDATE point into an earlier one: every
// route must land intact.
func TestRouteStoreSlabChunks(t *testing.T) {
	store := NewRouteStore(testInventory(t))
	prefixes := make([]string, 10+2*routeSlabMax+7)
	for i := range prefixes {
		prefixes[i] = fmt.Sprintf("10.%d.%d.0/24", 20+i/256, i%256)
	}
	peer := netip.MustParseAddr("172.20.0.9")
	store.OnRoute("pr1", routeMsg(peer, 64601, prefixes[:10]...)) // buffered, not flushed
	store.OnRoute("pr1", routeMsg(peer, 64601, prefixes[10:]...))
	store.FlushRoutes()
	if got := store.Table().RouteCount(); got != len(prefixes) {
		t.Fatalf("RouteCount = %d, want %d", got, len(prefixes))
	}
	for _, p := range prefixes {
		rs := store.Routes(netip.MustParsePrefix(p))
		if len(rs) != 1 || rs[0].PeerAddr != peer || rs[0].Prefix.String() != p {
			t.Fatalf("%s: stored routes %v", p, rs)
		}
	}
}
