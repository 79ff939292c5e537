// Overload walkthrough: drive the controller's building blocks directly
// — inventory, route store, projection, allocator, injector — against a
// hand-built two-router PoP, without the simulation harness. This is the
// example to read when embedding the library against your own routers:
// it shows exactly what flows in (BMP routes, demand estimates) and out
// (BGP override announcements) of each stage.
//
//	go run ./examples/overload
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

func main() {
	// ---- 1. Inventory: who we peer with, and how big the pipes are.
	pni := netip.MustParseAddr("172.20.0.1")     // AS 65010, 10G PNI
	ixp := netip.MustParseAddr("172.20.0.3")     // AS 65012 at a 20G IXP port
	transit := netip.MustParseAddr("172.20.0.9") // AS 64601, 100G transit
	inv, err := core.NewInventory(
		[]core.PeerInfo{
			{Name: "as65010-pni", Addr: pni, AS: 65010, Class: rib.ClassPrivate, InterfaceID: 0, Router: "pr1"},
			{Name: "as65012-ixp", Addr: ixp, AS: 65012, Class: rib.ClassPublic, InterfaceID: 1, Router: "pr1"},
			{Name: "transit", Addr: transit, AS: 64601, Class: rib.ClassTransit, InterfaceID: 2, Router: "pr1"},
		},
		[]core.InterfaceInfo{
			{ID: 0, Name: "pr1:pni-as65010", CapacityBps: 10e9, Router: "pr1"},
			{ID: 1, Name: "pr1:ixp", CapacityBps: 20e9, Router: "pr1"},
			{ID: 2, Name: "pr1:transit", CapacityBps: 100e9, Router: "pr1"},
		})
	if err != nil {
		log.Fatal(err)
	}

	// ---- 2. Route store fed by a (here: hand-driven) BMP stream.
	store := core.NewRouteStore(inv)
	collector := &bmp.Collector{Handler: store}
	prSide, ctrlSide := netsim.BufferedPipe()
	go collector.HandleConn(context.Background(), "pr1", ctrlSide) //nolint:errcheck

	exporter, err := bmp.NewExporter(prSide, "pr1", nil)
	if err != nil {
		log.Fatal(err)
	}
	// AS 65010 announces its three /24s on the PNI; the IXP peer and
	// transit provide alternates.
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParsePrefix("198.51.101.0/24"),
		netip.MustParsePrefix("198.51.102.0/24"),
	}
	announce := func(peer netip.Addr, peerAS uint32, path ...uint32) {
		u := &bgp.Update{
			Attrs: bgp.PathAttrs{
				HasOrigin: true,
				ASPath:    bgp.Sequence(path...),
				NextHop:   peer,
			},
			NLRI: prefixes,
		}
		if err := exporter.Route(peer, peerAS, u); err != nil {
			log.Fatal(err)
		}
	}
	announce(pni, 65010, 65010)
	announce(ixp, 65012, 65012, 65010)
	announce(transit, 64601, 64601, 65010)
	waitForRoutes(store, len(prefixes)*3)
	fmt.Printf("route store: %d routes for %d prefixes\n",
		store.Table().RouteCount(), store.Table().Len())
	for _, r := range store.Routes(prefixes[0]) {
		fmt.Printf("  %s\n", r)
	}

	// ---- 3. Demand: the evening peak pushes 12G at a 10G PNI.
	demand := map[netip.Prefix]float64{
		prefixes[0]: 6e9,
		prefixes[1]: 4e9,
		prefixes[2]: 2e9,
	}

	// ---- 4. Projection: what would BGP do, and how hot is each port?
	proj := core.Project(store.Table(), demand)
	fmt.Println("\nprojection (all demand on BGP-preferred routes):")
	for _, info := range inv.Interfaces() {
		fmt.Printf("  %-18s %6.1f%% of %3.0fG\n",
			info.Name, proj.Utilization(inv, info.ID)*100, info.CapacityBps/1e9)
	}

	// ---- 5. Allocation: drain the PNI below 95%.
	res := core.AllocateStickyTraced(proj, inv, core.AllocatorConfig{Threshold: 0.95}, nil, nil)
	fmt.Println("\nallocator decisions:")
	for _, o := range res.Overrides {
		fmt.Printf("  detour %-18s %4.1fG  if%d -> if%d via %s (%s)\n",
			o.Prefix, o.RateBps/1e9, o.FromIF, o.ToIF, o.Via.NextHop, o.Via.PeerClass)
	}

	// ---- 6. Injection: announce the overrides to the router over a
	// real iBGP session (here the "router" is a bgp.Speaker that prints
	// what it receives — the same role a peering router plays).
	pr := startFakeRouter()
	injector, err := core.NewInjector(core.InjectorConfig{
		LocalAS:  64500,
		RouterID: netip.MustParseAddr("10.255.0.100"),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer injector.Close()
	routerSide, injSide := netsim.BufferedPipe()
	if err := injector.AddRouter(netip.MustParseAddr("10.255.0.1"), injSide); err != nil {
		log.Fatal(err)
	}
	if err := pr.acceptConn(routerSide); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := injector.WaitEstablished(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninjecting over iBGP:")
	if _, err := injector.Sync(res.Overrides); err != nil {
		log.Fatal(err)
	}
	pr.drain(len(res.Overrides))

	// ---- 7. Demand subsides; the stateless resync withdraws.
	fmt.Println("\npeak over — resyncing with an empty override set:")
	if _, err := injector.Sync(nil); err != nil {
		log.Fatal(err)
	}
	pr.drain(len(res.Overrides))
}

func waitForRoutes(store *core.RouteStore, want int) {
	deadline := time.Now().Add(5 * time.Second)
	for store.Table().RouteCount() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// fakeRouter is a minimal BGP speaker standing in for a peering router.
type fakeRouter struct {
	speaker *bgp.Speaker
	peer    *bgp.Peer
	got     chan string
}

func startFakeRouter() *fakeRouter {
	fr := &fakeRouter{got: make(chan string, 64)}
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS:  64500,
		RouterID: netip.MustParseAddr("10.255.0.1"),
		Handler:  fr,
	})
	if err != nil {
		log.Fatal(err)
	}
	fr.speaker = sp
	peer, err := sp.AddPeer(bgp.PeerConfig{PeerAddr: netip.MustParseAddr("10.255.0.100")})
	if err != nil {
		log.Fatal(err)
	}
	fr.peer = peer
	return fr
}

func (fr *fakeRouter) acceptConn(c net.Conn) error {
	return fr.peer.Accept(c)
}

func (fr *fakeRouter) HandleEstablished(*bgp.Peer, *bgp.Open) {}
func (fr *fakeRouter) HandleDown(*bgp.Peer, error)            {}
func (fr *fakeRouter) HandleUpdate(_ *bgp.Peer, u *bgp.Update) {
	for _, n := range u.NLRI {
		fr.got <- fmt.Sprintf("  pr1 received announce %s -> next hop %s local-pref %d",
			n, u.Attrs.NextHop, u.Attrs.LocalPref)
	}
	for _, w := range u.Withdrawn {
		fr.got <- fmt.Sprintf("  pr1 received withdraw %s", w)
	}
}

func (fr *fakeRouter) drain(n int) {
	timeout := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case line := <-fr.got:
			fmt.Println(line)
		case <-timeout:
			fmt.Println("  (timed out waiting for router events)")
			return
		}
	}
}
