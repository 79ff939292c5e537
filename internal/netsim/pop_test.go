package netsim

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// startPoP builds and converges a small live PoP.
func startPoP(t *testing.T, sink sflow.Sink) (*PoP, *Scenario, *Clock) {
	t.Helper()
	sc, err := Synthesize(SynthConfig{
		Seed:               11,
		Prefixes:           200,
		EdgeASes:           30,
		PrivatePeers:       3,
		PublicPeers:        6,
		RouteServerMembers: 8,
		Transits:           2,
		Routers:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	demand, err := sc.NewDemand(DemandConfig{PeakBps: 100e9})
	if err != nil {
		t.Fatal(err)
	}
	clock := NewClock(time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC))
	pop, err := NewPoP(PoPConfig{
		Scenario:  sc,
		Demand:    demand,
		Clock:     clock,
		SFlowSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := pop.Start(ctx); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := pop.WaitConverged(wctx); err != nil {
		t.Fatal(err)
	}
	return pop, sc, clock
}

func TestPoPConvergesOverRealBGP(t *testing.T) {
	pop, sc, _ := startPoP(t, nil)
	if got, want := pop.Table.RouteCount(), pop.ExpectedRoutes(); got != want {
		t.Errorf("RouteCount = %d, want %d", got, want)
	}
	// Every prefix has a route, and every prefix is reachable via
	// transit at minimum.
	for _, pi := range sc.Prefixes {
		routes := pop.Table.Routes(pi.Prefix)
		if len(routes) == 0 {
			t.Fatalf("no routes for %s", pi.Prefix)
		}
		hasTransit := false
		for _, r := range routes {
			if r.PeerClass == rib.ClassTransit {
				hasTransit = true
			}
		}
		if !hasTransit {
			t.Errorf("%s lacks a transit route", pi.Prefix)
		}
		// Best route class must be the minimum class present.
		best := routes[0]
		for _, r := range routes[1:] {
			if r.PeerClass < best.PeerClass {
				t.Errorf("%s best is %v but %v available", pi.Prefix, best.PeerClass, r.PeerClass)
			}
		}
	}
	// Prefixes of private-peer ASes are preferred via the PNI.
	for _, as := range sc.ASes {
		if as.Class != rib.ClassPrivate {
			continue
		}
		for _, p := range as.Prefixes {
			best := pop.Table.Best(p)
			if best == nil || best.PeerClass != rib.ClassPrivate {
				t.Errorf("prefix %s of private AS%d routed via %v", p, as.AS, best)
			}
		}
	}
}

func TestPoPDataplaneTick(t *testing.T) {
	pop, sc, clock := startPoP(t, nil)
	stats := pop.Plane.Tick(clock.Now(), 30*time.Second)
	if stats.UnroutedBps != 0 {
		t.Errorf("unrouted demand = %g", stats.UnroutedBps)
	}
	total := stats.TotalDemandBps()
	if total < 50e9 || total > 150e9 {
		t.Errorf("total demand at peak = %.3g, want ~100G", total)
	}
	// Per-prefix stats populated with RTTs.
	n := 0
	for _, pt := range stats.Prefix {
		if pt.EgressIF >= 0 && pt.RTTms > 0 {
			n++
		}
	}
	if n < len(sc.Prefixes)*9/10 {
		t.Errorf("only %d/%d prefixes got RTTs", n, len(sc.Prefixes))
	}
}

func TestPoPSFlowPipeline(t *testing.T) {
	clockStart := time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC)
	var col *sflow.Collector
	var pop *PoP
	// The collector maps destinations through the PoP table; build it
	// lazily once the PoP exists.
	col = sflow.NewCollector(sflow.CollectorConfig{
		Mapper: sflow.PrefixMapperFunc(func(a netip.Addr) netip.Prefix {
			if pop == nil {
				return netip.Prefix{}
			}
			return pop.Table.LookupPrefix(a)
		}),
		Window: 2 * time.Minute,
		Now:    func() time.Time { return clockStart },
	})
	p, _, clock := startPoP(t, col)
	pop = p
	clockStart = clock.Now()
	var demandTotal float64
	for i := 0; i < 4; i++ {
		stats := pop.Plane.Tick(clock.Now(), 30*time.Second)
		demandTotal = stats.TotalDemandBps()
		clock.Advance(30 * time.Second)
		clockStart = clock.Now()
	}
	rates := col.Rates()
	if len(rates) == 0 {
		t.Fatal("collector saw no traffic")
	}
	var est float64
	for _, bps := range rates {
		est += bps
	}
	// The sFlow estimate should be within ~25% of true demand.
	if est < demandTotal*0.75 || est > demandTotal*1.25 {
		t.Errorf("sflow estimate %.3g vs demand %.3g", est, demandTotal)
	}
}

func TestPoPControllerInjection(t *testing.T) {
	pop, sc, clock := startPoP(t, nil)
	// Pick a prefix preferred via a private peer and a transit
	// alternate for it.
	var prefix netip.Prefix
	var alt *rib.Route
	for _, pi := range sc.Prefixes {
		routes := pop.Table.Routes(pi.Prefix)
		if len(routes) < 2 || routes[0].PeerClass != rib.ClassPrivate {
			continue
		}
		for _, r := range routes[1:] {
			if r.PeerClass == rib.ClassTransit {
				prefix, alt = pi.Prefix, r
				break
			}
		}
		if alt != nil {
			break
		}
	}
	if alt == nil {
		t.Fatal("no private-preferred prefix with transit alternate")
	}

	// Inject an override the way the controller does: iBGP session to
	// each PR announcing the prefix with controller-tier local-pref and
	// the alternate's next hop.
	import1 := &rib.Route{
		Prefix:    prefix,
		NextHop:   alt.NextHop,
		PeerAddr:  ControllerAddr,
		PeerAS:    pop.Topo.LocalAS,
		PeerClass: rib.ClassController,
		FromIBGP:  true,
		LocalPref: rib.PrefController,
		ASPath:    alt.ASPath,
		EgressIF:  alt.EgressIF,
	}
	pop.Table.Add(import1)

	best := pop.Table.Best(prefix)
	if best == nil || best.PeerClass != rib.ClassController {
		t.Fatalf("override not preferred: %v", best)
	}
	stats := pop.Plane.Tick(clock.Now(), 30*time.Second)
	pt := stats.Prefix[prefix]
	if !pt.Injected {
		t.Error("tick should mark the prefix as injected")
	}
	if pt.EgressIF != alt.EgressIF {
		t.Errorf("traffic egressed via IF %d, want %d", pt.EgressIF, alt.EgressIF)
	}
	if pt.Class != rib.ClassTransit {
		t.Errorf("underlying class = %v, want transit", pt.Class)
	}

	// Withdraw: behavior falls back to BGP's choice.
	pop.Table.Remove(prefix, ControllerAddr)
	stats = pop.Plane.Tick(clock.Now(), 30*time.Second)
	if stats.Prefix[prefix].Injected {
		t.Error("override still active after withdraw")
	}
}

func TestPoPPeerSessionDownWithdraws(t *testing.T) {
	pop, sc, _ := startPoP(t, nil)
	// Kill the first private peer's session.
	var victim *Peer
	for i := range pop.Topo.Peers {
		if pop.Topo.Peers[i].Class == rib.ClassPrivate {
			victim = &pop.Topo.Peers[i]
			break
		}
	}
	if victim == nil {
		t.Fatal("no private peer")
	}
	if err := pop.PeerSessionDown(victim.Addr); err != nil {
		t.Fatal(err)
	}
	// The PR withdraws the peer's routes; its AS's prefixes fail over
	// to another tier (transit at worst).
	deadline := time.Now().Add(5 * time.Second)
	as := sc.ASes[victim.AS]
	for {
		allFailedOver := true
		for _, p := range as.Prefixes {
			best := pop.Table.Best(p)
			if best == nil || best.PeerAddr == victim.Addr {
				allFailedOver = false
				break
			}
		}
		if allFailedOver {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("routes did not fail over after session down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoPConnectController(t *testing.T) {
	pop, _, _ := startPoP(t, nil)
	conn, err := pop.ConnectController("pr1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := pop.ConnectController("nope"); err == nil {
		t.Error("unknown router should error")
	}
}

// TestPoPMultipathForwarding installs a two-member weighted controller
// set the way the injector announces it (one route per slot, stored
// under synthetic per-slot peer addresses) and checks the dataplane
// splits the prefix's demand by the announced weights.
func TestPoPMultipathForwarding(t *testing.T) {
	pop, sc, clock := startPoP(t, nil)
	// A prefix preferred via a private peer with a transit alternate.
	var prefix netip.Prefix
	var primary, alt *rib.Route
	for _, pi := range sc.Prefixes {
		routes := pop.Table.Routes(pi.Prefix)
		if len(routes) < 2 || routes[0].PeerClass != rib.ClassPrivate {
			continue
		}
		for _, r := range routes[1:] {
			if r.PeerClass == rib.ClassTransit {
				prefix, primary, alt = pi.Prefix, routes[0], r
				break
			}
		}
		if alt != nil {
			break
		}
	}
	if alt == nil {
		t.Fatal("no private-preferred prefix with transit alternate")
	}

	member := func(slot, pct int, via *rib.Route) *rib.Route {
		return &rib.Route{
			Prefix:    prefix,
			NextHop:   via.NextHop,
			PeerAddr:  ControllerPathAddr(slot),
			PeerAS:    pop.Topo.LocalAS,
			PeerClass: rib.ClassController,
			FromIBGP:  true,
			LocalPref: rib.PrefController,
			ASPath:    via.ASPath,
			EgressIF:  via.EgressIF,
			Communities: []uint32{
				rib.Community(rib.ControllerCommunityAS, 1),
				rib.Community(rib.ControllerCommunityAS, 4),
				rib.MultipathSlotCommunity(slot),
				rib.MultipathWeightCommunity(pct),
			},
		}
	}
	pop.Table.Add(member(0, 70, primary))
	pop.Table.Add(member(1, 30, alt))

	stats := pop.Plane.Tick(clock.Now(), 30*time.Second)
	pt := stats.Prefix[prefix]
	if !pt.Injected {
		t.Fatal("multipath prefix not marked injected")
	}
	if len(pt.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(pt.Members))
	}
	if pt.EgressIF != primary.EgressIF {
		t.Errorf("headline egress = IF%d, want slot-0's IF%d", pt.EgressIF, primary.EgressIF)
	}
	w0 := pt.Members[0].Bps / pt.DemandBps
	w1 := pt.Members[1].Bps / pt.DemandBps
	if w0 < 0.69 || w0 > 0.71 || w1 < 0.29 || w1 > 0.31 {
		t.Errorf("member shares = %.2f/%.2f, want 0.70/0.30", w0, w1)
	}
	if pt.Members[0].EgressIF != primary.EgressIF || pt.Members[1].EgressIF != alt.EgressIF {
		t.Errorf("member egress = IF%d/IF%d, want IF%d/IF%d",
			pt.Members[0].EgressIF, pt.Members[1].EgressIF, primary.EgressIF, alt.EgressIF)
	}
	if pt.RTTms <= 0 {
		t.Error("weighted RTT not computed")
	}

	// Withdrawing every slot falls back to the organic best.
	for s := 0; s < rib.MaxMultipathSlots; s++ {
		pop.Table.Remove(prefix, ControllerPathAddr(s))
	}
	stats = pop.Plane.Tick(clock.Now(), 30*time.Second)
	if stats.Prefix[prefix].Injected {
		t.Error("override still active after withdrawing all slots")
	}
}

// TestControllerPathAddrDistinct pins the slot address derivation: slot
// 0 is the controller's own iBGP address and every slot maps to a
// distinct address clear of the router loopbacks.
func TestControllerPathAddrDistinct(t *testing.T) {
	seen := map[netip.Addr]bool{}
	for s := 0; s < rib.MaxMultipathSlots; s++ {
		a := ControllerPathAddr(s)
		if seen[a] {
			t.Fatalf("slot %d address %s collides", s, a)
		}
		seen[a] = true
	}
	if ControllerPathAddr(0) != ControllerAddr {
		t.Error("slot 0 must be ControllerAddr")
	}
}

// RTTForRoute is called from every worker of a measurement round at
// once, while BMP and the injector keep writing the table: the
// best-class cache must stay race-free and agree with a serial read.
func TestRTTForRouteConcurrent(t *testing.T) {
	pop, sc, _ := startPoP(t, nil)
	type path struct {
		p netip.Prefix
		r *rib.Route
	}
	var paths []path
	for _, pi := range sc.Prefixes {
		for _, r := range pop.Table.Routes(pi.Prefix) {
			paths = append(paths, path{pi.Prefix, r})
		}
	}
	want := make([]float64, len(paths))
	for i, pt := range paths {
		want[i] = pop.Plane.RTTForRoute(pt.p, pt.r)
	}
	victim := paths[0].p
	unused := netip.MustParseAddr("192.0.2.1") // no path runs via it
	done := make(chan struct{})
	go func() { // churn the table version and the impairment overlay without moving any RTT
		defer close(done)
		for i := 0; i < 200; i++ {
			pop.Plane.Perf().SetRTTInflation(unused, float64(i%3))
			pop.Plane.Perf().SetPathLoss(unused, 0.01*float64(i%2))
			pop.Table.Add(&rib.Route{
				Prefix: victim, NextHop: ControllerAddr, PeerAddr: ControllerAddr,
				PeerClass: rib.ClassController, FromIBGP: true, LocalPref: rib.PrefController,
			})
			pop.Table.Remove(victim, ControllerAddr)
		}
	}()
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i, pt := range paths {
				if got := pop.Plane.RTTForRoute(pt.p, pt.r); got != want[i] {
					errs <- pt.p.String()
					return
				}
			}
			errs <- ""
		}()
	}
	for g := 0; g < 4; g++ {
		if p := <-errs; p != "" {
			t.Errorf("concurrent RTTForRoute for %s differs from the serial read", p)
		}
	}
	<-done
}
