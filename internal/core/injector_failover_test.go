package core

import (
	"context"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/metrics"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// TestInjectorSessionDropReestablish drives a supervised injection
// session through its whole failure lifecycle: establish and deliver an
// override, kill the transport, observe the delivery state reset while
// the installed set holds, watch a Sync attempted with no session up
// fail loudly, then let the dialer heal the session and verify the
// router is re-fed the installed set without a controller cycle.
func TestInjectorSessionDropReestablish(t *testing.T) {
	pr := &fakePR{gotCh: make(chan *bgp.Update, 64)}
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS:  64500,
		RouterID: netip.MustParseAddr("10.255.0.1"),
		HoldTime: 5 * time.Second,
		Handler:  pr,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.speaker = sp
	t.Cleanup(sp.Close)
	peer, err := sp.AddPeer(bgp.PeerConfig{PeerAddr: netip.MustParseAddr("10.255.0.100")})
	if err != nil {
		t.Fatal(err)
	}

	// The dial function plays popsim's role: each dial hands the PR a
	// fresh transport. A gate lets the test hold the session down.
	var allowDial atomic.Bool
	allowDial.Store(true)
	var mu sync.Mutex
	var cur net.Conn
	dial := func(ctx context.Context) (net.Conn, error) {
		if !allowDial.Load() {
			return nil, context.DeadlineExceeded
		}
		prEnd, ctrlEnd := netsim.BufferedPipe()
		if err := peer.Accept(prEnd); err != nil {
			prEnd.Close()
			return nil, err
		}
		mu.Lock()
		cur = ctrlEnd
		mu.Unlock()
		return ctrlEnd, nil
	}

	upCh := make(chan struct{}, 8)
	downCh := make(chan struct{}, 8)
	reg := metrics.NewRegistry()
	inj, err := NewInjector(InjectorConfig{
		LocalAS:       64500,
		RouterID:      netip.MustParseAddr("10.255.0.100"),
		HoldTime:      5 * time.Second,
		Metrics:       reg,
		OnSessionUp:   func(netip.Addr) { upCh <- struct{}{} },
		OnSessionDown: func(netip.Addr, error) { downCh <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	router := netip.MustParseAddr("10.255.0.1")
	if err := inj.AddRouterDialer(router, dial); err != nil {
		t.Fatal(err)
	}
	waitSignal(t, upCh, "session never established")

	o1 := Override{
		Prefix: netip.MustParsePrefix("10.1.0.0/24"),
		Via: &rib.Route{
			NextHop: netip.MustParseAddr("172.20.0.9"),
			ASPath:  []uint32{64601, 65010},
		},
		FromIF: 0, ToIF: 3, RateBps: 1e9,
	}
	res, err := inj.Sync([]Override{o1})
	if err != nil || res.Announced != 1 {
		t.Fatalf("Sync = %+v, %v", res, err)
	}
	u := waitUpdate(t, pr)
	if len(u.NLRI) != 1 || u.NLRI[0] != o1.Prefix {
		t.Fatalf("announce = %+v", u)
	}
	if got := inj.DeliveredCount(router); got != 1 {
		t.Fatalf("DeliveredCount = %d, want 1", got)
	}

	// Kill the transport with redial gated off: the session must report
	// down, the router's delivery record must reset (BGP already withdrew
	// everything the session carried), but the installed set — the
	// controller's intent — must hold for the re-feed.
	allowDial.Store(false)
	mu.Lock()
	cur.Close()
	mu.Unlock()
	waitSignal(t, downCh, "session drop never reported")
	if got := inj.DeliveredCount(router); got != 0 {
		t.Errorf("DeliveredCount after drop = %d, want 0", got)
	}
	if _, ok := inj.Installed().Lookup(o1.Prefix); !ok {
		t.Error("installed set lost the override on session drop")
	}

	// A Sync with every session down must fail loudly, not record the new
	// prefix as installed.
	o2 := o1
	o2.Prefix = netip.MustParsePrefix("10.2.0.0/24")
	if _, err := inj.Sync([]Override{o1, o2}); err == nil {
		t.Error("Sync with no session up returned nil error")
	}
	if _, ok := inj.Installed().Lookup(o2.Prefix); ok {
		t.Error("undeliverable override was recorded as installed")
	}

	// Open the gate: the supervised peer redials with backoff, the
	// session re-establishes, and the handler re-feeds the installed set
	// without waiting for a controller cycle.
	allowDial.Store(true)
	waitSignal(t, upCh, "session never re-established")
	u = waitUpdate(t, pr)
	if len(u.NLRI) != 1 || u.NLRI[0] != o1.Prefix || u.Attrs.NextHop != o1.Via.NextHop {
		t.Fatalf("reannounce = %+v, want %s via %s", u, o1.Prefix, o1.Via.NextHop)
	}
	deadline := time.Now().Add(3 * time.Second)
	for inj.DeliveredCount(router) != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := inj.DeliveredCount(router); got != 1 {
		t.Errorf("DeliveredCount after re-establish = %d, want 1", got)
	}
	if got := reg.Counter("edgefabric_injection_reannounce_total").Value(); got == 0 {
		t.Error("edgefabric_injection_reannounce_total never incremented")
	}
}

func waitSignal(t *testing.T, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal(msg)
	}
}

// Sync and a re-established session's re-feed both send from their own
// scratch under the injector's lock. Run them at once (under -race) and
// check the router ends up holding exactly the last Sync's set.
func TestInjectorSyncBesideReannounce(t *testing.T) {
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS: 64500, RouterID: netip.MustParseAddr("10.255.0.1"),
		HoldTime: 30 * time.Second, Handler: bgp.NopHandler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	peer, err := sp.AddPeer(bgp.PeerConfig{PeerAddr: netip.MustParseAddr("10.255.0.100")})
	if err != nil {
		t.Fatal(err)
	}
	prEnd, ctrlEnd := netsim.BufferedPipe()
	if err := peer.Accept(prEnd); err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(InjectorConfig{LocalAS: 64500, RouterID: netip.MustParseAddr("10.255.0.100")})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	router := netip.MustParseAddr("10.255.0.1")
	if err := inj.AddRouter(router, ctrlEnd); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inj.WaitEstablished(ctx); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	sets := [][]Override{randomOverrides(rng, 300), randomOverrides(rng, 200), randomOverrides(rng, 250)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := inj.Sync(sets[i%len(sets)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			inj.reannounce(router)
		}
	}()
	wg.Wait()
	last := sets[59%len(sets)]
	if _, err := inj.Sync(last); err != nil {
		t.Fatal(err)
	}
	if got := inj.DeliveredCount(router); got != len(last) {
		t.Errorf("router holds %d prefixes, want %d", got, len(last))
	}
	installed := inj.Installed()
	for i := range last {
		o := &last[i]
		got, ok := installed.Lookup(o.Prefix)
		if !ok || sigOf(&got) != sigOf(o) {
			t.Fatalf("%s installed as %+v, want %+v", o.Prefix, got, *o)
		}
	}
}
