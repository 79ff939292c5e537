package core

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// fakePR is a BGP speaker standing in for a peering router: it records
// the updates the injector sends.
type fakePR struct {
	speaker *bgp.Speaker
	mu      sync.Mutex
	updates []*bgp.Update
	gotCh   chan *bgp.Update
}

func newFakePR(t *testing.T, localAS uint32) (*fakePR, net.Conn) {
	t.Helper()
	pr := &fakePR{gotCh: make(chan *bgp.Update, 64)}
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS:  localAS,
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
	prEnd, ctrlEnd := netsim.BufferedPipe()
	if err := peer.Accept(prEnd); err != nil {
		t.Fatal(err)
	}
	return pr, ctrlEnd
}

func (pr *fakePR) HandleEstablished(*bgp.Peer, *bgp.Open) {}
func (pr *fakePR) HandleDown(*bgp.Peer, error)            {}
func (pr *fakePR) HandleUpdate(p *bgp.Peer, u *bgp.Update) {
	pr.mu.Lock()
	pr.updates = append(pr.updates, u)
	pr.mu.Unlock()
	pr.gotCh <- u
}

func waitUpdate(t *testing.T, pr *fakePR) *bgp.Update {
	t.Helper()
	select {
	case u := <-pr.gotCh:
		return u
	case <-time.After(3 * time.Second):
		t.Fatal("no update from injector")
		return nil
	}
}

func TestInjectorSyncDiffing(t *testing.T) {
	pr, conn := newFakePR(t, 64500)
	inj, err := NewInjector(InjectorConfig{
		LocalAS:  64500,
		RouterID: netip.MustParseAddr("10.255.0.100"),
		HoldTime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	if err := inj.AddRouter(netip.MustParseAddr("10.255.0.1"), conn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := inj.WaitEstablished(ctx); err != nil {
		t.Fatal(err)
	}

	o1 := Override{
		Prefix: netip.MustParsePrefix("10.1.0.0/24"),
		Via: &rib.Route{
			NextHop: netip.MustParseAddr("172.20.0.9"),
			ASPath:  []uint32{64601, 65010},
		},
		FromIF: 0, ToIF: 3, RateBps: 1e9,
	}
	res, err := inj.Sync([]Override{o1})
	if err != nil || res.Announced != 1 || res.Withdrawn != 0 {
		t.Fatalf("Sync = %d/%d, %v", res.Announced, res.Withdrawn, err)
	}
	u := waitUpdate(t, pr)
	if len(u.NLRI) != 1 || u.NLRI[0] != o1.Prefix {
		t.Fatalf("announce = %+v", u)
	}
	if !u.Attrs.HasLocalPref || u.Attrs.LocalPref != rib.PrefController {
		t.Errorf("LOCAL_PREF = %d/%v", u.Attrs.LocalPref, u.Attrs.HasLocalPref)
	}
	if u.Attrs.NextHop != o1.Via.NextHop {
		t.Errorf("next hop = %v", u.Attrs.NextHop)
	}

	// Same desired set: no messages.
	res, err = inj.Sync([]Override{o1})
	if err != nil || res.Announced != 0 || res.Withdrawn != 0 {
		t.Fatalf("idempotent Sync = %d/%d, %v", res.Announced, res.Withdrawn, err)
	}

	// Changed next hop: withdraw + announce.
	o2 := o1
	o2.Via = &rib.Route{NextHop: netip.MustParseAddr("172.20.0.3"), ASPath: []uint32{65012, 65010}}
	res, err = inj.Sync([]Override{o2})
	if err != nil || res.Announced != 1 || res.Withdrawn != 1 {
		t.Fatalf("changed Sync = %d/%d, %v", res.Announced, res.Withdrawn, err)
	}
	wd := waitUpdate(t, pr)
	if len(wd.Withdrawn) != 1 {
		t.Fatalf("expected withdraw first, got %+v", wd)
	}
	an := waitUpdate(t, pr)
	if an.Attrs.NextHop != o2.Via.NextHop {
		t.Fatalf("expected re-announce, got %+v", an)
	}

	// Empty set: withdraw all.
	res, err = inj.Sync(nil)
	if err != nil || res.Announced != 0 || res.Withdrawn != 1 {
		t.Fatalf("clear Sync = %d/%d, %v", res.Announced, res.Withdrawn, err)
	}
	if len(inj.Installed()) != 0 {
		t.Error("Installed not empty after clear")
	}
}

func TestInjectorV6Override(t *testing.T) {
	pr, conn := newFakePR(t, 64500)
	inj, err := NewInjector(InjectorConfig{LocalAS: 64500, RouterID: netip.MustParseAddr("10.255.0.100")})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	if err := inj.AddRouter(netip.MustParseAddr("10.255.0.1"), conn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := inj.WaitEstablished(ctx); err != nil {
		t.Fatal(err)
	}
	o := Override{
		Prefix: netip.MustParsePrefix("2001:db8:5::/48"),
		Via: &rib.Route{
			NextHop: netip.MustParseAddr("2001:db8:ffff::9"),
			ASPath:  []uint32{64601, 65010},
		},
	}
	if _, err := inj.Sync([]Override{o}); err != nil {
		t.Fatal(err)
	}
	u := waitUpdate(t, pr)
	if u.Attrs.MPReach == nil || u.Attrs.MPReach.NLRI[0] != o.Prefix {
		t.Fatalf("v6 announce = %+v", u)
	}
	if _, err := inj.Sync(nil); err != nil {
		t.Fatal(err)
	}
	wd := waitUpdate(t, pr)
	if wd.Attrs.MPUnreach == nil || wd.Attrs.MPUnreach.Withdrawn[0] != o.Prefix {
		t.Fatalf("v6 withdraw = %+v", wd)
	}
}

// staticTraffic is a fixed TrafficSource.
type staticTraffic map[netip.Prefix]float64

func (s staticTraffic) Rates() map[netip.Prefix]float64 { return s }

// TestHistoryResize shrinks and grows the cycle-report ring through
// ApplyConfig, from a wrapped ring and back into one: History must hold
// the newest reports in sequence order, and LastReport the latest.
func TestHistoryResize(t *testing.T) {
	ctrl, err := New(Config{Inventory: testInventory(t), Traffic: staticTraffic{}, LocalAS: 64500, MaxHistory: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ctrl.RunCycle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	resize := func(n int) {
		if _, err := ctrl.ApplyConfig(PoPConfigUpdate{MaxHistory: &n}, false); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want int) {
		t.Helper()
		last := ctrl.LastSeq()
		h := ctrl.History()
		if len(h) != want {
			t.Fatalf("after cycle %d: history holds %d, want %d", last, len(h), want)
		}
		for i, r := range h {
			if wantSeq := last - uint64(want-1-i); r.Seq != wantSeq {
				t.Fatalf("after cycle %d: history[%d].Seq = %d, want %d", last, i, r.Seq, wantSeq)
			}
		}
		if rep, ok := ctrl.LastReport(); !ok || rep.Seq != last {
			t.Fatalf("LastReport = %d (ok=%v), LastSeq = %d", rep.Seq, ok, last)
		}
	}
	run(40) // the 32-slot ring has wrapped
	check(32)
	resize(16)
	check(16)
	run(5) // wraps the shrunk ring
	check(16)
	resize(64)
	check(16)
	run(10)
	check(26)
	run(50)
	check(64)
}

func TestControllerRunCycle(t *testing.T) {
	inv := testInventory(t)
	demand := staticTraffic{}
	ctrl, err := New(Config{
		Inventory: inv,
		Traffic:   demand,
		LocalAS:   64500,
		Allocator: AllocatorConfig{Threshold: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	pr, conn := newFakePR(t, 64500)
	if err := ctrl.AddInjectionSession(netip.MustParseAddr("10.255.0.1"), conn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ctrl.WaitReady(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// Populate the route store directly (BMP path covered elsewhere).
	for i := 0; i < 10; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		ctrl.Store().Table().Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		ctrl.Store().Table().Add(route(prefix, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
		demand[netip.MustParsePrefix(prefix)] = 1.2e9
	}

	rep, err := ctrl.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Overrides) == 0 {
		t.Fatal("overloaded PNI produced no overrides")
	}
	if rep.Announced != len(rep.Overrides) {
		t.Errorf("announced %d, overrides %d", rep.Announced, len(rep.Overrides))
	}
	waitUpdate(t, pr)

	// Demand drops; next cycle withdraws everything.
	for p := range demand {
		demand[p] = 0.1e9
	}
	rep2, err := ctrl.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Overrides) != 0 || rep2.Withdrawn == 0 {
		t.Errorf("cycle 2 = %d overrides, %d withdrawn", len(rep2.Overrides), rep2.Withdrawn)
	}
	if len(ctrl.Installed()) != 0 {
		t.Error("overrides linger after demand subsided")
	}
	if got := len(ctrl.History()); got != 2 {
		t.Errorf("history = %d", got)
	}
	out := FormatReport(rep, inv)
	if !strings.Contains(out, "overrides") {
		t.Errorf("FormatReport = %q", out)
	}
	if ctrl.Metrics().Counter("edgefabric_cycles_total").Value() != 2 {
		t.Error("cycle counter wrong")
	}
}

func TestControllerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing inventory should fail")
	}
	inv := testInventory(t)
	if _, err := New(Config{Inventory: inv}); err == nil {
		t.Error("missing traffic should fail")
	}
	if _, err := New(Config{Inventory: inv, Traffic: staticTraffic{}}); err == nil {
		t.Error("missing LocalAS should fail")
	}
}

func TestRouteStoreBMPFlow(t *testing.T) {
	inv := testInventory(t)
	store := NewRouteStore(inv)
	col := &bmp.Collector{Handler: store}
	client, server := netsim.BufferedPipe()
	done := make(chan error, 1)
	go func() { done <- col.HandleConn(context.Background(), "pr1", server) }()

	exp, err := bmp.NewExporter(client, "pr1", nil)
	if err != nil {
		t.Fatal(err)
	}
	peer := netip.MustParseAddr("172.20.0.1")
	_ = exp.PeerUp(peer, 65010, netip.MustParseAddr("10.0.0.7"), netip.MustParseAddr("10.255.0.1"))
	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			HasOrigin: true,
			ASPath:    bgp.Sequence(65010),
			NextHop:   peer,
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.5.0.0/24")},
	}
	if err := exp.Route(peer, 65010, u); err != nil {
		t.Fatal(err)
	}
	// Poll until the route lands.
	deadline := time.Now().Add(3 * time.Second)
	var r *rib.Route
	for time.Now().Before(deadline) {
		if r = store.Table().Best(netip.MustParsePrefix("10.5.0.0/24")); r != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r == nil {
		t.Fatal("route did not reach the store")
	}
	if r.PeerClass != rib.ClassPrivate || r.EgressIF != 0 {
		t.Errorf("route = %+v", r)
	}
	// Peer down wipes it.
	_ = exp.PeerDown(peer, 65010, 2)
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if store.Table().Best(netip.MustParsePrefix("10.5.0.0/24")) == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if store.Table().Best(netip.MustParsePrefix("10.5.0.0/24")) != nil {
		t.Fatal("route survived peer down")
	}
	// Unknown peer counted.
	_ = exp.Route(netip.MustParseAddr("172.20.9.9"), 60000, u)
	_ = exp.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, unknown := store.Stats(); unknown == 0 {
		t.Error("unknown peer not counted")
	}
}

// TestResyncInvisibleToCycle: a BMP re-sync that re-announces exactly
// what the store holds (a router reconnecting after a feed outage) must
// not reach the cycle — no journal entries, no re-planned prefix, the
// very same Override.Via pointers, nothing announced or withdrawn.
func TestResyncInvisibleToCycle(t *testing.T) {
	inv := testInventory(t)
	demand := staticTraffic{}
	ctrl, err := New(Config{
		Inventory: inv,
		Traffic:   demand,
		LocalAS:   64500,
		Allocator: AllocatorConfig{Threshold: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	_, conn := newFakePR(t, 64500)
	if err := ctrl.AddInjectionSession(netip.MustParseAddr("10.255.0.1"), conn); err != nil {
		t.Fatal(err)
	}

	feed, ctrlEnd := netsim.BufferedPipe()
	ctrl.AddBMPFeed("pr1", ctrlEnd)
	exp, err := bmp.NewExporter(feed, "pr1", nil)
	if err != nil {
		t.Fatal(err)
	}
	pni, transit := netip.MustParseAddr("172.20.0.1"), netip.MustParseAddr("172.20.0.9")
	for _, p := range []struct {
		addr netip.Addr
		as   uint32
	}{{pni, 65010}, {transit, 64601}} {
		if err := exp.PeerUp(p.addr, p.as, netip.MustParseAddr("10.0.0.7"), netip.MustParseAddr("10.255.0.1")); err != nil {
			t.Fatal(err)
		}
	}
	var prefixes []netip.Prefix
	for i := 0; i < 10; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))
		prefixes = append(prefixes, p)
		demand[p] = 1.2e9 // 12G on the 10G PNI
	}
	dump := func() {
		t.Helper()
		for _, u := range []struct {
			peer netip.Addr
			as   uint32
			path []uint32
		}{{pni, 65010, []uint32{65010}}, {transit, 64601, []uint32{64601, 65010}}} {
			err := exp.Route(u.peer, u.as, &bgp.Update{
				Attrs: bgp.PathAttrs{HasOrigin: true, ASPath: bgp.Sequence(u.path...), NextHop: u.peer},
				NLRI:  prefixes,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tab := ctrl.Store().Table()

	dump()
	if err := tab.WaitRouteCount(ctx, 2*len(prefixes)); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.WaitReady(ctx, 0); err != nil {
		t.Fatal(err)
	}
	rep1, err := ctrl.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Overrides) == 0 || rep1.Announced != len(rep1.Overrides) {
		t.Fatalf("cycle 1: %d overrides, %d announced", len(rep1.Overrides), rep1.Announced)
	}
	ver := tab.Version()
	m := ctrl.Metrics()
	sweeps := m.Counter("edgefabric_delta_full_sweeps_total").Value()
	recomputed := m.Counter("edgefabric_delta_recomputed_total").Value()

	dump()
	for tab.Duplicates() < uint64(2*len(prefixes)) {
		if ctx.Err() != nil {
			t.Fatalf("re-sync not absorbed: %d duplicates", tab.Duplicates())
		}
		time.Sleep(time.Millisecond)
	}
	if routes, _, _ := ctrl.Store().Stats(); routes != uint64(4*len(prefixes)) {
		t.Errorf("Stats routes = %d, want %d (suppressed routes still count at enqueue)", routes, 4*len(prefixes))
	}
	// What ProjectDelta is about to read: DeltaStats{Full: false, Changed: 0}.
	if changed, _, ok := tab.ChangedSince(ctrl.projector.lastVer, nil); !ok || len(changed) != 0 || tab.Version() != ver {
		t.Fatalf("re-sync reached the journal: %d changed, ok=%v, version %d → %d", len(changed), ok, ver, tab.Version())
	}

	rep2, err := ctrl.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Announced+rep2.Withdrawn != 0 {
		t.Errorf("cycle 2 announced %d, withdrew %d, want 0", rep2.Announced, rep2.Withdrawn)
	}
	if got := m.Counter("edgefabric_delta_full_sweeps_total").Value(); got != sweeps {
		t.Errorf("cycle 2 fell back to a full sweep")
	}
	if got := m.Counter("edgefabric_delta_recomputed_total").Value(); got != recomputed {
		t.Errorf("cycle 2 re-planned %d prefixes, want 0", got-recomputed)
	}
	if len(rep2.Overrides) != len(rep1.Overrides) {
		t.Fatalf("overrides %d → %d", len(rep1.Overrides), len(rep2.Overrides))
	}
	for i, o := range rep2.Overrides {
		if was := rep1.Overrides[i]; o.Prefix != was.Prefix || o.Via != was.Via {
			t.Errorf("override %d: %v via %p, was %v via %p", i, o.Prefix, o.Via, was.Prefix, was.Via)
		}
	}
	if got := m.Counter("edgefabric_rib_duplicate_announcements_total").Value(); got != uint64(2*len(prefixes)) {
		t.Errorf("edgefabric_rib_duplicate_announcements_total = %d, want %d", got, 2*len(prefixes))
	}
}

// TestBMPRedialBacksOffOnEmptyStreams supervises a BMP speaker that
// accepts every dial and hangs up at once. Streams that carry nothing
// must not reset the redial backoff, so two seconds see a handful of
// dials rather than one every bmpBackoffMin.
func TestBMPRedialBacksOffOnEmptyStreams(t *testing.T) {
	ctrl, err := New(Config{Inventory: testInventory(t), Traffic: staticTraffic{}, LocalAS: 64500})
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	ctrl.AddBMPFeedDialer("pr1", func(context.Context) (net.Conn, error) {
		dials.Add(1)
		ours, theirs := net.Pipe()
		theirs.Close()
		return ours, nil
	})
	time.Sleep(2 * time.Second)
	ctrl.Close()
	if n := dials.Load(); n > 6 {
		t.Errorf("%d dials in 2s to a speaker that hangs up at once, want ≤ 6", n)
	}
}
