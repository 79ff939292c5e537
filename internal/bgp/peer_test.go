package bgp

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// collectHandler records events for assertions.
type collectHandler struct {
	mu          sync.Mutex
	established int
	updates     []*Update
	downs       []error
	updateCh    chan *Update
	estCh       chan struct{}
}

func newCollectHandler() *collectHandler {
	return &collectHandler{
		updateCh: make(chan *Update, 64),
		estCh:    make(chan struct{}, 4),
	}
}

func (h *collectHandler) HandleEstablished(p *Peer, o *Open) {
	h.mu.Lock()
	h.established++
	h.mu.Unlock()
	select {
	case h.estCh <- struct{}{}:
	default:
	}
}

func (h *collectHandler) HandleUpdate(p *Peer, u *Update) {
	h.mu.Lock()
	h.updates = append(h.updates, u)
	h.mu.Unlock()
	select {
	case h.updateCh <- u:
	default:
	}
}

func (h *collectHandler) HandleDown(p *Peer, err error) {
	h.mu.Lock()
	h.downs = append(h.downs, err)
	h.mu.Unlock()
}

// pipePeers wires two peers together over a net.Pipe and runs both.
// Returns the peers, their handlers, and a cleanup function.
func pipePeers(t *testing.T, cfgA, cfgB PeerConfig) (*Peer, *Peer, *collectHandler, *collectHandler, func()) {
	t.Helper()
	ha, hb := newCollectHandler(), newCollectHandler()
	if cfgA.Handler == nil {
		cfgA.Handler = ha
	}
	if cfgB.Handler == nil {
		cfgB.Handler = hb
	}
	pa, err := NewPeer(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPeer(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = pa.Run(ctx) }()
	go func() { defer wg.Done(); _ = pb.Run(ctx) }()
	ca, cb := net.Pipe()
	if err := pa.Accept(ca); err != nil {
		t.Fatal(err)
	}
	if err := pb.Accept(cb); err != nil {
		t.Fatal(err)
	}
	return pa, pb, ha, hb, func() {
		cancel()
		wg.Wait()
	}
}

func basicCfgs() (PeerConfig, PeerConfig) {
	a := PeerConfig{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		PeerAddr: netip.MustParseAddr("192.0.2.2"),
		PeerAS:   65002,
		HoldTime: 3 * time.Second,
	}
	b := PeerConfig{
		LocalAS:  65002,
		RouterID: netip.MustParseAddr("10.0.0.2"),
		PeerAddr: netip.MustParseAddr("192.0.2.1"),
		PeerAS:   65001,
		HoldTime: 3 * time.Second,
	}
	return a, b
}

func waitState(t *testing.T, p *Peer, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("peer %s state = %v, want %v", p.Addr(), p.State(), want)
}

func TestSessionEstablishes(t *testing.T) {
	cfgA, cfgB := basicCfgs()
	pa, pb, ha, _, cleanup := pipePeers(t, cfgA, cfgB)
	defer cleanup()
	waitState(t, pa, StateEstablished, 2*time.Second)
	waitState(t, pb, StateEstablished, 2*time.Second)
	select {
	case <-ha.estCh:
	case <-time.After(2 * time.Second):
		t.Fatal("no established event")
	}
	if pa.AS() != 65002 {
		t.Errorf("learned AS = %d", pa.AS())
	}
}

func TestSessionUpdateDelivery(t *testing.T) {
	cfgA, cfgB := basicCfgs()
	pa, pb, _, hb, cleanup := pipePeers(t, cfgA, cfgB)
	defer cleanup()
	waitState(t, pa, StateEstablished, 2*time.Second)
	waitState(t, pb, StateEstablished, 2*time.Second)

	u := &Update{
		Attrs: PathAttrs{
			HasOrigin: true,
			ASPath:    Sequence(65001, 4200000000),
			NextHop:   netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.5.0.0/16")},
	}
	if err := pa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-hb.updateCh:
		if got.NLRI[0] != u.NLRI[0] {
			t.Errorf("NLRI = %v", got.NLRI)
		}
		// AS4 must have been negotiated: the 4-octet ASN survives.
		if got.Attrs.FlatASPath()[1] != 4200000000 {
			t.Errorf("AS path = %v (AS4 not negotiated?)", got.Attrs.FlatASPath())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update not delivered")
	}
	in, out, uin, uout, _ := pa.Stats()
	if out == 0 || in == 0 || uout != 1 || uin != 0 {
		t.Errorf("stats = %d %d %d %d", in, out, uin, uout)
	}
}

func TestSessionBadPeerAS(t *testing.T) {
	cfgA, cfgB := basicCfgs()
	cfgA.PeerAS = 64999 // expects the wrong AS
	pa, _, ha, _, cleanup := pipePeers(t, cfgA, cfgB)
	defer cleanup()
	// Session must fail and report down.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ha.mu.Lock()
		n := len(ha.downs)
		ha.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if len(ha.downs) == 0 {
		t.Fatal("session with bad peer AS did not come down")
	}
	if pa.State() == StateEstablished {
		t.Error("session should not establish with wrong peer AS")
	}
}

func TestSessionHoldTimerExpiry(t *testing.T) {
	// Peer B negotiates hold but then its keepalives stop flowing
	// because we kill its connection path silently: simulate by using a
	// one-sided conn that discards writes after establishment. Simpler:
	// small hold time and stop B entirely by cancelling only B.
	cfgA, cfgB := basicCfgs()
	cfgA.HoldTime = 1 * time.Second
	cfgB.HoldTime = 1 * time.Second
	ha, hb := newCollectHandler(), newCollectHandler()
	cfgA.Handler, cfgB.Handler = ha, hb
	pa, err := NewPeer(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPeer(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelA()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = pa.Run(ctxA) }()
	go func() { defer wg.Done(); _ = pb.Run(ctxB) }()
	ca, cb := net.Pipe()
	_ = pa.Accept(ca)
	_ = pb.Accept(cb)
	waitState(t, pa, StateEstablished, 2*time.Second)
	// Freeze B: cancel its context; B sends CEASE... that would tear A
	// down via NOTIFICATION, which is also a valid down path. To test
	// hold expiry specifically, swallow B's conn instead: replace by
	// closing nothing and just stopping keepalives is hard; accept
	// either down reason but require A to come down within ~2x hold.
	cancelB()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && pa.State() == StateEstablished {
		time.Sleep(10 * time.Millisecond)
	}
	if pa.State() == StateEstablished {
		t.Fatal("A still established after B died")
	}
	cancelA()
	wg.Wait()
}

func TestSendUpdateNotEstablished(t *testing.T) {
	p, err := NewPeer(PeerConfig{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		PeerAddr: netip.MustParseAddr("192.0.2.9"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SendUpdate(&Update{}); err == nil {
		t.Error("SendUpdate should fail before establishment")
	}
}

func TestNewPeerValidation(t *testing.T) {
	if _, err := NewPeer(PeerConfig{RouterID: netip.MustParseAddr("1.1.1.1")}); err == nil {
		t.Error("missing PeerAddr should error")
	}
	if _, err := NewPeer(PeerConfig{
		PeerAddr: netip.MustParseAddr("192.0.2.1"),
		RouterID: netip.MustParseAddr("2001:db8::1"),
	}); err == nil {
		t.Error("non-IPv4 RouterID should error")
	}
}

func TestWaitEstablished(t *testing.T) {
	cfgA, cfgB := basicCfgs()
	pa, _, _, _, cleanup := pipePeers(t, cfgA, cfgB)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := pa.WaitEstablished(ctx); err != nil {
		t.Fatalf("WaitEstablished: %v", err)
	}
}

func TestWaitEstablishedTimeout(t *testing.T) {
	p, err := NewPeer(PeerConfig{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("10.0.0.1"),
		PeerAddr: netip.MustParseAddr("192.0.2.9"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.WaitEstablished(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestSessionReestablishesAfterFlap(t *testing.T) {
	cfgA, cfgB := basicCfgs()
	pa, pb, ha, _, cleanup := pipePeers(t, cfgA, cfgB)
	defer cleanup()
	waitState(t, pa, StateEstablished, 2*time.Second)
	waitState(t, pb, StateEstablished, 2*time.Second)

	// Kill the transport; both peers should flap and accept again.
	_ = pa.Notify(NotifCease, CeaseAdminShutdown)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && pb.State() == StateEstablished {
		time.Sleep(5 * time.Millisecond)
	}
	if pb.State() == StateEstablished {
		t.Fatal("B did not see the CEASE")
	}
	// Reconnect.
	for time.Now().Before(deadline) && (pa.State() != StateIdle || pb.State() != StateIdle) {
		time.Sleep(5 * time.Millisecond)
	}
	ca, cb := net.Pipe()
	if err := pa.Accept(ca); err != nil {
		t.Fatal(err)
	}
	if err := pb.Accept(cb); err != nil {
		t.Fatal(err)
	}
	waitState(t, pa, StateEstablished, 2*time.Second)
	waitState(t, pb, StateEstablished, 2*time.Second)
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if ha.established < 2 {
		t.Errorf("established events = %d, want >= 2", ha.established)
	}
	_, _, _, _, flaps := pa.Stats()
	if flaps == 0 {
		t.Error("flap counter did not advance")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateIdle: "Idle", StateConnect: "Connect", StateOpenSent: "OpenSent",
		StateOpenConfirm: "OpenConfirm", StateEstablished: "Established",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
}

// blockingHandler holds HandleEstablished until release is closed.
type blockingHandler struct {
	NopHandler
	entered, release chan struct{}
}

func (h *blockingHandler) HandleEstablished(*Peer, *Open) {
	close(h.entered)
	<-h.release
}

// TestWaitEstablishedAfterHandler: WaitEstablished must not return while
// HandleEstablished is still running, so a waiter sees everything the
// handler did (the injector's handler marks the session up in the
// controller's health tracker).
func TestWaitEstablishedAfterHandler(t *testing.T) {
	cfgA, cfgB := basicCfgs()
	h := &blockingHandler{entered: make(chan struct{}), release: make(chan struct{})}
	cfgA.Handler = h
	pa, _, _, _, cleanup := pipePeers(t, cfgA, cfgB)
	defer cleanup()
	defer func() {
		select {
		case <-h.release:
		default:
			close(h.release)
		}
	}()
	select {
	case <-h.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("HandleEstablished never ran")
	}
	if pa.State() != StateEstablished {
		t.Fatalf("state %v inside HandleEstablished, want Established", pa.State())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := pa.WaitEstablished(ctx); err == nil {
		t.Fatal("WaitEstablished returned while HandleEstablished was still running")
	}
	close(h.release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := pa.WaitEstablished(ctx2); err != nil {
		t.Fatalf("WaitEstablished after the handler returned: %v", err)
	}
}
