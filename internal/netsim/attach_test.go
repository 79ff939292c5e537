package netsim

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
)

// bmpDump reads BMP messages from c until it has seen a Peer Up for
// every established session on router and one NLRI per route those
// sessions announce, and returns the two counts. It fails the test if
// the stream ends or stalls first.
func bmpDump(t *testing.T, pop *PoP, router string, c net.Conn) (peerUps, nlri int) {
	t.Helper()
	wantUps, wantNLRI := 0, 0
	for i := range pop.Topo.Peers {
		if spec := &pop.Topo.Peers[i]; spec.Router == router {
			wantUps++
			wantNLRI += len(spec.Announces)
		}
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	buf := make([]byte, bmp.MaxMessageLen)
	for peerUps < wantUps || nlri < wantNLRI {
		m, err := bmp.ReadMessage(c, buf)
		if err != nil {
			t.Fatalf("after %d/%d Peer Ups and %d/%d NLRI: %v", peerUps, wantUps, nlri, wantNLRI, err)
		}
		switch m := m.(type) {
		case *bmp.PeerUp:
			peerUps++
		case *bmp.RouteMonitoring:
			nlri += len(m.Update.NLRI)
			if mp := m.Update.Attrs.MPReach; mp != nil {
				nlri += len(mp.NLRI)
			}
		}
	}
	return peerUps, nlri
}

func dialBridge(t *testing.T, br *Bridge) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", br.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBMPBridgeReplaysAndHeals serves a router's BMPDialer over a
// Bridge: every session starts with Peer Up plus the full table, a kill
// ends it and refuses sessions until restored, and a restored endpoint
// replays afresh.
func TestBMPBridgeReplaysAndHeals(t *testing.T) {
	pop, _, _ := startPoP(t, nil)
	const router = "pr1"
	br, _ := serveBridge(t, pop.BMPDialer(router))

	first := dialBridge(t, br)
	bmpDump(t, pop, router, first)

	pop.KillBMP(router)
	if !readsEOF(first) {
		t.Fatal("KillBMP did not end the bridged session")
	}
	if during := dialBridge(t, br); !readsEOF(during) {
		t.Error("a connection during the kill got data")
	}

	pop.RestoreBMP(router)
	bmpDump(t, pop, router, dialBridge(t, br))
}

// TestBMPBridgeSecondConnection checks a second concurrent connection
// to a router's BMP bridge is closed while the first keeps streaming.
func TestBMPBridgeSecondConnection(t *testing.T) {
	pop, _, _ := startPoP(t, nil)
	const router = "pr1"
	br, _ := serveBridge(t, pop.BMPDialer(router))

	first := dialBridge(t, br)
	bmpDump(t, pop, router, first)
	if second := dialBridge(t, br); !readsEOF(second) {
		t.Fatal("second concurrent connection was not closed")
	}

	// The first session still mirrors live events: take one of the
	// router's neighbors down and expect its Peer Down.
	var victim netip.Addr
	for i := range pop.Topo.Peers {
		if spec := &pop.Topo.Peers[i]; spec.Router == router {
			victim = spec.Addr
			break
		}
	}
	if err := pop.PeerSessionDown(victim); err != nil {
		t.Fatal(err)
	}
	first.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, bmp.MaxMessageLen)
	for {
		m, err := bmp.ReadMessage(first, buf)
		if err != nil {
			t.Fatalf("first session after the second was refused: %v", err)
		}
		if pd, ok := m.(*bmp.PeerDown); ok && pd.Peer.PeerAddr == victim {
			return
		}
	}
}

// sessionWatch is a controller-side iBGP handler that reports session
// transitions.
type sessionWatch struct {
	bgp.NopHandler
	up, down chan struct{}
}

func (w *sessionWatch) HandleEstablished(*bgp.Peer, *bgp.Open) { w.up <- struct{}{} }
func (w *sessionWatch) HandleDown(*bgp.Peer, error)            { w.down <- struct{}{} }

func waitSignal(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestControllerBridgeResetInjection serves a router's ControllerDialer
// over a Bridge: a controller attached through it establishes iBGP, and
// ResetInjection flaps that bridged session.
func TestControllerBridgeResetInjection(t *testing.T) {
	pop, _, _ := startPoP(t, nil)
	const router = "pr1"
	br, _ := serveBridge(t, pop.ControllerDialer(router))

	watch := &sessionWatch{up: make(chan struct{}, 4), down: make(chan struct{}, 4)}
	ctrl, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS:  pop.Topo.LocalAS,
		RouterID: ControllerAddr,
		HoldTime: 30 * time.Second,
		Handler:  watch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	peer, err := ctrl.AddPeer(bgp.PeerConfig{PeerAddr: pop.RouterIP(router), PeerAS: pop.Topo.LocalAS})
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Accept(dialBridge(t, br)); err != nil {
		t.Fatal(err)
	}
	waitSignal(t, watch.up, "the bridged session to establish")

	pop.ResetInjection(router)
	waitSignal(t, watch.down, "ResetInjection to end the bridged session")
}
