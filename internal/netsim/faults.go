package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/sflow"
)

// This file is the PoP's fault-injection surface: scripted kill/restore
// of BMP streams, controller iBGP session resets, and sFlow datagram
// loss. Experiments (E11) drive it to prove the controller's fail-static
// behaviour; nothing here runs unless a harness calls it.

// faultState is the PoP's mutable fault bookkeeping, lazily initialized.
type faultState struct {
	mu        sync.Mutex
	bmpKilled map[string]bool
	bmpHanded map[string]bool      // initial Start-created conn handed to a dialer
	bmpConn   map[string]net.Conn  // current controller-side BMP conn
	injPeer   map[string]*bgp.Peer // PR-side controller peer, one per router
	injConn   map[string]net.Conn  // current controller-side iBGP conn
}

func (f *faultState) ensure() {
	if f.bmpKilled == nil {
		f.bmpKilled = make(map[string]bool)
		f.bmpHanded = make(map[string]bool)
		f.bmpConn = make(map[string]net.Conn)
		f.injPeer = make(map[string]*bgp.Peer)
		f.injConn = make(map[string]net.Conn)
	}
}

// exporter returns the named router's current BMP exporter; prHandler
// mirrors events through this accessor so a fault-driven exporter swap
// (BMP redial) is safe against concurrent session goroutines.
func (p *PoP) exporter(router string) *bmp.Exporter {
	p.expMu.RLock()
	defer p.expMu.RUnlock()
	return p.exporters[router]
}

func (p *PoP) setExporter(router string, exp *bmp.Exporter) {
	p.expMu.Lock()
	p.exporters[router] = exp
	p.expMu.Unlock()
}

// BMPDialer returns a dial function for the named router's BMP endpoint,
// suitable for Controller.AddBMPFeedDialer. The first successful dial
// hands out the stream created at Start (which carries the initial
// convergence backlog); each later dial simulates the router accepting a
// fresh BMP session: a new exporter replaces the old one and replays
// Peer Up plus a full table dump for every live session, exactly like a
// real router's adj-RIB-in sync. Dials fail while KillBMP is in effect.
func (p *PoP) BMPDialer(router string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		if _, ok := p.routers[router]; !ok {
			return nil, fmt.Errorf("netsim: unknown router %q", router)
		}
		p.flt.mu.Lock()
		p.flt.ensure()
		if p.flt.bmpKilled[router] {
			p.flt.mu.Unlock()
			return nil, fmt.Errorf("netsim: bmp endpoint %s is down", router)
		}
		if !p.flt.bmpHanded[router] {
			p.flt.bmpHanded[router] = true
			conn := p.bmpConns[router]
			p.flt.bmpConn[router] = conn
			p.flt.mu.Unlock()
			return conn, nil
		}
		prEnd, ctrlEnd := BufferedPipe()
		exp, err := bmp.NewExporter(prEnd, router, p.cfg.Clock.Now)
		if err != nil {
			p.flt.mu.Unlock()
			return nil, err
		}
		p.flt.bmpConn[router] = ctrlEnd
		p.flt.mu.Unlock()
		p.setExporter(router, exp)
		go p.replayBMP(router, exp)
		return ctrlEnd, nil
	}
}

// replayBMP emits the Peer Up + route dump a freshly-accepted BMP
// session starts with, reconstructed from the topology for every
// currently-established session on the router. Live mirroring may
// interleave (the exporter is internally serialized); duplicate route
// upserts are idempotent on the collector side.
func (p *PoP) replayBMP(router string, exp *bmp.Exporter) {
	pr := p.routers[router]
	for i := range p.Topo.Peers {
		spec := &p.Topo.Peers[i]
		if spec.Router != router {
			continue
		}
		peer := pr.Peer(spec.Addr)
		if peer == nil || peer.State() != bgp.StateEstablished {
			continue
		}
		// Remote router IDs are assigned by peer index at Start.
		rid := netip.AddrFrom4([4]byte{10, 254, byte(i >> 8), byte(i)})
		if exp.PeerUp(spec.Addr, spec.AS, rid, p.routerIP[router]) != nil {
			return
		}
		for _, u := range BuildAnnouncements(spec) {
			if exp.Route(spec.Addr, spec.AS, u) != nil {
				return
			}
		}
	}
}

// KillBMP severs the named router's BMP stream and refuses redials until
// RestoreBMP. The controller's supervised feed sees the stream fail and
// backs off.
func (p *PoP) KillBMP(router string) {
	p.flt.mu.Lock()
	p.flt.ensure()
	p.flt.bmpKilled[router] = true
	conn := p.flt.bmpConn[router]
	if conn == nil {
		// Never dialed: the Start-created stream is the live one.
		conn = p.bmpConns[router]
		p.flt.bmpHanded[router] = true
	}
	p.flt.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// RestoreBMP lets the named router's BMP endpoint accept dials again.
func (p *PoP) RestoreBMP(router string) {
	p.flt.mu.Lock()
	p.flt.ensure()
	p.flt.bmpKilled[router] = false
	p.flt.mu.Unlock()
}

// ControllerDialer returns a dial function for the controller's iBGP
// session toward the named router, suitable for
// Controller.AddInjectionSessionDialer. Each dial has the router accept
// a fresh transport (the PR-side passive peer is registered on first
// use).
func (p *PoP) ControllerDialer(router string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		pr, ok := p.routers[router]
		if !ok {
			return nil, fmt.Errorf("netsim: unknown router %q", router)
		}
		p.flt.mu.Lock()
		p.flt.ensure()
		prPeer := p.flt.injPeer[router]
		p.flt.mu.Unlock()
		if prPeer == nil {
			peer, err := pr.AddPeer(bgp.PeerConfig{
				PeerAddr: ControllerAddr,
				PeerAS:   p.Topo.LocalAS, // iBGP
			})
			if err != nil {
				// Raced with ConnectController or another dial for the
				// same router: reuse the registered peer.
				if peer = pr.Peer(ControllerAddr); peer == nil {
					return nil, err
				}
			}
			p.flt.mu.Lock()
			p.flt.injPeer[router] = peer
			p.flt.mu.Unlock()
			prPeer = peer
		}
		prEnd, ctrlEnd := BufferedPipe()
		if err := prPeer.Accept(prEnd); err != nil {
			return nil, err
		}
		p.flt.mu.Lock()
		p.flt.injConn[router] = ctrlEnd
		p.flt.mu.Unlock()
		return ctrlEnd, nil
	}
}

// ResetInjection flaps the controller's iBGP session toward the named
// router once: the transport dies but redials succeed immediately.
func (p *PoP) ResetInjection(router string) {
	p.flt.mu.Lock()
	p.flt.ensure()
	conn := p.flt.injConn[router]
	p.flt.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// LossySink wraps an sflow.Sink with scripted datagram loss: a loss
// probability for degraded collection and a kill switch for total feed
// failure. Safe for concurrent use by multiple agents.
type LossySink struct {
	inner sflow.Sink

	mu      sync.Mutex
	rng     *rand.Rand
	rate    float64
	killed  bool
	dropped uint64
}

// NewLossySink wraps inner with no loss; script faults with SetLossRate
// and Kill/Restore.
func NewLossySink(inner sflow.Sink, seed int64) *LossySink {
	return &LossySink{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SendDatagram implements sflow.Sink, dropping per the current fault
// script.
func (s *LossySink) SendDatagram(b []byte) error {
	s.mu.Lock()
	drop := s.killed || (s.rate > 0 && s.rng.Float64() < s.rate)
	if drop {
		s.dropped++
	}
	s.mu.Unlock()
	if drop {
		return nil
	}
	return s.inner.SendDatagram(b)
}

// SetLossRate sets the independent per-datagram drop probability.
func (s *LossySink) SetLossRate(p float64) {
	s.mu.Lock()
	s.rate = p
	s.mu.Unlock()
}

// Kill drops every datagram until Restore: the collector sees total
// silence, as if the collection path died.
func (s *LossySink) Kill() {
	s.mu.Lock()
	s.killed = true
	s.mu.Unlock()
}

// Restore ends a Kill (any SetLossRate remains in effect).
func (s *LossySink) Restore() {
	s.mu.Lock()
	s.killed = false
	s.mu.Unlock()
}

// Dropped reports how many datagrams the fault script has discarded.
func (s *LossySink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
