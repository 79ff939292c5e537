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

// This file is how a controller attaches to the PoP's routers and how
// those attachments fail: BMPDialer and ControllerDialer serve every BMP
// and iBGP session a router has, in-process or bridged onto TCP (see
// Bridge); KillBMP/RestoreBMP and ResetInjection script their failures,
// and LossySink scripts sFlow datagram loss. The event engine's bmp-kill,
// ibgp-reset and sflow-loss events and E11 drive them to prove the
// controller's fail-static behaviour.

// faultState is the PoP's per-router session bookkeeping.
type faultState struct {
	mu        sync.Mutex
	bmpKilled map[string]bool
	bmpConn   map[string]net.Conn // current controller-side BMP conn
	injConn   map[string]net.Conn // current controller-side iBGP conn
}

// exporter returns the named router's current BMP exporter (nil before
// the first dial); prHandler mirrors events through this accessor so a
// redial's exporter swap is safe against concurrent session goroutines.
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
// suitable for Controller.AddBMPFeedDialer or a Bridge. Each dial, the
// first included, simulates the router accepting a fresh BMP session
// (RFC 7854): a new exporter replaces the old one and replays Peer Up
// plus a full table dump for every live session, then mirrors live
// events. Dials fail while KillBMP is in effect.
func (p *PoP) BMPDialer(router string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		if _, ok := p.routers[router]; !ok {
			return nil, fmt.Errorf("netsim: unknown router %q", router)
		}
		p.flt.mu.Lock()
		if p.flt.bmpKilled[router] {
			p.flt.mu.Unlock()
			return nil, fmt.Errorf("netsim: bmp endpoint %s is down", router)
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
	p.flt.bmpKilled[router] = true
	conn := p.flt.bmpConn[router]
	p.flt.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// RestoreBMP lets the named router's BMP endpoint accept dials again.
func (p *PoP) RestoreBMP(router string) {
	p.flt.mu.Lock()
	p.flt.bmpKilled[router] = false
	p.flt.mu.Unlock()
}

// ControllerDialer returns a dial function for the controller's iBGP
// session toward the named router, suitable for
// Controller.AddInjectionSessionDialer or a Bridge. Each dial has the
// router's passive controller peer (registered at Start) accept a fresh
// transport.
func (p *PoP) ControllerDialer(router string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		pr, ok := p.routers[router]
		if !ok {
			return nil, fmt.Errorf("netsim: unknown router %q", router)
		}
		prEnd, ctrlEnd := BufferedPipe()
		if err := pr.Peer(ControllerAddr).Accept(prEnd); err != nil {
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
