package sflow

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// Demux fans one sFlow ingest stream out to many collectors keyed by
// the exporting agent's address — the fleet host's shared listener: N
// PoPs' routers all export to one UDP socket, and each datagram lands
// in the collector of the PoP its agent belongs to. Safe for
// concurrent use.
//
// Routing reads only the fixed-offset datagram header (PeekAgent); the
// payload is decoded exactly once, by the owning collector's streaming
// ingest. The agent table is copy-on-write — registration is rare,
// lookup is per packet — so the hot path takes no lock in the demux at
// all.
type Demux struct {
	mu      sync.Mutex // serializes Register/Unregister copy-on-write
	byAgent atomic.Pointer[map[netip.Addr]*Collector]

	malformed atomic.Uint64 // undecodable datagrams
	unknown   atomic.Uint64 // datagrams from an unregistered agent
}

// NewDemux returns an empty Demux; datagrams are dropped (and counted
// unknown) until agents are registered.
func NewDemux() *Demux {
	d := &Demux{}
	m := make(map[netip.Addr]*Collector)
	d.byAgent.Store(&m)
	return d
}

// Register routes datagrams whose agent address is agent to c. A PoP
// registers every one of its routers' agent addresses against its own
// collector. Registering an agent twice overwrites the previous
// binding.
func (d *Demux) Register(agent netip.Addr, c *Collector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.byAgent.Load()
	next := make(map[netip.Addr]*Collector, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[agent.Unmap()] = c
	d.byAgent.Store(&next)
}

// RegisterBatch routes every agent in bindings to its collector with a
// single copy of the agent table. At fleet scale this matters:
// building a 256-PoP host one Register at a time copies the table
// O((N·routers)²) entries total, a batch per PoP keeps it O(N·routers)
// per PoP.
func (d *Demux) RegisterBatch(bindings map[netip.Addr]*Collector) {
	if len(bindings) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.byAgent.Load()
	next := make(map[netip.Addr]*Collector, len(old)+len(bindings))
	for k, v := range old {
		next[k] = v
	}
	for k, v := range bindings {
		next[k.Unmap()] = v
	}
	d.byAgent.Store(&next)
}

// Unregister removes an agent binding (e.g. when a PoP is torn down).
func (d *Demux) Unregister(agent netip.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.byAgent.Load()
	next := make(map[netip.Addr]*Collector, len(old))
	for k, v := range old {
		if k != agent.Unmap() {
			next[k] = v
		}
	}
	d.byAgent.Store(&next)
}

// UnregisterBatch removes a set of agent bindings with a single copy
// of the agent table (the teardown counterpart of RegisterBatch).
func (d *Demux) UnregisterBatch(agents []netip.Addr) {
	if len(agents) == 0 {
		return
	}
	drop := make(map[netip.Addr]bool, len(agents))
	for _, a := range agents {
		drop[a.Unmap()] = true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.byAgent.Load()
	next := make(map[netip.Addr]*Collector, len(old))
	for k, v := range old {
		if !drop[k] {
			next[k] = v
		}
	}
	d.byAgent.Store(&next)
}

// SendDatagram implements Sink: peek the agent address off the fixed
// header and hand the datagram to the owning PoP's collector, which
// streaming-decodes it exactly once. A datagram from an unregistered
// agent is dropped and counted, never delivered to another PoP —
// isolation is the point.
func (d *Demux) SendDatagram(b []byte) error {
	agent, err := PeekAgent(b)
	if err != nil {
		d.malformed.Add(1)
		return err
	}
	c := (*d.byAgent.Load())[agent.Unmap()]
	if c == nil {
		d.unknown.Add(1)
		return nil
	}
	if err := c.SendDatagram(b); err != nil {
		d.malformed.Add(1)
		return err
	}
	return nil
}

// ServeUDPConns ingests from a reader pool spread across conns (as
// returned by ListenUDP) until ctx ends or a socket fails. At least one
// reader serves each conn; readers beyond len(conns) share sockets
// round-robin.
func (d *Demux) ServeUDPConns(ctx context.Context, conns []net.PacketConn, readers int) error {
	return servePacketConns(ctx, conns, readers, func(b []byte) {
		// Malformed datagrams are counted by SendDatagram, not fatal.
		_ = d.SendDatagram(b)
	})
}

// Stats reports malformed (undecodable) datagrams and datagrams from
// unregistered agents.
func (d *Demux) Stats() (malformed, unknownAgent uint64) {
	return d.malformed.Load(), d.unknown.Load()
}
