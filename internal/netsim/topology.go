package netsim

import (
	"fmt"
	"net/netip"

	"edgefabric/internal/rib"
)

// Interface is one egress port of a peering router: a PNI to a private
// peer, a shared IXP fabric port, or a transit attachment. Capacity is
// the quantity Edge Fabric protects.
type Interface struct {
	// ID is the PoP-unique interface index (also used in sFlow records
	// and rib.Route.EgressIF).
	ID int
	// Router is the name of the owning peering router.
	Router string
	// Name is a human-readable port name, e.g. "pr1:pni-as65010".
	Name string
	// CapacityBps is the egress capacity in bits per second.
	CapacityBps float64
}

// Peer is one BGP neighbor of the PoP: who they are, which interface
// their traffic leaves through, what they announce, and the base
// propagation latency of paths through them.
type Peer struct {
	// Name is a unique label, e.g. "as65010-pni".
	Name string
	// AS is the neighbor's AS number.
	AS uint32
	// Addr is the neighbor address (session and route identity).
	Addr netip.Addr
	// Class is the Edge Fabric peering tier.
	Class rib.PeerClass
	// InterfaceID is the egress interface traffic to this neighbor
	// uses. Public peers and the route server share their IXP port.
	InterfaceID int
	// Router is the peering router terminating the session.
	Router string
	// Announces lists the prefixes this neighbor announces, with the
	// AS path it presents.
	Announces []Announcement
	// BaseRTTMS is the propagation RTT in milliseconds for paths via
	// this neighbor before per-prefix skew and congestion are applied.
	BaseRTTMS float64
}

// Announcement is one prefix a peer announces with its AS path.
type Announcement struct {
	Prefix netip.Prefix
	// Path is the AS path the neighbor presents (neighbor AS first).
	Path []uint32
	// MED, when nonzero, is attached to the announcement.
	MED uint32
}

// Router is one peering router of the PoP.
type Router struct {
	// Name is unique within the PoP, e.g. "pr1".
	Name string
	// RouterID is the BGP identifier.
	RouterID netip.Addr
}

// Topology describes a PoP: routers, interfaces, and neighbors.
type Topology struct {
	// Name labels the PoP, e.g. "pop-gru".
	Name string
	// LocalAS is the content provider's AS.
	LocalAS uint32
	// Routers are the peering routers.
	Routers []Router
	// Interfaces are the egress ports.
	Interfaces []Interface
	// Peers are the BGP neighbors.
	Peers []Peer

	peerByAddr  map[netip.Addr]*Peer
	ifByID      map[int]*Interface
	routerByNam map[string]*Router
}

// Validate checks referential integrity and builds the lookup indexes.
// It must be called (directly or via NewPoP) before the accessors.
func (t *Topology) Validate() error {
	if t.LocalAS == 0 {
		return fmt.Errorf("netsim: topology %q: LocalAS required", t.Name)
	}
	if len(t.Routers) == 0 {
		return fmt.Errorf("netsim: topology %q: at least one router required", t.Name)
	}
	t.routerByNam = make(map[string]*Router, len(t.Routers))
	for i := range t.Routers {
		r := &t.Routers[i]
		if _, dup := t.routerByNam[r.Name]; dup {
			return fmt.Errorf("netsim: duplicate router %q", r.Name)
		}
		if !r.RouterID.Is4() {
			return fmt.Errorf("netsim: router %q: RouterID must be IPv4", r.Name)
		}
		t.routerByNam[r.Name] = r
	}
	t.ifByID = make(map[int]*Interface, len(t.Interfaces))
	for i := range t.Interfaces {
		ifc := &t.Interfaces[i]
		if _, dup := t.ifByID[ifc.ID]; dup {
			return fmt.Errorf("netsim: duplicate interface ID %d", ifc.ID)
		}
		if _, ok := t.routerByNam[ifc.Router]; !ok {
			return fmt.Errorf("netsim: interface %q references unknown router %q", ifc.Name, ifc.Router)
		}
		if ifc.CapacityBps <= 0 {
			return fmt.Errorf("netsim: interface %q: capacity must be positive", ifc.Name)
		}
		t.ifByID[ifc.ID] = ifc
	}
	t.peerByAddr = make(map[netip.Addr]*Peer, len(t.Peers))
	for i := range t.Peers {
		p := &t.Peers[i]
		if !p.Addr.IsValid() {
			return fmt.Errorf("netsim: peer %q: invalid address", p.Name)
		}
		if _, dup := t.peerByAddr[p.Addr]; dup {
			return fmt.Errorf("netsim: duplicate peer address %s", p.Addr)
		}
		if _, ok := t.ifByID[p.InterfaceID]; !ok {
			return fmt.Errorf("netsim: peer %q references unknown interface %d", p.Name, p.InterfaceID)
		}
		if _, ok := t.routerByNam[p.Router]; !ok {
			return fmt.Errorf("netsim: peer %q references unknown router %q", p.Name, p.Router)
		}
		if p.AS == 0 || p.AS == t.LocalAS {
			return fmt.Errorf("netsim: peer %q: bad AS %d", p.Name, p.AS)
		}
		for _, a := range p.Announces {
			if !a.Prefix.IsValid() {
				return fmt.Errorf("netsim: peer %q announces invalid prefix", p.Name)
			}
			if len(a.Path) == 0 {
				return fmt.Errorf("netsim: peer %q: empty announcement path", p.Name)
			}
			// Route servers are transparent: their announcements carry
			// the member AS path, not the route server's AS.
			if p.Class != rib.ClassRouteServer && a.Path[0] != p.AS {
				return fmt.Errorf("netsim: peer %q: announcement path must start with its AS", p.Name)
			}
		}
		t.peerByAddr[p.Addr] = p
	}
	// Register the derived IPv6 next-hop alias of each v4-addressed
	// peer, so that routes announced via MP_REACH resolve back to their
	// session peer (see v6NextHop).
	for i := range t.Peers {
		p := &t.Peers[i]
		if alias := v6NextHop(p.Addr); alias != p.Addr {
			if _, taken := t.peerByAddr[alias]; !taken {
				t.peerByAddr[alias] = p
			}
		}
	}
	return nil
}

// SetInterfaceCapacity mutates an interface's capacity at runtime —
// the event engine's drain/brownout hook. Callers must serialize with
// dataplane ticks (the engine runs on the tick goroutine).
func (t *Topology) SetInterfaceCapacity(id int, bps float64) error {
	ifc := t.ifByID[id]
	if ifc == nil {
		return fmt.Errorf("netsim: unknown interface %d", id)
	}
	if bps <= 0 {
		return fmt.Errorf("netsim: interface %d: capacity must be positive", id)
	}
	ifc.CapacityBps = bps
	return nil
}

// PeerByAddr returns the peer with the given address, or nil.
func (t *Topology) PeerByAddr(a netip.Addr) *Peer { return t.peerByAddr[a] }

// InterfaceByID returns the interface with the given ID, or nil.
func (t *Topology) InterfaceByID(id int) *Interface { return t.ifByID[id] }

// RouterByName returns the router with the given name, or nil.
func (t *Topology) RouterByName(name string) *Router { return t.routerByNam[name] }
