// Package core implements the Edge Fabric controller — the primary
// contribution of the SIGCOMM 2017 paper. Once per cycle (~30 s) the
// controller:
//
//  1. knows every route each peering router learned, via a BMP feed
//     (RouteStore);
//  2. knows the egress demand per destination prefix, via sFlow
//     (any TrafficSource);
//  3. projects what load every egress interface would carry if all
//     demand followed the BGP-preferred route, ignoring its own
//     currently-installed overrides (Project);
//  4. greedily detours prefixes away from interfaces projected above a
//     utilization threshold onto their best alternate route, never
//     overloading the target (Allocate);
//  5. injects the chosen overrides into the peering routers as BGP
//     routes with a LOCAL_PREF above every policy tier, withdrawing
//     stale ones (Injector).
//
// The controller is stateless across cycles: every cycle recomputes the
// full override set from scratch, so a controller failure degrades to
// default BGP routing rather than wedging stale detours.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"edgefabric/internal/rib"
)

// PeerInfo is the controller's inventory record for one BGP neighbor of
// the PoP.
type PeerInfo struct {
	// Name is a human-readable label.
	Name string
	// Addr is the neighbor address (route identity in BMP feeds).
	Addr netip.Addr
	// AS is the neighbor AS.
	AS uint32
	// Class is the Edge Fabric peering tier.
	Class rib.PeerClass
	// InterfaceID is the egress interface traffic to this neighbor
	// uses.
	InterfaceID int
	// Router is the peering router terminating the session.
	Router string
}

// InterfaceInfo is the inventory record for one egress interface.
type InterfaceInfo struct {
	// ID is the PoP-unique interface index.
	ID int
	// Name is a human-readable port name.
	Name string
	// CapacityBps is the egress capacity in bits per second.
	CapacityBps float64
	// Router is the owning peering router.
	Router string
}

// Inventory is the controller's static knowledge of the PoP: which
// neighbors exist, their peering tiers, and the capacities of the
// interfaces behind them. Production Edge Fabric reads this from SNMP
// and a peering database; the simulator derives it from its topology.
type Inventory struct {
	peers map[netip.Addr]PeerInfo

	// mu guards ifs: interface capacity is mutable at runtime (drain and
	// brownout events re-rate ports, mirroring what production learns
	// from SNMP). The peers map stays immutable after construction — BMP
	// feed goroutines read it unlocked.
	mu  sync.RWMutex
	ifs map[int]InterfaceInfo
}

// maxInterfaceID bounds InterfaceInfo.ID: the allocator keeps its
// per-interface working state in vectors indexed by ID.
const maxInterfaceID = 1<<16 - 1

// NewInventory builds an Inventory, validating referential integrity.
func NewInventory(peers []PeerInfo, ifs []InterfaceInfo) (*Inventory, error) {
	inv := &Inventory{
		peers: make(map[netip.Addr]PeerInfo, len(peers)),
		ifs:   make(map[int]InterfaceInfo, len(ifs)),
	}
	for _, i := range ifs {
		if i.ID < 0 || i.ID > maxInterfaceID {
			return nil, fmt.Errorf("core: interface ID %d outside 0..%d", i.ID, maxInterfaceID)
		}
		if _, dup := inv.ifs[i.ID]; dup {
			return nil, fmt.Errorf("core: duplicate interface %d", i.ID)
		}
		if i.CapacityBps <= 0 {
			return nil, fmt.Errorf("core: interface %d: capacity must be positive", i.ID)
		}
		inv.ifs[i.ID] = i
	}
	for _, p := range peers {
		if !p.Addr.IsValid() {
			return nil, fmt.Errorf("core: peer %q: invalid address", p.Name)
		}
		if _, dup := inv.peers[p.Addr]; dup {
			return nil, fmt.Errorf("core: duplicate peer %s", p.Addr)
		}
		if _, ok := inv.ifs[p.InterfaceID]; !ok {
			return nil, fmt.Errorf("core: peer %q references unknown interface %d", p.Name, p.InterfaceID)
		}
		inv.peers[p.Addr] = p
	}
	return inv, nil
}

// PeerByAddr returns the inventory record for a neighbor address.
func (inv *Inventory) PeerByAddr(a netip.Addr) (PeerInfo, bool) {
	p, ok := inv.peers[a]
	return p, ok
}

// RegisterPeerAlias maps an additional address (e.g. the derived IPv6
// next-hop identity of a v4-addressed session) to an existing peer.
func (inv *Inventory) RegisterPeerAlias(alias netip.Addr, peer netip.Addr) error {
	p, ok := inv.peers[peer]
	if !ok {
		return fmt.Errorf("core: alias target %s unknown", peer)
	}
	if _, taken := inv.peers[alias]; taken {
		return fmt.Errorf("core: alias %s already registered", alias)
	}
	inv.peers[alias] = p
	return nil
}

// PeerAddrsOnRouter returns every registered peer address (aliases
// included) whose session terminates on the named router. The
// controller uses it to flush a dead BMP feed's routes from the store.
func (inv *Inventory) PeerAddrsOnRouter(router string) []netip.Addr {
	var out []netip.Addr
	for addr, p := range inv.peers {
		if p.Router == router {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

// InterfaceByID returns the inventory record for an interface.
func (inv *Inventory) InterfaceByID(id int) (InterfaceInfo, bool) {
	inv.mu.RLock()
	i, ok := inv.ifs[id]
	inv.mu.RUnlock()
	return i, ok
}

// SetInterfaceCapacity updates an interface's capacity at runtime — the
// inventory-side mirror of a netsim drain/brownout event (production
// would learn the same from SNMP re-polling a degraded LAG).
func (inv *Inventory) SetInterfaceCapacity(id int, bps float64) error {
	if bps <= 0 {
		return fmt.Errorf("core: interface %d: capacity must be positive", id)
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	i, ok := inv.ifs[id]
	if !ok {
		return fmt.Errorf("core: unknown interface %d", id)
	}
	i.CapacityBps = bps
	inv.ifs[id] = i
	return nil
}

// Interfaces returns all interfaces sorted by ID.
func (inv *Inventory) Interfaces() []InterfaceInfo {
	inv.mu.RLock()
	out := make([]InterfaceInfo, 0, len(inv.ifs))
	for _, i := range inv.ifs {
		out = append(out, i)
	}
	inv.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Peers returns all peers sorted by address.
func (inv *Inventory) Peers() []PeerInfo {
	seen := make(map[string]bool, len(inv.peers))
	out := make([]PeerInfo, 0, len(inv.peers))
	for _, p := range inv.peers {
		if seen[p.Name] {
			continue // skip alias duplicates
		}
		seen[p.Name] = true
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Addr.Less(out[b].Addr) })
	return out
}
