// Package rib implements the routing information base shared by the
// simulated peering routers and the Edge Fabric controller: route and
// path-attribute types, the import-policy engine that assigns BGP
// LOCAL_PREF by peering tier, the BGP decision process, and a
// longest-prefix-match table with best-route tracking.
//
// The model follows the SIGCOMM 2017 Edge Fabric paper: a PoP learns
// routes toward user prefixes from private interconnects (PNIs), public
// IXP peers, IXP route servers, and transit providers, and a static
// policy prefers them in that order. The controller overrides the policy
// by injecting routes at a tier above all of them.
package rib

import (
	"fmt"
	"net/netip"
	"strings"
)

// Origin is the BGP ORIGIN attribute.
type Origin uint8

// Origin values per RFC 4271 §4.3.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String returns the conventional lowercase origin mnemonic.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "igp"
	case OriginEGP:
		return "egp"
	case OriginIncomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("origin(%d)", uint8(o))
	}
}

// PeerClass identifies the peering tier a route was learned from. The
// Edge Fabric policy prefers lower-numbered classes; ClassController is
// the tier used for injected overrides and outranks everything.
type PeerClass uint8

// Peering tiers in Edge Fabric preference order.
const (
	// ClassController marks routes injected by the Edge Fabric
	// controller; they outrank every organic route.
	ClassController PeerClass = iota
	// ClassPrivate is a private interconnect (PNI) to a peer AS.
	ClassPrivate
	// ClassPublic is a bilateral session across a public IXP fabric.
	ClassPublic
	// ClassRouteServer is a route learned via an IXP route server.
	ClassRouteServer
	// ClassTransit is a paid transit provider with a full table.
	ClassTransit
)

// MarshalText implements encoding.TextMarshaler with the String
// mnemonic, so inventories serialize readably.
func (c PeerClass) MarshalText() ([]byte, error) {
	return []byte(c.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *PeerClass) UnmarshalText(b []byte) error {
	switch string(b) {
	case "controller":
		*c = ClassController
	case "private":
		*c = ClassPrivate
	case "public":
		*c = ClassPublic
	case "route-server":
		*c = ClassRouteServer
	case "transit":
		*c = ClassTransit
	default:
		return fmt.Errorf("rib: unknown peer class %q", b)
	}
	return nil
}

// String returns a short mnemonic for the class.
func (c PeerClass) String() string {
	switch c {
	case ClassController:
		return "controller"
	case ClassPrivate:
		return "private"
	case ClassPublic:
		return "public"
	case ClassRouteServer:
		return "route-server"
	case ClassTransit:
		return "transit"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Route is one BGP path toward a destination prefix, as held in an
// Adj-RIB-In or Loc-RIB. Routes are treated as immutable once added to a
// table; mutate a Clone instead.
type Route struct {
	// Prefix is the destination NLRI.
	Prefix netip.Prefix
	// NextHop is the BGP next hop.
	NextHop netip.Addr
	// ASPath is the flattened AS_PATH sequence, nearest AS first.
	ASPath []uint32
	// PathHops, when nonzero, is the decision-process length of the
	// AS_PATH, which differs from len(ASPath) when the path contains
	// AS_SET segments (each set counts one hop, RFC 4271 §9.1.2.2a).
	// Zero means "use len(ASPath)".
	PathHops int
	// Origin is the ORIGIN attribute.
	Origin Origin
	// MED is the MULTI_EXIT_DISC attribute; HasMED reports presence.
	MED    uint32
	HasMED bool
	// LocalPref is assigned by import policy (or carried on iBGP).
	LocalPref uint32
	// Communities carries standard communities as (asn<<16 | value).
	Communities []uint32

	// PeerAddr and PeerAS identify the BGP neighbor the route was
	// learned from.
	PeerAddr netip.Addr
	PeerAS   uint32
	// PeerClass is the peering tier of that neighbor.
	PeerClass PeerClass
	// FromIBGP marks routes learned over iBGP (e.g. controller
	// injections), which lose the eBGP-over-iBGP tiebreak.
	FromIBGP bool
	// EgressIF is the opaque identifier of the egress interface traffic
	// to this route's next hop leaves through. The simulator assigns
	// interface IDs; the controller does capacity accounting on them.
	EgressIF int
}

// OriginAS reports the AS that originated the prefix (last AS in the
// path), or 0 for an empty path.
func (r *Route) OriginAS() uint32 {
	if len(r.ASPath) == 0 {
		return 0
	}
	return r.ASPath[len(r.ASPath)-1]
}

// NextHopAS reports the first AS in the path (the neighbor AS the
// traffic enters), or 0 for an empty path.
func (r *Route) NextHopAS() uint32 {
	if len(r.ASPath) == 0 {
		return 0
	}
	return r.ASPath[0]
}

// Clone returns a deep copy of the route.
func (r *Route) Clone() *Route {
	c := *r
	if r.ASPath != nil {
		c.ASPath = append([]uint32(nil), r.ASPath...)
	}
	if r.Communities != nil {
		c.Communities = append([]uint32(nil), r.Communities...)
	}
	return &c
}

// String renders the route in a compact single-line form for logs.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s via %s (%s", r.Prefix, r.NextHop, r.PeerClass)
	if r.PeerAS != 0 {
		fmt.Fprintf(&b, " AS%d", r.PeerAS)
	}
	b.WriteString(") path")
	for _, as := range r.ASPath {
		fmt.Fprintf(&b, " %d", as)
	}
	fmt.Fprintf(&b, " lp %d", r.LocalPref)
	if r.HasMED {
		fmt.Fprintf(&b, " med %d", r.MED)
	}
	return b.String()
}

// Split returns the two more-specific halves of a prefix (one bit
// longer), for traffic engineering at sub-prefix granularity: announcing
// one half with different attributes steers half the covered space via
// longest-prefix match. ok is false when the prefix cannot be split
// (host routes, or /31-/127 where splitting to host routes is unwise).
func Split(p netip.Prefix) (lo, hi netip.Prefix, ok bool) {
	p = p.Masked()
	maxBits := 32
	if p.Addr().Is6() && !p.Addr().Is4In6() {
		maxBits = 128
	}
	bits := p.Bits()
	if bits < 0 || bits >= maxBits-1 {
		return netip.Prefix{}, netip.Prefix{}, false
	}
	lo = netip.PrefixFrom(p.Addr(), bits+1)
	var hiAddr netip.Addr
	if p.Addr().Is4() {
		b := p.Addr().As4()
		b[bits/8] |= 0x80 >> (bits % 8)
		hiAddr = netip.AddrFrom4(b)
	} else {
		b := p.Addr().As16()
		b[bits/8] |= 0x80 >> (bits % 8)
		hiAddr = netip.AddrFrom16(b)
	}
	hi = netip.PrefixFrom(hiAddr, bits+1)
	return lo, hi, true
}

// Parent returns the covering prefix one bit shorter, for mapping a
// split half back to the aggregate it was carved from.
func Parent(p netip.Prefix) (netip.Prefix, bool) {
	p = p.Masked()
	if p.Bits() <= 0 {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(p.Addr(), p.Bits()-1).Masked(), true
}

// Community builds a standard community value from an AS and a tag.
func Community(asn uint16, tag uint16) uint32 {
	return uint32(asn)<<16 | uint32(tag)
}

// HasCommunity reports whether the route carries the given community.
func (r *Route) HasCommunity(c uint32) bool {
	for _, v := range r.Communities {
		if v == c {
			return true
		}
	}
	return false
}

// The controller announces weighted multipath overrides add-path-style:
// each member is a separate UPDATE tagged with a slot community (the
// poor man's RFC 7911 path-id, so a router can hold k controller routes
// for one prefix) and a weight community (the member's share of the
// prefix's demand in percent, standing in for the link-bandwidth
// extended community). Both live under the controller's private AS.
const (
	// ControllerCommunityAS is the private AS controller communities
	// are tagged under.
	ControllerCommunityAS uint16 = 64999
	// multipathSlotBase + slot (slot in [0, MaxMultipathSlots)) is the
	// slot community tag.
	multipathSlotBase uint16 = 100
	// multipathWeightBase + pct (pct in [1, 100]) is the weight
	// community tag.
	multipathWeightBase uint16 = 200
	// MaxMultipathSlots bounds the member slots the wire encoding can
	// express.
	MaxMultipathSlots = 16
)

// MultipathSlotCommunity returns the slot community for member slot.
func MultipathSlotCommunity(slot int) uint32 {
	return Community(ControllerCommunityAS, multipathSlotBase+uint16(slot))
}

// MultipathWeightCommunity returns the weight community for a member
// carrying pct percent of the prefix's demand.
func MultipathWeightCommunity(pct int) uint32 {
	return Community(ControllerCommunityAS, multipathWeightBase+uint16(pct))
}

// ParseMultipathCommunities extracts the slot and weight of a
// controller multipath member from its communities. ok is false when
// the set carries no slot community (a plain single-path override).
func ParseMultipathCommunities(cs []uint32) (slot, pct int, ok bool) {
	for _, c := range cs {
		if uint16(c>>16) != ControllerCommunityAS {
			continue
		}
		tag := uint16(c)
		switch {
		case tag >= multipathSlotBase && tag < multipathSlotBase+MaxMultipathSlots:
			slot = int(tag - multipathSlotBase)
			ok = true
		case tag > multipathWeightBase && tag <= multipathWeightBase+100:
			pct = int(tag - multipathWeightBase)
		}
	}
	return slot, pct, ok
}
