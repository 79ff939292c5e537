package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"edgefabric/internal/rib"
)

// SynthConfig parameterizes the synthetic PoP scenario generator. The
// defaults produce a PoP in the spirit of the paper's setting: a couple
// of peering routers, a handful of high-volume private peers whose PNIs
// are not all generously provisioned, a public IXP fabric with dozens of
// peers plus a route server, and two transit providers that can reach
// everything at a longer AS path.
type SynthConfig struct {
	// Seed drives all randomness; equal seeds give equal scenarios.
	Seed int64
	// Name labels the PoP. Default "pop-1".
	Name string
	// PoPIndex distinguishes this PoP's router IDs (sFlow agent
	// addresses) from other PoPs synthesized for the same fleet: router
	// r gets 10.255.{PoPIndex}.{r+1}. Default 0, the historical single
	// PoP address block. A fleet host sharing one sFlow listener
	// requires the blocks to be disjoint, since samples demux to PoPs
	// by agent address.
	PoPIndex int
	// LocalAS is the content provider AS. Default 64500.
	LocalAS uint32
	// Routers is the number of peering routers. Default 2.
	Routers int
	// Prefixes is the number of user prefixes. Default 4000.
	Prefixes int
	// EdgeASes is the number of user (eyeball) ASes. Default 300.
	EdgeASes int
	// PrivatePeers is how many of the highest-volume ASes get PNIs.
	// Default 10.
	PrivatePeers int
	// PublicPeers is how many of the next tier peer bilaterally at the
	// IXP. Default 40.
	PublicPeers int
	// RouteServerMembers is how many smaller ASes are reachable via the
	// IXP route server. Default 60.
	RouteServerMembers int
	// Transits is the number of transit providers. Default 2.
	Transits int
	// PeakBps is the PoP demand peak the capacities are scaled against.
	// Default 400e9.
	PeakBps float64
	// PNIHeadroomMin/Max bound the ratio of PNI capacity to the peer
	// AS's peak demand. Values below 1 create the capacity crunch the
	// paper §3 documents. Defaults 0.7 and 1.8.
	PNIHeadroomMin, PNIHeadroomMax float64
	// IXPHeadroom is the ratio of each IXP port's capacity to the peak
	// demand of the ASes behind it. Default 1.0.
	IXPHeadroom float64
}

// The synthetic PoP's fixed shape.
const (
	// v6Fraction is the share of prefixes that are IPv6.
	v6Fraction = 0.2
	// transitHeadroom is the ratio of total transit capacity to total
	// peak demand.
	transitHeadroom = 1.5
	// zipfExponent shapes the per-AS volume distribution.
	zipfExponent = 1.1
)

func (c *SynthConfig) setDefaults() {
	if c.Name == "" {
		c.Name = "pop-1"
	}
	if c.LocalAS == 0 {
		c.LocalAS = 64500
	}
	if c.Routers == 0 {
		c.Routers = 2
	}
	if c.Prefixes == 0 {
		c.Prefixes = 4000
	}
	if c.EdgeASes == 0 {
		c.EdgeASes = 300
	}
	if c.PrivatePeers == 0 {
		c.PrivatePeers = 10
	}
	if c.PublicPeers == 0 {
		c.PublicPeers = 40
	}
	if c.RouteServerMembers == 0 {
		c.RouteServerMembers = 60
	}
	if c.Transits == 0 {
		c.Transits = 2
	}
	if c.PeakBps == 0 {
		c.PeakBps = 400e9
	}
	if c.PNIHeadroomMin == 0 {
		c.PNIHeadroomMin = 0.7
	}
	if c.PNIHeadroomMax == 0 {
		c.PNIHeadroomMax = 1.8
	}
	if c.IXPHeadroom == 0 {
		c.IXPHeadroom = 1.0
	}
}

// EdgeAS describes one user AS of the synthetic scenario.
type EdgeAS struct {
	// AS is the AS number.
	AS uint32
	// Class is how the PoP reaches it at its best: private, public,
	// route server, or transit-only.
	Class rib.PeerClass
	// Weight is the AS's share of PoP demand.
	Weight float64
	// Prefixes are the prefixes it originates.
	Prefixes []netip.Prefix
}

// Scenario is a fully synthesized experiment input: the PoP topology,
// the prefix universe with demand weights, and the per-AS metadata.
type Scenario struct {
	// Topo is the PoP.
	Topo *Topology
	// Prefixes is the demand-weighted prefix universe.
	Prefixes []*PrefixInfo
	// ASes maps AS number to its metadata.
	ASes map[uint32]*EdgeAS
	// Config echoes the (defaulted) generator config.
	Config SynthConfig
	// Events is the scenario's scheduled event timeline (offsets from
	// the run start). Harnesses attach it via an EventEngine; a nil
	// slice means a quiet scenario.
	Events []Event
}

// NewDemand builds a DemandModel over the scenario's prefixes.
func (s *Scenario) NewDemand(cfg DemandConfig) (*DemandModel, error) {
	if cfg.PeakBps == 0 {
		cfg.PeakBps = s.Config.PeakBps
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.Config.Seed
	}
	return NewDemandModel(cfg, s.Prefixes)
}

// Synthesize generates a Scenario from cfg. It is deterministic in
// cfg.Seed.
func Synthesize(cfg SynthConfig) (*Scenario, error) {
	cfg.setDefaults()
	// Every AS originates at least one prefix, so more ASes than
	// prefixes is unsatisfiable; shrink the AS count instead of looping
	// forever trying to scale per-AS prefix counts below one.
	if cfg.EdgeASes > cfg.Prefixes {
		cfg.EdgeASes = cfg.Prefixes
	}
	if cfg.PrivatePeers+cfg.PublicPeers+cfg.RouteServerMembers > cfg.EdgeASes {
		return nil, fmt.Errorf("netsim: peer counts (%d) exceed EdgeASes (%d); tiny scenarios need explicit peer counts",
			cfg.PrivatePeers+cfg.PublicPeers+cfg.RouteServerMembers, cfg.EdgeASes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// --- Edge ASes with Zipf demand shares and Pareto prefix counts ---
	asWeights := ZipfWeights(cfg.EdgeASes, zipfExponent)
	ases := make([]*EdgeAS, cfg.EdgeASes)
	// Pareto-ish prefix counts, bigger ASes get more prefixes.
	counts := make([]int, cfg.EdgeASes)
	total := 0
	for i := range counts {
		c := 1 + int(float64(cfg.Prefixes)*asWeights[i]*(0.5+rng.Float64()))
		counts[i] = c
		total += c
	}
	// Scale counts to the requested prefix total.
	scaled := 0
	for i := range counts {
		counts[i] = max(1, counts[i]*cfg.Prefixes/total)
		scaled += counts[i]
	}
	for i := 0; scaled < cfg.Prefixes; i = (i + 1) % cfg.EdgeASes {
		counts[i]++
		scaled++
	}
	for i := 0; scaled > cfg.Prefixes && scaled > cfg.EdgeASes; i = (i + 1) % cfg.EdgeASes {
		if counts[i] > 1 {
			counts[i]--
			scaled--
		}
	}

	var prefixes []*PrefixInfo
	nextV4 := 0
	nextV6 := 0
	for i := range ases {
		as := &EdgeAS{AS: 65000 + uint32(i), Weight: asWeights[i], Class: rib.ClassTransit}
		// Split the AS weight across its prefixes with an inner Zipf.
		inner := ZipfWeights(counts[i], 0.9)
		// Shuffle so the heavy prefix isn't always the numerically first.
		rng.Shuffle(len(inner), func(a, b int) { inner[a], inner[b] = inner[b], inner[a] })
		for j := 0; j < counts[i]; j++ {
			var p netip.Prefix
			var rep netip.Addr
			if rng.Float64() < v6Fraction {
				p, rep = v6Prefix(nextV6)
				nextV6++
			} else {
				p, rep = v4Prefix(nextV4)
				nextV4++
			}
			as.Prefixes = append(as.Prefixes, p)
			prefixes = append(prefixes, &PrefixInfo{
				Prefix:   p,
				OriginAS: as.AS,
				Weight:   asWeights[i] * inner[j],
				RepAddr:  rep,
			})
		}
		ases[i] = as
	}
	// Normalize residual float error.
	var sum float64
	for _, p := range prefixes {
		sum += p.Weight
	}
	for _, p := range prefixes {
		p.Weight /= sum
	}

	// --- Assign peering tiers by AS volume rank ---
	order := make([]int, len(ases))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ases[order[a]].Weight > ases[order[b]].Weight })
	for r, idx := range order {
		switch {
		case r < cfg.PrivatePeers:
			ases[idx].Class = rib.ClassPrivate
		case r < cfg.PrivatePeers+cfg.PublicPeers:
			ases[idx].Class = rib.ClassPublic
		case r < cfg.PrivatePeers+cfg.PublicPeers+cfg.RouteServerMembers:
			ases[idx].Class = rib.ClassRouteServer
		}
	}

	// --- Topology ---
	topo := &Topology{Name: cfg.Name, LocalAS: cfg.LocalAS}
	for r := 0; r < cfg.Routers; r++ {
		topo.Routers = append(topo.Routers, Router{
			Name:     fmt.Sprintf("pr%d", r+1),
			RouterID: netip.AddrFrom4([4]byte{10, 255, byte(cfg.PoPIndex), byte(r + 1)}),
		})
	}
	ifID := 0
	peerHost := 1
	peerAddr := func() netip.Addr {
		a := netip.AddrFrom4([4]byte{172, 20, byte(peerHost >> 8), byte(peerHost)})
		peerHost++
		return a
	}
	routerOf := func(i int) string { return topo.Routers[i%cfg.Routers].Name }

	// Private peers: one PNI interface each, capacity tied to AS peak.
	for k, idx := range order[:cfg.PrivatePeers] {
		as := ases[idx]
		head := cfg.PNIHeadroomMin + rng.Float64()*(cfg.PNIHeadroomMax-cfg.PNIHeadroomMin)
		capBps := as.Weight * cfg.PeakBps * head
		router := routerOf(k)
		topo.Interfaces = append(topo.Interfaces, Interface{
			ID:          ifID,
			Router:      router,
			Name:        fmt.Sprintf("%s:pni-as%d", router, as.AS),
			CapacityBps: capBps,
		})
		topo.Peers = append(topo.Peers, Peer{
			Name:        fmt.Sprintf("as%d-pni", as.AS),
			AS:          as.AS,
			Addr:        peerAddr(),
			Class:       rib.ClassPrivate,
			InterfaceID: ifID,
			Router:      router,
			Announces:   announcements(as, nil),
			BaseRTTMS:   8 + rng.Float64()*20,
		})
		ifID++
	}

	// IXP: one shared port per router; public peers and the route
	// server spread across them.
	var publicWeight float64
	for _, idx := range order[cfg.PrivatePeers : cfg.PrivatePeers+cfg.PublicPeers+cfg.RouteServerMembers] {
		publicWeight += ases[idx].Weight
	}
	ixpIFs := make([]int, cfg.Routers)
	for r := 0; r < cfg.Routers; r++ {
		capBps := publicWeight * cfg.PeakBps * cfg.IXPHeadroom / float64(cfg.Routers)
		topo.Interfaces = append(topo.Interfaces, Interface{
			ID:          ifID,
			Router:      topo.Routers[r].Name,
			Name:        fmt.Sprintf("%s:ixp", topo.Routers[r].Name),
			CapacityBps: capBps,
		})
		ixpIFs[r] = ifID
		ifID++
	}
	for k, idx := range order[cfg.PrivatePeers : cfg.PrivatePeers+cfg.PublicPeers] {
		as := ases[idx]
		r := k % cfg.Routers
		topo.Peers = append(topo.Peers, Peer{
			Name:        fmt.Sprintf("as%d-ixp", as.AS),
			AS:          as.AS,
			Addr:        peerAddr(),
			Class:       rib.ClassPublic,
			InterfaceID: ixpIFs[r],
			Router:      topo.Routers[r].Name,
			Announces:   announcements(as, nil),
			BaseRTTMS:   12 + rng.Float64()*25,
		})
	}
	// Route server: one session per router port, transparently carrying
	// member AS paths.
	rsMembers := order[cfg.PrivatePeers+cfg.PublicPeers : cfg.PrivatePeers+cfg.PublicPeers+cfg.RouteServerMembers]
	for r := 0; r < cfg.Routers; r++ {
		var ann []Announcement
		for k, idx := range rsMembers {
			if k%cfg.Routers != r {
				continue
			}
			ann = append(ann, announcements(ases[idx], nil)...)
		}
		topo.Peers = append(topo.Peers, Peer{
			Name:        fmt.Sprintf("route-server-%d", r+1),
			AS:          64700 + uint32(r),
			Addr:        peerAddr(),
			Class:       rib.ClassRouteServer,
			InterfaceID: ixpIFs[r],
			Router:      topo.Routers[r].Name,
			Announces:   ann,
			BaseRTTMS:   15 + rng.Float64()*25,
		})
	}

	// Transits: full-table providers on dedicated interfaces.
	transitCap := cfg.PeakBps * transitHeadroom / float64(cfg.Transits)
	for tIdx := 0; tIdx < cfg.Transits; tIdx++ {
		transitAS := 64600 + uint32(tIdx)
		router := routerOf(tIdx)
		topo.Interfaces = append(topo.Interfaces, Interface{
			ID:          ifID,
			Router:      router,
			Name:        fmt.Sprintf("%s:transit-as%d", router, transitAS),
			CapacityBps: transitCap,
		})
		var ann []Announcement
		for _, as := range ases {
			via := []uint32{transitAS}
			// Some origins sit one AS deeper behind this transit; which
			// ones differ per transit, so transits present different
			// path lengths for the same prefix.
			if hash2(cfg.Seed, uint64(as.AS), uint64(transitAS))%100 < 40 {
				via = append(via, 64800+uint32(tIdx))
			}
			path := append(via, as.AS)
			for _, p := range as.Prefixes {
				ann = append(ann, Announcement{Prefix: p, Path: path})
			}
		}
		topo.Peers = append(topo.Peers, Peer{
			Name:        fmt.Sprintf("transit-as%d", transitAS),
			AS:          transitAS,
			Addr:        peerAddr(),
			Class:       rib.ClassTransit,
			InterfaceID: ifID,
			Router:      router,
			Announces:   ann,
			BaseRTTMS:   25 + rng.Float64()*30,
		})
		ifID++
	}

	if err := topo.Validate(); err != nil {
		return nil, err
	}
	asMap := make(map[uint32]*EdgeAS, len(ases))
	for _, a := range ases {
		asMap[a.AS] = a
	}
	return &Scenario{Topo: topo, Prefixes: prefixes, ASes: asMap, Config: cfg}, nil
}

// announcements renders an AS's own prefixes as announcements with the
// given AS-path prefix (nil means the path is just the origin AS).
func announcements(as *EdgeAS, via []uint32) []Announcement {
	out := make([]Announcement, 0, len(as.Prefixes))
	path := append(append([]uint32(nil), via...), as.AS)
	for _, p := range as.Prefixes {
		out = append(out, Announcement{Prefix: p, Path: path})
	}
	return out
}

// v4Prefix returns the i-th synthetic user /24 and a representative
// host in it. The first 64k live in 10.0.0.0/8 (the historical layout,
// kept byte-identical so seeds reproduce); million-prefix tables spill
// into the successive /8s (11/8, 12/8, ...).
func v4Prefix(i int) (netip.Prefix, netip.Addr) {
	a := netip.AddrFrom4([4]byte{byte(10 + i>>16), byte(i >> 8), byte(i), 0})
	rep := netip.AddrFrom4([4]byte{byte(10 + i>>16), byte(i >> 8), byte(i), 1})
	return netip.PrefixFrom(a, 24), rep
}

// v6Prefix returns the i-th synthetic user /48. The first 64k live in
// 2001:db8::/32 (historical layout); the spill goes to the larger
// documentation block 3fff::/20 (RFC 9637), which holds 2^28 /48s.
func v6Prefix(i int) (netip.Prefix, netip.Addr) {
	var b [16]byte
	if i < 1<<16 {
		copy(b[:], []byte{0x20, 0x01, 0x0d, 0xb8})
	} else {
		b[0], b[1] = 0x3f, 0xff
		b[2] = byte(i >> 24 & 0x0f)
		b[3] = byte(i >> 16)
	}
	b[4] = byte(i >> 8)
	b[5] = byte(i)
	addr := netip.AddrFrom16(b)
	b[15] = 1
	rep := netip.AddrFrom16(b)
	return netip.PrefixFrom(addr, 48), rep
}

// hash2 is a small deterministic hash for structural decisions: 64-bit
// FNV-1a over the big-endian bytes of seed, a and b, the same value
// hash/fnv's New64a gives for them, computed inline without its
// allocation.
func hash2(seed int64, a, b uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [3]uint64{uint64(seed), a, b} {
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= v >> shift & 0xff
			h *= prime64
		}
	}
	return h
}
