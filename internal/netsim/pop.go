package netsim

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// ControllerAddr is the iBGP address the Edge Fabric controller uses
// when injecting routes into the PoP's peering routers.
var ControllerAddr = netip.MustParseAddr("10.255.0.100")

// ControllerPathAddr returns the synthetic per-slot peer address a
// controller multipath member is stored under. The PoP table keys routes
// by (prefix, peer address), so each member of a weighted set needs a
// distinct address to coexist; slot 0 is ControllerAddr itself, higher
// slots derive from it (10.255.0.100+slot stays clear of the router
// loopbacks at 10.255.0.10+i for MaxMultipathSlots ≤ 16).
func ControllerPathAddr(slot int) netip.Addr {
	if slot <= 0 {
		return ControllerAddr
	}
	b := ControllerAddr.As4()
	b[3] += byte(slot)
	return netip.AddrFrom4(b)
}

// popHoldTime is the hold time of the PoP's real BGP sessions (wall
// clock).
const popHoldTime = 30 * time.Second

// PoPConfig configures a live PoP.
type PoPConfig struct {
	// Scenario supplies topology and prefixes; required.
	Scenario *Scenario
	// Demand drives the dataplane; required.
	Demand *DemandModel
	// Clock is the simulation clock; required.
	Clock *Clock
	// Perf parameterizes path RTTs; zero value gets defaults.
	Perf PathPerfConfig
	// SFlowSink receives the routers' sFlow datagrams (usually the
	// controller's collector). Nil disables sampling.
	SFlowSink sflow.Sink
	// SamplingRate is the sFlow 1-in-N rate. Default 1024.
	SamplingRate uint32
	// Logf, when set, receives one-line log events.
	Logf func(format string, args ...any)
}

// PoP is a running emulated point of presence: real BGP speakers for the
// peering routers and every remote neighbor, a BMP exporter per router
// once a controller dials its BMP session, sFlow agents, a PoP-wide
// forwarding table, and the dataplane that moves synthetic demand
// through it all.
type PoP struct {
	cfg   PoPConfig
	Topo  *Topology
	Table *rib.Table
	Plane *Dataplane

	routers  map[string]*bgp.Speaker
	routerIP map[string]netip.Addr
	remotes  []*bgp.Speaker
	agents   map[string]*sflow.Agent

	expMu     sync.RWMutex // guards exporters (faults swap them live)
	exporters map[string]*bmp.Exporter

	flt faultState // scripted fault bookkeeping (see faults.go)
	ctl ctlHeld    // which controller routes each router holds

	mu      sync.Mutex
	started bool
}

// ctlHeld records the slots of the controller routes each router's
// session holds, as bitmasks over ControllerPathAddr(slot): 16 bits a
// router, four routers to a key, so a two-router PoP keeps one map
// entry per overridden prefix. The routers share one table but apply
// the injector's UPDATEs at their own pace, each router a
// withdraw-then-announce of a changed set. The table keeps a controller
// route while any router holds its slot: one router's late withdraw
// removes nothing another router already re-announced, so once the
// table shows a cycle's set, the other router's copy of the same
// UPDATEs leaves it as it is.
type ctlHeld struct {
	mu     sync.Mutex // held across one UPDATE or flush
	held   map[ctlKey]uint64
	groups int // keys per prefix: routers/4, rounded up
}

type ctlKey struct {
	prefix netip.Prefix
	group  uint8 // router index / 4
}

// hold records that router i holds slot of prefix.
func (c *ctlHeld) hold(i int, prefix netip.Prefix, slot int) {
	c.held[ctlKey{prefix, uint8(i / 4)}] |= 1 << (16*(i%4) + slot)
}

// release clears router i's slots in mask for prefix and removes from
// tab every slot in mask that no router holds.
func (c *ctlHeld) release(tab *rib.Table, i int, prefix netip.Prefix, mask uint16) {
	k := ctlKey{prefix, uint8(i / 4)}
	if left := c.held[k] &^ (uint64(mask) << (16 * (i % 4))); left != 0 {
		c.held[k] = left
	} else {
		delete(c.held, k)
	}
	for g := 0; g < c.groups; g++ {
		h := c.held[ctlKey{prefix, uint8(g)}]
		mask &^= uint16(h | h>>16 | h>>32 | h>>48)
	}
	for slot := 0; slot < rib.MaxMultipathSlots; slot++ {
		if mask&(1<<slot) != 0 {
			tab.Remove(prefix, ControllerPathAddr(slot))
		}
	}
}

// NewPoP builds (but does not start) a PoP.
func NewPoP(cfg PoPConfig) (*PoP, error) {
	if cfg.Scenario == nil || cfg.Demand == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("netsim: Scenario, Demand, and Clock are required")
	}
	if cfg.SamplingRate == 0 {
		cfg.SamplingRate = 1024
	}
	if cfg.Perf.Seed == 0 {
		cfg.Perf.Seed = cfg.Scenario.Config.Seed
	}
	topo := cfg.Scenario.Topo
	p := &PoP{
		cfg:       cfg,
		Topo:      topo,
		Table:     rib.NewTable(rib.DefaultPolicy()),
		routers:   make(map[string]*bgp.Speaker),
		routerIP:  make(map[string]netip.Addr),
		exporters: make(map[string]*bmp.Exporter),
		agents:    make(map[string]*sflow.Agent),
		ctl:       ctlHeld{held: make(map[ctlKey]uint64), groups: (len(topo.Routers) + 3) / 4},
		flt: faultState{
			bmpKilled: make(map[string]bool),
			bmpConn:   make(map[string]net.Conn),
			injConn:   make(map[string]net.Conn),
		},
	}
	// sFlow agents.
	if cfg.SFlowSink != nil {
		for i, r := range topo.Routers {
			p.agents[r.Name] = sflow.NewAgent(sflow.AgentConfig{
				Agent:        r.RouterID,
				SamplingRate: cfg.SamplingRate,
				Seed:         cfg.Scenario.Config.Seed + int64(i),
				Sink:         cfg.SFlowSink,
			})
		}
	}
	perf := NewPathPerf(cfg.Perf)
	p.Plane = NewDataplane(topo, p.Table, perf, cfg.Demand, p.agents)
	return p, nil
}

// prHandler accepts routes from one peering router's sessions into the
// PoP table and mirrors organic routes to the router's BMP exporter.
type prHandler struct {
	pop    *PoP
	router string
	idx    int // the router's index in Topo.Routers
}

// HandleEstablished implements bgp.SessionHandler.
func (h *prHandler) HandleEstablished(peer *bgp.Peer, open *bgp.Open) {
	if peer.Addr() == ControllerAddr {
		return
	}
	if exp := h.pop.exporter(h.router); exp != nil {
		_ = exp.PeerUp(peer.Addr(), peer.AS(), open.RouterID, h.pop.routerIP[h.router])
	}
}

// HandleDown implements bgp.SessionHandler: withdraw everything learned
// from the dead session.
func (h *prHandler) HandleDown(peer *bgp.Peer, err error) {
	if peer.Addr() != ControllerAddr {
		h.pop.Table.RemovePeer(peer.Addr())
		if exp := h.pop.exporter(h.router); exp != nil {
			_ = exp.PeerDown(peer.Addr(), peer.AS(), 2)
		}
		return
	}
	// Controller session: multipath members live under synthetic per-slot
	// peer addresses — sweep those too. The table is shared, so a drop
	// on any router clears every controller route, whichever router
	// holds it.
	c := &h.pop.ctl
	c.mu.Lock()
	defer c.mu.Unlock()
	for slot := 0; slot < rib.MaxMultipathSlots; slot++ {
		h.pop.Table.RemovePeer(ControllerPathAddr(slot))
	}
	clear(c.held)
}

// HandleUpdate implements bgp.SessionHandler: convert the UPDATE into
// table operations, resolving peer class and egress interface from the
// topology (or, for controller injections, from the announced next hop).
func (h *prHandler) HandleUpdate(peer *bgp.Peer, u *bgp.Update) {
	pop := h.pop
	fromController := peer.Addr() == ControllerAddr
	var spec *Peer
	if fromController {
		pop.ctl.mu.Lock()
		defer pop.ctl.mu.Unlock()
	} else {
		spec = pop.Topo.PeerByAddr(peer.Addr())
		if spec == nil {
			return // session from an unknown neighbor: drop
		}
		if exp := pop.exporter(h.router); exp != nil {
			_ = exp.Route(peer.Addr(), peer.AS(), u)
		}
	}

	apply := func(prefix netip.Prefix, nextHop netip.Addr) {
		r := &rib.Route{
			Prefix:      prefix,
			NextHop:     nextHop,
			ASPath:      u.Attrs.FlatASPath(),
			PathHops:    u.Attrs.PathHopCount(),
			Origin:      rib.Origin(u.Attrs.Origin),
			MED:         u.Attrs.MED,
			HasMED:      u.Attrs.HasMED,
			Communities: u.Attrs.Communities,
			PeerAddr:    peer.Addr(),
			PeerAS:      peer.AS(),
		}
		if fromController {
			r.PeerClass = rib.ClassController
			r.FromIBGP = true
			r.LocalPref = u.Attrs.LocalPref
			// Resolve the next hop to the egress interface of the peer
			// whose path the override steers traffic onto.
			target := pop.Topo.PeerByAddr(nextHop)
			if target == nil {
				return // uninstallable override
			}
			r.EgressIF = target.InterfaceID
			// A weighted multipath member carries a slot community: store
			// it under the synthetic per-slot peer address so the k
			// members of the set coexist in the table. A plain override
			// (no slot community) replaces any lingering members.
			slot, _, ok := rib.ParseMultipathCommunities(u.Attrs.Communities)
			if ok {
				r.PeerAddr = ControllerPathAddr(slot)
			} else {
				slot = 0
				pop.ctl.release(pop.Table, h.idx, prefix, ^uint16(1))
			}
			pop.ctl.hold(h.idx, prefix, slot)
		} else {
			r.PeerClass = spec.Class
			r.EgressIF = spec.InterfaceID
		}
		pop.Table.Accept(r)
	}
	withdraw := func(prefix netip.Prefix) {
		if !fromController {
			pop.Table.Remove(prefix, peer.Addr())
			return
		}
		// A controller withdraw is prefix-scoped on the wire: it
		// releases every slot, and each slot no other router holds
		// leaves the table.
		pop.ctl.release(pop.Table, h.idx, prefix, ^uint16(0))
	}

	for _, w := range u.Withdrawn {
		withdraw(w)
	}
	if u.Attrs.MPUnreach != nil {
		for _, w := range u.Attrs.MPUnreach.Withdrawn {
			withdraw(w)
		}
	}
	for _, n := range u.NLRI {
		apply(n, u.Attrs.NextHop)
	}
	if u.Attrs.MPReach != nil {
		for _, n := range u.Attrs.MPReach.NLRI {
			apply(n, u.Attrs.MPReach.NextHop)
		}
	}
}

// Start brings up the routers, the remote neighbors and their sessions,
// and registers each router's passive iBGP peer for the controller.
// Sessions establish asynchronously; call WaitConverged to block until
// the table is full. The controller attaches through BMPDialer and
// ControllerDialer.
func (p *PoP) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("netsim: PoP already started")
	}
	p.started = true
	p.mu.Unlock()

	// Peering router speakers, each with its controller peer.
	for i, r := range p.Topo.Routers {
		ip := netip.AddrFrom4([4]byte{10, 255, 0, byte(10 + i)})
		p.routerIP[r.Name] = ip
		sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
			LocalAS:  p.Topo.LocalAS,
			RouterID: r.RouterID,
			HoldTime: popHoldTime,
			Handler:  &prHandler{pop: p, router: r.Name, idx: i},
			Logf:     p.cfg.Logf,
		})
		if err != nil {
			return err
		}
		if _, err := sp.AddPeer(bgp.PeerConfig{
			PeerAddr: ControllerAddr,
			PeerAS:   p.Topo.LocalAS, // iBGP
		}); err != nil {
			return err
		}
		p.routers[r.Name] = sp // ControllerDialer relies on the peer above
	}

	// Remote neighbors: one speaker per Peer spec, wired by pipe to its
	// terminating router.
	for i := range p.Topo.Peers {
		spec := &p.Topo.Peers[i]
		pr := p.routers[spec.Router]
		prIP := p.routerIP[spec.Router]
		remote, err := bgp.NewSpeaker(bgp.SpeakerConfig{
			LocalAS:  spec.AS,
			RouterID: netip.AddrFrom4([4]byte{10, 254, byte(i >> 8), byte(i)}),
			HoldTime: popHoldTime,
			Logf:     p.cfg.Logf,
		})
		if err != nil {
			return err
		}
		p.remotes = append(p.remotes, remote)

		prPeer, err := pr.AddPeer(bgp.PeerConfig{
			PeerAddr: spec.Addr,
			PeerAS:   spec.AS,
		})
		if err != nil {
			return err
		}
		announcer := &remoteAnnouncer{spec: spec}
		remotePeer, err := remote.AddPeer(bgp.PeerConfig{
			PeerAddr: prIP,
			PeerAS:   p.Topo.LocalAS,
			Handler:  announcer,
		})
		if err != nil {
			return err
		}
		a, b := BufferedPipe()
		if err := prPeer.Accept(a); err != nil {
			return err
		}
		if err := remotePeer.Accept(b); err != nil {
			return err
		}
	}
	go func() {
		<-ctx.Done()
		p.Close()
	}()
	return nil
}

// ExpectedRoutes returns the number of routes the table holds once every
// session has converged.
func (p *PoP) ExpectedRoutes() int {
	n := 0
	for i := range p.Topo.Peers {
		n += len(p.Topo.Peers[i].Announces)
	}
	return n
}

// WaitConverged blocks until the table holds every expected organic
// route or ctx expires.
func (p *PoP) WaitConverged(ctx context.Context) error {
	want := p.ExpectedRoutes()
	if err := p.Table.WaitRouteCount(ctx, want); err != nil {
		return fmt.Errorf("netsim: converged %d/%d routes: %w", p.Table.RouteCount(), want, err)
	}
	return nil
}

// RouterIP returns the loopback address of the named peering router, the
// address the controller dials its iBGP session toward.
func (p *PoP) RouterIP(router string) netip.Addr { return p.routerIP[router] }

// Routers lists router names.
func (p *PoP) Routers() []string {
	out := make([]string, 0, len(p.routers))
	for _, r := range p.Topo.Routers {
		out = append(out, r.Name)
	}
	return out
}

// PeerSessionDown administratively kills the PR-side session with the
// given neighbor, simulating a link or session failure. The PR withdraws
// everything learned from it.
func (p *PoP) PeerSessionDown(addr netip.Addr) error {
	spec := p.Topo.PeerByAddr(addr)
	if spec == nil {
		return fmt.Errorf("netsim: unknown peer %s", addr)
	}
	pr := p.routers[spec.Router]
	peer := pr.Peer(addr)
	if peer == nil {
		return fmt.Errorf("netsim: no session for %s", addr)
	}
	return peer.Notify(bgp.NotifCease, bgp.CeaseAdminShutdown)
}

// PeerSessionUp re-establishes a session previously taken down by
// PeerSessionDown: a fresh transport is handed to both sides, the
// session re-opens, and the remote re-announces its full set (the
// remoteAnnouncer fires on establish), ending a scheduled depeering.
func (p *PoP) PeerSessionUp(addr netip.Addr) error {
	spec := p.Topo.PeerByAddr(addr)
	if spec == nil {
		return fmt.Errorf("netsim: unknown peer %s", addr)
	}
	idx := -1
	for i := range p.Topo.Peers {
		if &p.Topo.Peers[i] == spec {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(p.remotes) {
		return fmt.Errorf("netsim: no remote speaker for %s", addr)
	}
	prPeer := p.routers[spec.Router].Peer(spec.Addr)
	remotePeer := p.remotes[idx].Peer(p.routerIP[spec.Router])
	if prPeer == nil || remotePeer == nil {
		return fmt.Errorf("netsim: no session objects for %s", addr)
	}
	a, b := BufferedPipe()
	if err := prPeer.Accept(a); err != nil {
		return err
	}
	return remotePeer.Accept(b)
}

// Close shuts down all speakers and closes the controller's streams.
func (p *PoP) Close() {
	for _, sp := range p.remotes {
		sp.Close()
	}
	for _, sp := range p.routers {
		sp.Close()
	}
	p.expMu.RLock()
	for _, exp := range p.exporters {
		_ = exp.Close()
	}
	p.expMu.RUnlock()
	p.flt.mu.Lock()
	for _, c := range p.flt.bmpConn {
		c.Close()
	}
	for _, c := range p.flt.injConn {
		c.Close()
	}
	p.flt.mu.Unlock()
}

// remoteAnnouncer announces a neighbor's prefixes once its session with
// the peering router establishes.
type remoteAnnouncer struct {
	bgp.NopHandler
	spec *Peer
}

// HandleEstablished implements bgp.SessionHandler.
func (a *remoteAnnouncer) HandleEstablished(peer *bgp.Peer, _ *bgp.Open) {
	go func() {
		for _, u := range BuildAnnouncements(a.spec) {
			if err := peer.SendUpdate(u); err != nil {
				return
			}
		}
	}()
}

// BuildAnnouncements renders a neighbor's announcement list as BGP
// UPDATEs, batching prefixes that share an AS path and address family.
func BuildAnnouncements(spec *Peer) []*bgp.Update {
	type group struct {
		path []uint32
		med  uint32
		v4   []netip.Prefix
		v6   []netip.Prefix
	}
	groups := make(map[string]*group)
	var order []string
	for _, ann := range spec.Announces {
		key := fmt.Sprint(ann.Path, "/", ann.MED)
		g, ok := groups[key]
		if !ok {
			g = &group{path: ann.Path, med: ann.MED}
			groups[key] = g
			order = append(order, key)
		}
		if ann.Prefix.Addr().Is4() {
			g.v4 = append(g.v4, ann.Prefix)
		} else {
			g.v6 = append(g.v6, ann.Prefix)
		}
	}
	var updates []*bgp.Update
	const batch = 200
	for _, key := range order {
		g := groups[key]
		attrs := func() bgp.PathAttrs {
			a := bgp.PathAttrs{
				HasOrigin: true,
				ASPath:    bgp.Sequence(g.path...),
			}
			if g.med != 0 {
				a.MED, a.HasMED = g.med, true
			}
			return a
		}
		for i := 0; i < len(g.v4); i += batch {
			end := min(i+batch, len(g.v4))
			u := &bgp.Update{Attrs: attrs(), NLRI: g.v4[i:end]}
			u.Attrs.NextHop = spec.Addr
			updates = append(updates, u)
		}
		for i := 0; i < len(g.v6); i += batch {
			end := min(i+batch, len(g.v6))
			u := &bgp.Update{Attrs: attrs()}
			u.Attrs.MPReach = &bgp.MPReach{
				AFI:     bgp.AFIIPv6,
				SAFI:    bgp.SAFIUnicast,
				NextHop: v6NextHop(spec.Addr),
				NLRI:    g.v6[i:end],
			}
			updates = append(updates, u)
		}
	}
	return updates
}

// V6AliasFor exposes the derived IPv6 next-hop identity of a
// v4-addressed peer (see v6NextHop) so that controller inventories can
// register the same alias the simulator announces with.
func V6AliasFor(a netip.Addr) netip.Addr { return v6NextHop(a) }

// v6NextHop derives a v6 next hop identity for a peer addressed in v4:
// the PoP table keys sessions by peer address, so the mapped form keeps
// the association. Real deployments run distinct v4/v6 sessions; the
// simulation folds them into one.
func v6NextHop(a netip.Addr) netip.Addr {
	if a.Is6() && !a.Is4In6() {
		return a
	}
	b := a.As4()
	var v6 [16]byte
	copy(v6[:4], []byte{0x20, 0x01, 0x0d, 0xb8})
	v6[4], v6[5] = 0xff, 0xff
	copy(v6[12:], b[:])
	return netip.AddrFrom16(v6)
}
