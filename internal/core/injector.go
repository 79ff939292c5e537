package core

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/metrics"
	"edgefabric/internal/rib"
)

// InjectorConfig configures the BGP injector.
type InjectorConfig struct {
	// LocalAS is the PoP's AS (the injector speaks iBGP).
	LocalAS uint32
	// RouterID identifies the controller; it must be IPv4.
	RouterID netip.Addr
	// HoldTime for the injection sessions. Default 30 s.
	HoldTime time.Duration
	// Metrics receives injection counters (partial deliveries,
	// re-announcements); nil allocates a private registry.
	Metrics *metrics.Registry
	// OnSessionUp / OnSessionDown, when set, observe per-router session
	// transitions (the controller wires its health tracker here). They
	// are called from session goroutines and must not block.
	OnSessionUp   func(router netip.Addr)
	OnSessionDown func(router netip.Addr, reason error)
	// Logf, when set, receives one-line log events.
	Logf func(format string, args ...any)
}

// Injector turns allocator decisions into BGP state on the peering
// routers: it holds an iBGP session to each router and, every cycle,
// diffs the desired override set against what each router has been
// delivered, announcing the changes and withdrawing the leftovers.
// Delivery is tracked *per router*: a prefix counts as installed only on
// routers whose session actually took the UPDATE, and a session that
// re-establishes is re-fed the installed set (the router withdrew
// everything when the session dropped). Because the desired set is
// recomputed from scratch each cycle, injector state never accumulates:
// a controller restart simply withdraws everything (session drop) and
// rebuilds.
type Injector struct {
	speaker *bgp.Speaker
	cfg     InjectorConfig
	metrics *metrics.Registry

	mu        sync.Mutex
	installed map[netip.Prefix]Override
	routers   map[netip.Addr]*injRouter
	// view is the cached snapshot handed out by Installed; nil when a
	// Sync has changed installed since the last snapshot was built.
	view map[netip.Prefix]Override
}

// injRouter is the injector's per-router delivery state.
type injRouter struct {
	addr netip.Addr
	peer *bgp.Peer
	// delivered maps each prefix the router acknowledged taking to the
	// signature of the announcement it holds (next hop for a single
	// detour, the weighted member set for multipath; see overrideSig).
	// A multipath prefix is recorded only once every member UPDATE was
	// taken. Cleared when the session drops — BGP semantics already
	// withdrew everything the session carried.
	delivered map[netip.Prefix]overrideSig
}

// NewInjector returns an Injector; wire routers with AddRouter or
// AddRouterDialer.
func NewInjector(cfg InjectorConfig) (*Injector, error) {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS:  cfg.LocalAS,
		RouterID: cfg.RouterID,
		HoldTime: cfg.HoldTime,
		Logf:     cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &Injector{
		speaker:   sp,
		cfg:       cfg,
		metrics:   cfg.Metrics,
		installed: make(map[netip.Prefix]Override),
		routers:   make(map[netip.Addr]*injRouter),
	}, nil
}

// injHandler observes one injection session's lifecycle.
type injHandler struct {
	bgp.NopHandler
	inj  *Injector
	addr netip.Addr
}

// HandleEstablished implements bgp.SessionHandler: a (re-)established
// router is re-fed the currently-installed override set from a separate
// goroutine (the handler runs on the session goroutine).
func (h *injHandler) HandleEstablished(*bgp.Peer, *bgp.Open) {
	go h.inj.reannounce(h.addr)
	if h.inj.cfg.OnSessionUp != nil {
		h.inj.cfg.OnSessionUp(h.addr)
	}
}

// HandleDown implements bgp.SessionHandler: the session drop withdrew
// everything it carried, so the router's delivery state resets.
func (h *injHandler) HandleDown(_ *bgp.Peer, reason error) {
	h.inj.clearDelivered(h.addr)
	if h.inj.cfg.OnSessionDown != nil {
		h.inj.cfg.OnSessionDown(h.addr, reason)
	}
}

func (inj *Injector) clearDelivered(addr netip.Addr) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if r, ok := inj.routers[addr]; ok {
		r.delivered = make(map[netip.Prefix]overrideSig)
	}
}

// addRouterPeer registers the peer and delivery state shared by both
// AddRouter flavors.
func (inj *Injector) addRouterPeer(addr netip.Addr, dial func(ctx context.Context) (net.Conn, error)) (*bgp.Peer, error) {
	peer, err := inj.speaker.AddPeer(bgp.PeerConfig{
		PeerAddr: addr,
		PeerAS:   inj.speaker.LocalAS(),
		Dial:     dial,
		Handler:  &injHandler{inj: inj, addr: addr},
	})
	if err != nil {
		return nil, err
	}
	inj.mu.Lock()
	inj.routers[addr] = &injRouter{addr: addr, peer: peer, delivered: make(map[netip.Prefix]overrideSig)}
	inj.mu.Unlock()
	return peer, nil
}

// AddRouter registers an iBGP session toward a peering router reachable
// at addr over conn (the controller side of the transport). The session
// does not self-heal: when conn drops, the router stays down until a new
// connection is Accepted. Use AddRouterDialer for supervised sessions.
func (inj *Injector) AddRouter(addr netip.Addr, conn net.Conn) error {
	peer, err := inj.addRouterPeer(addr, nil)
	if err != nil {
		return err
	}
	return peer.Accept(conn)
}

// AddRouterDialer registers a self-healing iBGP session: the peer dials
// with exponential backoff whenever the session is down, and the
// injector re-announces the installed override set on each
// re-establishment.
func (inj *Injector) AddRouterDialer(addr netip.Addr, dial func(ctx context.Context) (net.Conn, error)) error {
	if dial == nil {
		return fmt.Errorf("core: AddRouterDialer requires a dial function")
	}
	_, err := inj.addRouterPeer(addr, dial)
	return err
}

// DeliveredCount returns how many prefixes the given router currently
// holds from the injector.
func (inj *Injector) DeliveredCount(addr netip.Addr) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if r, ok := inj.routers[addr]; ok {
		return len(r.delivered)
	}
	return 0
}

// WaitEstablished blocks until every router session is established.
func (inj *Injector) WaitEstablished(ctx context.Context) error {
	for _, p := range inj.speaker.Peers() {
		if err := p.WaitEstablished(ctx); err != nil {
			return fmt.Errorf("core: injector session %s: %w", p.Addr(), err)
		}
	}
	return nil
}

// Installed returns a snapshot of the currently-announced override set.
// The snapshot is cached and shared between callers until the next Sync
// changes something, so steady-state cycles don't rebuild it; callers
// must not modify the returned map.
func (inj *Injector) Installed() map[netip.Prefix]Override {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.view == nil {
		inj.view = make(map[netip.Prefix]Override, len(inj.installed))
		for k, v := range inj.installed {
			inj.view[k] = v
		}
	}
	return inj.view
}

// batchSize bounds prefixes per UPDATE; conservative against the 4 KiB
// message limit even with long AS paths.
const batchSize = 200

// Injected routes are tagged with communities so that operators (and
// route auditing) can recognize controller state on a router at a
// glance: the marker community identifies Edge Fabric, the reason
// community distinguishes overload detours from performance moves and
// split halves.
const (
	// CommunityTagAS is the private AS used in override communities.
	CommunityTagAS uint16 = 64999
	// CommunityOverride marks every controller-injected route.
	CommunityOverride uint16 = 1
	// CommunityPerf marks performance-driven overrides.
	CommunityPerf uint16 = 2
	// CommunitySplit marks more-specific split halves.
	CommunitySplit uint16 = 3
	// CommunityMultipath marks members of a weighted multipath set;
	// each member also carries a slot and weight community (see
	// rib.MultipathSlotCommunity / rib.MultipathWeightCommunity).
	CommunityMultipath uint16 = 4
)

// overrideCommunities returns the communities a single-path override is
// announced with (multipath members build theirs in announceUnits).
func overrideCommunities(o Override) []uint32 {
	cs := []uint32{rib.Community(CommunityTagAS, CommunityOverride)}
	if strings.Contains(o.Reason, "alt path") {
		cs = append(cs, rib.Community(CommunityTagAS, CommunityPerf))
	}
	if o.SplitOf.IsValid() {
		cs = append(cs, rib.Community(CommunityTagAS, CommunitySplit))
	}
	return cs
}

// overrideSig is the identity of an override on the wire: a router
// holding a delivery with the same signature needs no updates. Single
// detours key on the next hop (matching the pre-multipath behavior);
// weighted sets key on the ordered members and their weights. It is a
// comparable value as wide as the wire encoding's slots, so the
// per-cycle diff formats and allocates nothing; slots are packed bytes
// (17 each) because every router's delivery record holds one per prefix.
type overrideSig struct {
	members uint8 // 0 for a single detour, which fills slot 0 alone
	slots   [rib.MaxMultipathSlots]struct {
		nextHop   [16]byte // Addr.As16: BGP next hops carry no zone
		weightPct uint8
	}
}

func sigOf(o *Override) (sig overrideSig) {
	if len(o.Multipath) == 0 {
		sig.slots[0].nextHop = o.Via.NextHop.As16()
		return sig
	}
	// Members past the last wire slot never reach a router as distinct
	// routes, so they are not part of what it holds.
	members := o.Multipath[:min(len(o.Multipath), len(sig.slots))]
	sig.members = uint8(len(members))
	for i, pw := range members {
		sig.slots[i].nextHop, sig.slots[i].weightPct = pw.Via.NextHop.As16(), uint8(pw.WeightPct)
	}
	return sig
}

// annUnit is one UPDATE-able announcement: a single-path override is
// one unit, a multipath override is one unit per weighted member.
type annUnit struct {
	prefix      netip.Prefix
	nh          netip.Addr
	asPath      []uint32
	communities []uint32
}

// announceUnits expands an override into its wire units. Multipath
// members are announced add-path-style: each member its own UPDATE
// carrying a slot community (so the router can hold all members at
// once) and a weight community (the member's demand share).
func announceUnits(o Override) []annUnit {
	if len(o.Multipath) == 0 {
		return []annUnit{{prefix: o.Prefix, nh: o.Via.NextHop, asPath: o.Via.ASPath,
			communities: overrideCommunities(o)}}
	}
	units := make([]annUnit, len(o.Multipath))
	for i, pw := range o.Multipath {
		units[i] = annUnit{
			prefix: o.Prefix, nh: pw.Via.NextHop, asPath: pw.Via.ASPath,
			communities: []uint32{
				rib.Community(CommunityTagAS, CommunityOverride),
				rib.Community(CommunityTagAS, CommunityMultipath),
				rib.MultipathSlotCommunity(i),
				rib.MultipathWeightCommunity(pw.WeightPct),
			},
		}
	}
	return units
}

// SyncResult reports what one Sync did, in prefixes (not messages, not
// per-router sessions).
type SyncResult struct {
	// Announced / Withdrawn count prefixes entering / leaving the
	// installed set.
	Announced, Withdrawn int
	// Partial counts prefix actions that reached at least one but not
	// every established router this cycle (delivery retries next cycle
	// and on session re-establishment).
	Partial int
}

// Sync reconciles the routers with the desired override set: announce
// new or changed overrides, withdraw ones no longer desired. Each
// established router is diffed against its own delivery record, so a
// router that flapped (and therefore lost everything) is re-fed while
// untouched routers see no churn. Messages are batched: withdrawals
// share UPDATEs per address family, and announcements share UPDATEs per
// (next hop, AS path) group. Routers whose session is down are skipped —
// the drop already withdrew their state — and are refreshed by the
// session handler when they return.
func (inj *Injector) Sync(desired []Override) (SyncResult, error) {
	var res SyncResult
	want := make(map[netip.Prefix]Override, len(desired))
	for _, o := range desired {
		want[o.Prefix] = o
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()

	up := make([]*injRouter, 0, len(inj.routers))
	for _, r := range inj.routers {
		if r.peer.State() == bgp.StateEstablished {
			up = append(up, r)
		}
	}
	sort.Slice(up, func(a, b int) bool { return up[a].addr.Less(up[b].addr) })

	// Per-prefix delivery outcome across established routers.
	okCount := make(map[netip.Prefix]int)
	tries := make(map[netip.Prefix]int)

	// Withdraw stale state first so capacity frees before new load
	// shifts in. Each router withdraws exactly the delivered prefixes it
	// should no longer carry (no longer wanted, or next hop changed).
	for _, r := range up {
		var wd []netip.Prefix
		for prefix, sig := range r.delivered {
			if cur, ok := want[prefix]; ok && sigOf(&cur) == sig {
				continue
			}
			wd = append(wd, prefix)
			tries[prefix]++
		}
		for _, u := range withdrawUpdates(wd) {
			prefixes := withdrawnPrefixes(u)
			if err := r.peer.SendUpdate(u); err != nil {
				continue // session raced down; its state clears via HandleDown
			}
			for _, p := range prefixes {
				delete(r.delivered, p)
				okCount[p]++
			}
		}
	}

	// Announce what each router is missing.
	for _, r := range up {
		var adds []Override
		for prefix, o := range want {
			if sig, ok := r.delivered[prefix]; ok && sig == sigOf(&o) {
				continue
			}
			adds = append(adds, o)
			tries[prefix]++
		}
		for p, sig := range announceToRouter(r, adds) {
			r.delivered[p] = sig
			okCount[p]++
		}
	}

	// Global bookkeeping: the installed set is what the PoP actually
	// carries somewhere. A prefix leaves when no longer desired (or its
	// announcement changed); it enters once at least one router took it.
	var errNoRouter error
	for prefix, old := range inj.installed {
		if cur, ok := want[prefix]; ok && sigOf(&cur) == sigOf(&old) {
			continue
		}
		delete(inj.installed, prefix)
		res.Withdrawn++
	}
	for prefix, o := range want {
		if _, ok := inj.installed[prefix]; ok {
			continue
		}
		if okCount[prefix] > 0 {
			inj.installed[prefix] = o
			res.Announced++
		} else {
			errNoRouter = fmt.Errorf("core: announce %s reached no router", prefix)
		}
	}
	for prefix, n := range okCount {
		if t := tries[prefix]; n > 0 && n < t {
			res.Partial++
		}
	}
	if res.Partial > 0 {
		inj.metrics.Counter("edgefabric_injection_partial_total").Add(uint64(res.Partial))
	}
	if res.Announced > 0 || res.Withdrawn > 0 {
		inj.view = nil
	}
	if errNoRouter == nil && len(up) == 0 && len(want) > 0 {
		errNoRouter = fmt.Errorf("core: no injection session established")
	}
	return res, errNoRouter
}

// reannounce re-feeds one router the installed override set (called when
// its session re-establishes) and withdraws any strays it still carries.
func (inj *Injector) reannounce(addr netip.Addr) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	r, ok := inj.routers[addr]
	if !ok || r.peer.State() != bgp.StateEstablished {
		return
	}
	var stray []netip.Prefix
	for prefix, sig := range r.delivered {
		if cur, ok := inj.installed[prefix]; !ok || sigOf(&cur) != sig {
			stray = append(stray, prefix)
		}
	}
	for _, u := range withdrawUpdates(stray) {
		prefixes := withdrawnPrefixes(u)
		if err := r.peer.SendUpdate(u); err != nil {
			return
		}
		for _, p := range prefixes {
			delete(r.delivered, p)
		}
	}
	var adds []Override
	for prefix, o := range inj.installed {
		if sig, ok := r.delivered[prefix]; ok && sig == sigOf(&o) {
			continue
		}
		adds = append(adds, o)
	}
	if len(adds) == 0 {
		return
	}
	sent := 0
	for p, sig := range announceToRouter(r, adds) {
		r.delivered[p] = sig
		sent++
	}
	if sent > 0 {
		inj.metrics.Counter("edgefabric_injection_reannounce_total").Add(uint64(sent))
		if inj.cfg.Logf != nil {
			inj.cfg.Logf("injector: re-announced %d overrides to %s", sent, addr)
		}
	}
}

// withdrawnPrefixes lists the prefixes a withdraw UPDATE removes.
func withdrawnPrefixes(u *bgp.Update) []netip.Prefix {
	if u.Attrs.MPUnreach != nil {
		return u.Attrs.MPUnreach.Withdrawn
	}
	return u.Withdrawn
}

// announcedPrefixes lists the prefixes an announce UPDATE carries and
// their shared next hop.
func announcedPrefixes(u *bgp.Update) ([]netip.Prefix, netip.Addr) {
	if u.Attrs.MPReach != nil {
		return u.Attrs.MPReach.NLRI, u.Attrs.MPReach.NextHop
	}
	return u.NLRI, u.Attrs.NextHop
}

// announceToRouter sends the overrides' units to one router and
// returns the signature of each fully-delivered prefix. A multipath
// prefix whose members were only partially taken (session raced down
// mid-set) is not reported: it retries next cycle, and the session
// drop that caused the partial already withdrew the router's state.
func announceToRouter(r *injRouter, adds []Override) map[netip.Prefix]overrideSig {
	if len(adds) == 0 {
		return nil
	}
	var units []annUnit
	for _, o := range adds {
		units = append(units, announceUnits(o)...)
	}
	got := make(map[netip.Prefix]int)
	for _, u := range announceUpdates(units) {
		prefixes, _ := announcedPrefixes(u)
		if err := r.peer.SendUpdate(u); err != nil {
			continue
		}
		// Units of one prefix never share an UPDATE (each multipath
		// slot carries distinct communities), so counting per-UPDATE
		// prefix occurrences counts delivered units.
		for _, p := range prefixes {
			got[p]++
		}
	}
	done := make(map[netip.Prefix]overrideSig, len(got))
	for i := range adds {
		if o := &adds[i]; got[o.Prefix] == max(1, len(o.Multipath)) {
			done[o.Prefix] = sigOf(o)
		}
	}
	return done
}

// announceUpdates renders announcement units as iBGP UPDATEs — the
// member route's next hop with LOCAL_PREF above every organic tier —
// batching prefixes that share a next hop, AS path, and community set.
func announceUpdates(units []annUnit) []*bgp.Update {
	type groupKey string
	keyOf := func(u annUnit) groupKey {
		return groupKey(fmt.Sprint(u.nh, "|", u.asPath, "|",
			u.prefix.Addr().Is4(), "|", u.communities))
	}
	groups := make(map[groupKey][]annUnit)
	var order []groupKey
	for _, u := range units {
		k := keyOf(u)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], u)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	var updates []*bgp.Update
	for _, k := range order {
		g := groups[k]
		sort.Slice(g, func(a, b int) bool { return rib.ComparePrefixes(g[a].prefix, g[b].prefix) < 0 })
		for i := 0; i < len(g); i += batchSize {
			end := min(i+batchSize, len(g))
			chunk := g[i:end]
			attrs := bgp.PathAttrs{
				HasOrigin:    true,
				ASPath:       bgp.Sequence(chunk[0].asPath...),
				LocalPref:    rib.PrefController,
				HasLocalPref: true,
				Communities:  chunk[0].communities,
			}
			u := &bgp.Update{Attrs: attrs}
			prefixes := make([]netip.Prefix, len(chunk))
			for j, au := range chunk {
				prefixes[j] = au.prefix
			}
			if chunk[0].prefix.Addr().Is4() {
				u.Attrs.NextHop = chunk[0].nh
				u.NLRI = prefixes
			} else {
				u.Attrs.MPReach = &bgp.MPReach{
					AFI:     bgp.AFIIPv6,
					SAFI:    bgp.SAFIUnicast,
					NextHop: chunk[0].nh,
					NLRI:    prefixes,
				}
			}
			updates = append(updates, u)
		}
	}
	return updates
}

// withdrawUpdates renders withdrawals, batched per address family.
func withdrawUpdates(prefixes []netip.Prefix) []*bgp.Update {
	var v4, v6 []netip.Prefix
	for _, p := range prefixes {
		if p.Addr().Is4() {
			v4 = append(v4, p)
		} else {
			v6 = append(v6, p)
		}
	}
	sortPrefixes(v4)
	sortPrefixes(v6)
	var updates []*bgp.Update
	for i := 0; i < len(v4); i += batchSize {
		end := min(i+batchSize, len(v4))
		updates = append(updates, &bgp.Update{Withdrawn: v4[i:end]})
	}
	for i := 0; i < len(v6); i += batchSize {
		end := min(i+batchSize, len(v6))
		updates = append(updates, &bgp.Update{Attrs: bgp.PathAttrs{
			MPUnreach: &bgp.MPUnreach{
				AFI:       bgp.AFIIPv6,
				SAFI:      bgp.SAFIUnicast,
				Withdrawn: v6[i:end],
			},
		}})
	}
	return updates
}

func sortPrefixes(ps []netip.Prefix) { rib.SortPrefixes(ps) }

// Close drops all injection sessions; the routers withdraw every
// injected route (fail-safe to BGP policy).
func (inj *Injector) Close() {
	inj.speaker.Close()
}
