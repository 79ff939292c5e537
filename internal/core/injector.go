package core

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/netip"
	"slices"
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
	installed OverrideSet
	routers   map[netip.Addr]*injRouter
}

// injScratch is the working memory one Sync or re-feed reuses across
// its routers and UPDATEs. It is dropped with the call, as is Sync's
// per-prefix slice: kept between cycles, they held about 120 KB of live
// heap on pop_multipath to save a few dozen allocations a cycle.
// UPDATEs are marshalled synchronously, and what the call keeps
// (installed, delivered) is copied out by value.
type injScratch struct {
	prefixes  []netip.Prefix // one router's withdrawals
	adds      []*Override    // one router's announcements
	units     []annUnit
	got       []int32 // sent units per entry of adds
	nlri      []netip.Prefix
	upd       bgp.Update
	seg       [1]bgp.PathSegment
	mpReach   bgp.MPReach
	mpUnreach bgp.MPUnreach
}

// prefixSync is one prefix's state within a Sync.
type prefixSync struct {
	prefix      netip.Prefix
	want        *Override // into Sync's desired slice; nil when only withdrawn
	tries, took int32     // routers it was sent to, routers that took it
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
		speaker: sp,
		cfg:     cfg,
		metrics: cfg.Metrics,
		routers: make(map[netip.Addr]*injRouter),
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

// Installed returns the currently-announced override set. The set is
// shared, not copied: a Sync that changes it installs a new set.
func (inj *Injector) Installed() OverrideSet {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.installed
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

// overrideSig is the identity of an override on the wire: a router
// holding a delivery with the same signature needs no updates. Single
// detours key on the next hop (matching the pre-multipath behavior);
// weighted sets key on the ordered members and their weights. It is a
// comparable value, so the per-cycle diff formats and allocates
// nothing, and it is small: every router's delivery record holds one
// per prefix, a Go map stores a value over 128 bytes out of line (an
// allocation per insert), and an inline one costs its width in every
// empty slot too. Slots are packed bytes (17 each); members past
// sigInlineSlots, MaxPaths' default, spill into rest in the same
// packing, which allocates.
type overrideSig struct {
	members uint8 // 0 for a single detour, which fills slot 0 alone
	slots   [sigInlineSlots]sigSlot
	rest    string
}

type sigSlot struct {
	nextHop   [16]byte // Addr.As16: BGP next hops carry no zone
	weightPct uint8
}

const sigInlineSlots = 3

func sigOf(o *Override) (sig overrideSig) {
	if len(o.Multipath) == 0 {
		sig.slots[0].nextHop = o.Via.NextHop.As16()
		return sig
	}
	// Members past the last wire slot never reach a router as distinct
	// routes, so they are not part of what it holds.
	members := o.Multipath[:min(len(o.Multipath), rib.MaxMultipathSlots)]
	sig.members = uint8(len(members))
	var rest [(rib.MaxMultipathSlots - sigInlineSlots) * 17]byte
	n := 0
	for i, pw := range members {
		nh := pw.Via.NextHop.As16()
		if i < sigInlineSlots {
			sig.slots[i] = sigSlot{nextHop: nh, weightPct: uint8(pw.WeightPct)}
			continue
		}
		n += copy(rest[n:], nh[:])
		rest[n] = uint8(pw.WeightPct)
		n++
	}
	if n > 0 {
		sig.rest = string(rest[:n])
	}
	return sig
}

// annUnit is one UPDATE-able announcement: a single-path override is
// one unit, a multipath override is one unit per weighted member.
type annUnit struct {
	o      *Override  // its Prefix is the unit's NLRI
	via    *rib.Route // the next hop and AS path announced
	comms  [4]uint32  // the first ncomms are the unit's communities
	ncomms uint8
	sent   bool  // an UPDATE carrying the unit was taken
	add    int32 // the override's index in the batch being announced
}

func (u *annUnit) communities() []uint32 { return u.comms[:u.ncomms] }

func (u *annUnit) tag(c uint16) {
	u.comms[u.ncomms] = rib.Community(CommunityTagAS, c)
	u.ncomms++
}

// appendUnits appends an override's wire units to dst. A single-path
// override carries the marker community, plus CommunityPerf when its
// reason starts "alt path" and CommunitySplit for a split half.
// Multipath members are announced add-path-style: each member its own
// UPDATE carrying a slot community (so the router can hold all members
// at once) and a weight community (the member's demand share).
func appendUnits(dst []annUnit, o *Override, add int) []annUnit {
	if len(o.Multipath) == 0 {
		u := annUnit{o: o, via: o.Via, add: int32(add)}
		u.tag(CommunityOverride)
		if strings.Contains(o.Reason, "alt path") {
			u.tag(CommunityPerf)
		}
		if o.SplitOf.IsValid() {
			u.tag(CommunitySplit)
		}
		return append(dst, u)
	}
	for i, pw := range o.Multipath {
		u := annUnit{o: o, via: pw.Via, add: int32(add)}
		u.tag(CommunityOverride)
		u.tag(CommunityMultipath)
		u.comms[2], u.comms[3], u.ncomms = rib.MultipathSlotCommunity(i), rib.MultipathWeightCommunity(pw.WeightPct), 4
		dst = append(dst, u)
	}
	return dst
}

// compareGroups orders units by what one UPDATE shares: address family
// (IPv4 first), next hop, AS path, communities.
func compareGroups(a, b *annUnit) int {
	if c := cmp.Compare(a.o.Prefix.Addr().BitLen(), b.o.Prefix.Addr().BitLen()); c != 0 {
		return c
	}
	if c := a.via.NextHop.Compare(b.via.NextHop); c != 0 {
		return c
	}
	if c := slices.Compare(a.via.ASPath, b.via.ASPath); c != 0 {
		return c
	}
	return slices.Compare(a.communities(), b.communities())
}

// compareUnits is the batcher's total order: group, then prefix. Units
// of one prefix never tie: multipath members differ in their slot
// community.
func compareUnits(a, b annUnit) int {
	if c := compareGroups(&a, &b); c != 0 {
		return c
	}
	return rib.ComparePrefixes(a.o.Prefix, b.o.Prefix)
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
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var s injScratch
	// track has one entry per desired prefix, sorted (a prefix listed
	// twice keeps its last override), then one per prefix only withdrawn,
	// indexed by gone. entry's pointer is valid until its next call.
	track := make([]prefixSync, len(desired))
	for i := range desired {
		track[i] = prefixSync{prefix: desired[i].Prefix, want: &desired[i]}
	}
	track = lastPerPrefix(track, func(e prefixSync) netip.Prefix { return e.prefix })
	nwant, gone := len(track), map[netip.Prefix]int{}
	entry := func(p netip.Prefix) *prefixSync {
		i, ok := slices.BinarySearchFunc(track[:nwant], p, func(e prefixSync, p netip.Prefix) int { return rib.ComparePrefixes(e.prefix, p) })
		if !ok {
			if i, ok = gone[p]; !ok {
				i, gone[p] = len(track), len(track)
				track = append(track, prefixSync{prefix: p})
			}
		}
		return &track[i]
	}

	var up []*injRouter
	for _, r := range inj.routers {
		if r.peer.State() == bgp.StateEstablished {
			up = append(up, r)
		}
	}
	slices.SortFunc(up, func(a, b *injRouter) int { return a.addr.Compare(b.addr) })

	// Withdraw stale state first so capacity frees before new load
	// shifts in. Each router withdraws exactly the delivered prefixes it
	// should no longer carry (no longer wanted, or next hop changed).
	// A failed send means the session raced down; its state clears via
	// HandleDown.
	for _, r := range up {
		wd := s.prefixes[:0]
		for prefix, sig := range r.delivered {
			if e := entry(prefix); e.want == nil || sigOf(e.want) != sig {
				wd = append(wd, prefix)
				e.tries++
			}
		}
		s.prefixes = wd
		for _, p := range s.withdrawUpdates(wd, r.peer.SendUpdate) {
			delete(r.delivered, p)
			entry(p).took++
		}
	}

	// Announce what each router is missing.
	for _, r := range up {
		adds := slices.Grow(s.adds[:0], nwant)
		for i := range track[:nwant] {
			e := &track[i]
			if sig, ok := r.delivered[e.prefix]; !ok || sig != sigOf(e.want) {
				adds = append(adds, e.want)
				e.tries++
			}
		}
		s.adds = adds
		for _, o := range s.announce(r, adds) {
			r.delivered[o.Prefix] = sigOf(o)
			entry(o.Prefix).took++
		}
	}

	// Merge the prefixes only withdrawn into the sorted desired ones.
	slices.SortFunc(track, func(a, b prefixSync) int { return rib.ComparePrefixes(a.prefix, b.prefix) })
	installed, res, err := settle(inj.installed, track)
	inj.installed = installed
	if res.Partial > 0 {
		inj.metrics.Counter("edgefabric_injection_partial_total").Add(uint64(res.Partial))
	}
	if err == nil && len(up) == 0 && len(desired) > 0 {
		err = fmt.Errorf("core: no injection session established")
	}
	return res, err
}

// settle is Sync's global bookkeeping, a pure function of the set
// installed before and the Sync's outcome (track: one entry per prefix,
// sorted; its wants are overwritten). A prefix leaves when no longer
// desired or changed, and enters once a router took it; an unchanged
// one keeps its override. A changed set is built in one allocation.
func settle(old OverrideSet, track []prefixSync) (set OverrideSet, res SyncResult, err error) {
	i, kept := 0, 0
	for j := range track {
		e := &track[j]
		for i < len(old) && rib.ComparePrefixes(old[i].Prefix, e.prefix) < 0 {
			i++
		}
		if e.took > 0 && e.took < e.tries {
			res.Partial++
		}
		switch {
		case e.want == nil:
		case i < len(old) && old[i].Prefix == e.prefix && sigOf(e.want) == sigOf(&old[i]):
			e.want = &old[i]
			kept++
		case e.took > 0:
			res.Announced++
		default:
			err = fmt.Errorf("core: announce %s reached no router", e.prefix)
			e.want = nil
		}
	}
	res.Withdrawn = len(old) - kept
	if res.Announced == 0 && res.Withdrawn == 0 {
		return old, res, err
	}
	set = make(OverrideSet, 0, kept+res.Announced)
	for _, e := range track {
		if e.want != nil {
			set = append(set, *e.want)
		}
	}
	return set, res, err
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
	var s injScratch
	var stray []netip.Prefix
	for prefix, sig := range r.delivered {
		if cur, ok := inj.installed.Lookup(prefix); !ok || sigOf(&cur) != sig {
			stray = append(stray, prefix)
		}
	}
	withdrawn := s.withdrawUpdates(stray, r.peer.SendUpdate)
	for _, p := range withdrawn {
		delete(r.delivered, p)
	}
	if len(withdrawn) < len(stray) {
		return
	}
	var adds []*Override
	for i := range inj.installed {
		o := &inj.installed[i]
		if sig, ok := r.delivered[o.Prefix]; !ok || sig != sigOf(o) {
			adds = append(adds, o)
		}
	}
	done := s.announce(r, adds)
	for _, o := range done {
		r.delivered[o.Prefix] = sigOf(o)
	}
	if sent := len(done); sent > 0 {
		inj.metrics.Counter("edgefabric_injection_reannounce_total").Add(uint64(sent))
		if inj.cfg.Logf != nil {
			inj.cfg.Logf("injector: re-announced %d overrides to %s", sent, addr)
		}
	}
}

// announce sends the overrides' units to one router and returns the
// fully-delivered overrides, compacted to the front of adds. A
// multipath prefix whose members were only partially taken (session
// raced down mid-set) is not returned: it retries next cycle, and the
// session drop that caused the partial already withdrew the router's
// state.
func (s *injScratch) announce(r *injRouter, adds []*Override) []*Override {
	n := 0
	for _, o := range adds {
		n += max(1, len(o.Multipath))
	}
	units := slices.Grow(s.units[:0], n)
	for i, o := range adds {
		units = appendUnits(units, o, i)
	}
	s.units = units
	s.announceUpdates(units, r.peer.SendUpdate)
	got := slices.Grow(s.got[:0], len(adds))[:len(adds)]
	clear(got)
	s.got = got
	for i := range units {
		if units[i].sent {
			got[units[i].add]++
		}
	}
	done := adds[:0]
	for i, o := range adds {
		if int(got[i]) == max(1, len(o.Multipath)) {
			done = append(done, o)
		}
	}
	return done
}

// announceUpdates renders units as iBGP UPDATEs — the member route's
// next hop with LOCAL_PREF above every organic tier — batching up to
// batchSize prefixes that share a family, next hop, AS path and
// community set, and hands each to send. It sorts units in place
// (compareUnits) and marks the units of every UPDATE send took. The
// UPDATE is scratch rebuilt for each send, which must not keep it.
func (s *injScratch) announceUpdates(units []annUnit, send func(*bgp.Update) error) {
	slices.SortFunc(units, compareUnits)
	s.nlri = slices.Grow(s.nlri[:0], min(len(units), batchSize))
	for i := 0; i < len(units); {
		end := i + 1
		for end < len(units) && end-i < batchSize && compareGroups(&units[i], &units[end]) == 0 {
			end++
		}
		chunk := units[i:end]
		s.nlri = s.nlri[:0]
		for j := range chunk {
			s.nlri = append(s.nlri, chunk[j].o.Prefix)
		}
		first := &chunk[0]
		s.upd = bgp.Update{Attrs: bgp.PathAttrs{
			HasOrigin:    true,
			LocalPref:    rib.PrefController,
			HasLocalPref: true,
			Communities:  first.communities(),
		}}
		if len(first.via.ASPath) > 0 {
			s.seg[0] = bgp.PathSegment{Type: bgp.SegSequence, ASNs: first.via.ASPath}
			s.upd.Attrs.ASPath = s.seg[:]
		}
		if first.o.Prefix.Addr().Is4() {
			s.upd.Attrs.NextHop = first.via.NextHop
			s.upd.NLRI = s.nlri
		} else {
			s.mpReach = bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NextHop: first.via.NextHop, NLRI: s.nlri}
			s.upd.Attrs.MPReach = &s.mpReach
		}
		if send(&s.upd) == nil {
			for j := range chunk {
				chunk[j].sent = true
			}
		}
		i = end
	}
}

// withdrawUpdates renders withdrawals batched per address family and
// hands each UPDATE to send, which must not keep it. It sorts prefixes
// in place and returns those whose UPDATE send took, compacted to the
// front of prefixes.
func (s *injScratch) withdrawUpdates(prefixes []netip.Prefix, send func(*bgp.Update) error) []netip.Prefix {
	rib.SortPrefixes(prefixes) // IPv4 sorts before IPv6
	done := prefixes[:0]
	for i := 0; i < len(prefixes); {
		v4 := prefixes[i].Addr().Is4()
		end := i + 1
		for end < len(prefixes) && end-i < batchSize && prefixes[end].Addr().Is4() == v4 {
			end++
		}
		chunk := prefixes[i:end]
		if v4 {
			s.upd = bgp.Update{Withdrawn: chunk}
		} else {
			s.mpUnreach = bgp.MPUnreach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, Withdrawn: chunk}
			s.upd = bgp.Update{Attrs: bgp.PathAttrs{MPUnreach: &s.mpUnreach}}
		}
		if send(&s.upd) == nil {
			done = append(done, chunk...)
		}
		i = end
	}
	return done
}

// Close drops all injection sessions; the routers withdraw every
// injected route (fail-safe to BGP policy).
func (inj *Injector) Close() {
	inj.speaker.Close()
}
