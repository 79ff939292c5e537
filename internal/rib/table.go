package rib

import (
	"context"
	"net/netip"
	"slices"
	"sync"
)

// BestChange describes a change to the best route for a prefix, as
// delivered to a Table's OnBestChange callback. Old and New may each be
// nil (route appeared / disappeared); they are never both nil.
type BestChange struct {
	Prefix netip.Prefix
	Old    *Route
	New    *Route
}

// Table is a concurrency-safe routing table holding every known route
// per prefix (the union of Adj-RIB-Ins), the best route under the BGP
// decision process (the Loc-RIB view), and a longest-prefix-match index
// for forwarding lookups.
//
// Per-prefix route lists are kept preference-sorted at mutation time and
// rebuilt copy-on-write, so reads never sort and point-in-time snapshots
// (SnapshotRoutesInto) can share the internal slices without copying.
type Table struct {
	// OnBestChange, if non-nil, is invoked synchronously (with the
	// table lock held) whenever the best route for a prefix changes.
	// Callbacks must not call back into the Table. Set before use.
	OnBestChange func(BestChange)

	mu      sync.RWMutex
	policy  *Policy
	entries map[netip.Prefix]*tableEntry
	// lens tracks which prefix lengths are populated, per family, so
	// LPM probes only lengths that can match.
	lens4   [33]int  // count of IPv4 prefixes per bit length
	lens6   [129]int // count of IPv6 prefixes per bit length
	version uint64
	nroutes int
	dups    uint64 // announcements suppressed as identical (see Add)
	// waitCh, when non-nil, is closed on the next mutation to wake
	// WaitChange / WaitRouteCount blockers.
	waitCh chan struct{}

	// attrs interns AS-path and community slices shared across the
	// table; arena chunk-allocates the stored Route values. Both are
	// touched only under the write lock.
	attrs u32Interner
	arena routeArena
	// journal is a ring of the masked prefixes touched by the last
	// journalCap mutations: the entry for table version v lives at
	// (v-1) % journalCap, which works because every version increment
	// records exactly one prefix. ChangedSince reads it to hand the
	// controller a dirty set instead of a full-table scan.
	journal []netip.Prefix
}

// journalCap bounds the mutation journal. A consumer that falls more
// than journalCap mutations behind gets ok=false from ChangedSince and
// must resynchronize with a full scan — the same safety valve a BMP
// client uses when its peer's queue overflows.
const journalCap = 1 << 16

// recordChange logs the masked prefix of the mutation that produced the
// table's current version. Caller holds the write lock and has already
// incremented t.version.
func (t *Table) recordChange(p netip.Prefix) {
	idx := int((t.version - 1) % journalCap)
	if len(t.journal) < journalCap {
		// Versions start at 1 and each one records once, so idx always
		// equals len(t.journal) while the ring is still filling.
		t.journal = append(t.journal, p)
		return
	}
	t.journal[idx] = p
}

// ChangedSince reports the prefixes whose route set changed after table
// version since (a re-announcement identical to the stored route is not
// a change), and the version the report is current through (pass it
// back as the next call's since). The result may repeat a prefix mutated
// more than once. ok=false means the journal no longer reaches back to
// since — more than journalCap mutations elapsed, or since is from
// another table's timeline — and the caller must fall back to a full scan.
// Results are appended to dst (reused when it has capacity).
func (t *Table) ChangedSince(since uint64, dst []netip.Prefix) (changed []netip.Prefix, now uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	now = t.version
	if since > now {
		return dst[:0], now, false
	}
	if now-since > uint64(len(t.journal)) {
		return dst[:0], now, false
	}
	changed = dst[:0]
	for v := since + 1; v <= now; v++ {
		changed = append(changed, t.journal[int((v-1)%journalCap)])
	}
	return changed, now, true
}

// tableEntry holds one prefix's routes, preference-sorted best-first.
// The slice is copy-on-write: mutations install a freshly built slice,
// never write through the old one, so snapshot holders stay consistent.
type tableEntry struct {
	routes []*Route
	gen    uint64 // table version at the entry's last mutation
	ninj   int    // ClassController routes in routes, tracked at mutation
}

// NewTable returns an empty table using the given decision-process
// configuration. A nil policy uses default MED semantics.
func NewTable(policy *Policy) *Table {
	return &Table{policy: policy, entries: make(map[netip.Prefix]*tableEntry)}
}

// Policy returns the table's decision-process configuration.
func (t *Table) Policy() *Policy { return t.policy }

// Version reports a counter incremented every time the route set
// changes — a route inserted, replaced by a different one, or removed;
// not by an announcement identical to the stored route (see Add).
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Generation reports the table version at which the given prefix's
// routes last changed, or 0 if the prefix has no routes. A prefix's
// routes are guaranteed unchanged between two reads that observe the
// same generation.
func (t *Table) Generation(prefix netip.Prefix) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.entries[prefix.Masked()]; ok {
		return e.gen
	}
	return 0
}

// Len reports the number of prefixes with at least one route.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// RouteCount reports the total number of routes across all prefixes.
func (t *Table) RouteCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nroutes
}

// notifyLocked wakes any WaitChange / WaitRouteCount blockers; the
// caller holds the write lock.
func (t *Table) notifyLocked() {
	if t.waitCh != nil {
		close(t.waitCh)
		t.waitCh = nil
	}
}

// WaitChange blocks until the route set changes (the table's version
// exceeds sinceVersion; a re-sync of routes it already holds wakes
// nobody) or ctx is done. It returns nil on change, else ctx.Err().
func (t *Table) WaitChange(ctx context.Context, sinceVersion uint64) error {
	for {
		t.mu.Lock()
		if t.version > sinceVersion {
			t.mu.Unlock()
			return nil
		}
		if t.waitCh == nil {
			t.waitCh = make(chan struct{})
		}
		ch := t.waitCh
		t.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// WaitRouteCount blocks until the table holds at least n routes or ctx
// is done, waking on mutations rather than polling.
func (t *Table) WaitRouteCount(ctx context.Context, n int) error {
	for {
		t.mu.Lock()
		if t.nroutes >= n {
			t.mu.Unlock()
			return nil
		}
		if t.waitCh == nil {
			t.waitCh = make(chan struct{})
		}
		ch := t.waitCh
		t.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Add inserts or replaces a route. Route identity is (prefix, peer
// address): a route from the same neighbor for the same prefix replaces
// the previous one, per BGP implicit-withdraw semantics. An announcement
// equal to the stored route in every Route field changes nothing — the
// stored *Route, the prefix's generation, Version, the journal and
// waiters are left alone; it is only counted (Duplicates) — so a BMP
// re-sync of routes the table holds is invisible to readers. Add does
// not apply import policy; see Accept. It reports whether the best route
// for the prefix changed. The table takes ownership of r (including its
// attribute slices); the caller must not mutate it afterward. The stored
// copy lives in the table's route arena with its AS path and communities
// interned, so r itself is garbage as soon as Add returns.
func (t *Table) Add(r *Route) bool {
	if r == nil || !r.Prefix.IsValid() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	added, bestChanged := t.addLocked(r)
	if added {
		t.notifyLocked()
	}
	return bestChanged
}

// Duplicates reports how many announcements were suppressed because
// they equalled the route already stored for their (prefix, peer).
func (t *Table) Duplicates() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dups
}

// duplicateOf reports whether the stored route s carries exactly the
// announcement in, whose masked prefix is p. Every field of Route takes
// part (TestDuplicateComparesEveryField walks them by reflection).
func duplicateOf(s, in *Route, p netip.Prefix) bool {
	return s.Prefix == p && s.NextHop == in.NextHop && s.PathHops == in.PathHops &&
		s.Origin == in.Origin && s.MED == in.MED && s.HasMED == in.HasMED &&
		s.LocalPref == in.LocalPref && s.PeerAddr == in.PeerAddr && s.PeerAS == in.PeerAS &&
		s.PeerClass == in.PeerClass && s.FromIBGP == in.FromIBGP && s.EgressIF == in.EgressIF &&
		slices.Equal(s.ASPath, in.ASPath) && slices.Equal(s.Communities, in.Communities)
}

// addLocked is Add's body under an already-held write lock, without the
// waiter notification — ApplyBatch amortizes both across many routes.
// It reports (route stored, best route changed); a duplicate of the
// stored route is (false, false) and touches nothing.
func (t *Table) addLocked(r *Route) (added, bestChanged bool) {
	p := r.Prefix.Masked()
	e, ok := t.entries[p]
	if ok {
		for _, existing := range e.routes {
			if existing.PeerAddr == r.PeerAddr {
				if duplicateOf(existing, r, p) {
					t.dups++
					return false, false
				}
				break
			}
		}
	}
	r = t.arena.put(r)
	r.Prefix = p
	r.ASPath = t.attrs.intern(r.ASPath)
	r.Communities = t.attrs.intern(r.Communities)
	t.version++
	t.recordChange(p)
	if !ok {
		e = &tableEntry{}
		t.entries[p] = e
		t.lenCount(p, +1)
	}
	oldBest := e.bestRoute()
	oldLen := len(e.routes)
	// Rebuild copy-on-write: drop any previous route from the same
	// neighbor (implicit withdraw) and splice r in at its preference
	// rank, keeping the slice sorted best-first.
	routes := make([]*Route, 0, oldLen+1)
	ninj := 0
	if r.PeerClass == ClassController {
		ninj++
	}
	inserted := false
	for _, existing := range e.routes {
		if existing.PeerAddr == r.PeerAddr {
			continue
		}
		if existing.PeerClass == ClassController {
			ninj++
		}
		if !inserted && Better(r, existing, t.policy) {
			routes = append(routes, r)
			inserted = true
		}
		routes = append(routes, existing)
	}
	if !inserted {
		routes = append(routes, r)
	}
	e.routes = routes
	e.gen = t.version
	e.ninj = ninj
	t.nroutes += len(routes) - oldLen
	return true, t.finishBest(p, oldBest, e)
}

// Accept applies the table's import policy to r and, if accepted, adds
// it. It reports (accepted, bestChanged).
func (t *Table) Accept(r *Route) (accepted, bestChanged bool) {
	if t.policy != nil && !t.policy.Import(r) {
		return false, false
	}
	return true, t.Add(r)
}

// Remove withdraws the route for prefix learned from peer. It reports
// whether the best route changed.
func (t *Table) Remove(prefix netip.Prefix, peer netip.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed, bestChanged := t.removeLocked(prefix, peer)
	if removed {
		t.notifyLocked()
	}
	return bestChanged
}

// removeLocked is Remove's body under an already-held write lock,
// without the waiter notification. It reports (route removed, best
// route changed).
func (t *Table) removeLocked(prefix netip.Prefix, peer netip.Addr) (removed, bestChanged bool) {
	p := prefix.Masked()
	e, ok := t.entries[p]
	if !ok {
		return false, false
	}
	idx := -1
	for i, r := range e.routes {
		if r.PeerAddr == peer {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, false
	}
	t.version++
	t.recordChange(p)
	t.nroutes--
	oldBest := e.bestRoute()
	if len(e.routes) == 1 {
		delete(t.entries, p)
		t.lenCount(p, -1)
		if oldBest != nil && t.OnBestChange != nil {
			t.OnBestChange(BestChange{Prefix: p, Old: oldBest})
		}
		return true, oldBest != nil
	}
	// Copy-on-write removal preserves sorted order.
	if e.routes[idx].PeerClass == ClassController {
		e.ninj--
	}
	routes := make([]*Route, 0, len(e.routes)-1)
	routes = append(routes, e.routes[:idx]...)
	routes = append(routes, e.routes[idx+1:]...)
	e.routes = routes
	e.gen = t.version
	return true, t.finishBest(p, oldBest, e)
}

// BatchOp is one mutation in an ApplyBatch call: an add/replace when
// Route is non-nil, else a withdraw of (Prefix, Peer). Import policy is
// NOT applied — callers pre-filter with Policy().Import, as the BMP
// route store does.
type BatchOp struct {
	Route  *Route
	Prefix netip.Prefix
	Peer   netip.Addr
}

// BatchResult summarizes an ApplyBatch call.
type BatchResult struct {
	// Added counts routes inserted or replaced; an announcement equal
	// to the stored route is neither (see Table.Duplicates).
	Added int
	// Removed counts withdraw ops that matched a stored route.
	Removed int
	// BestChanged counts ops that changed a prefix's best route.
	BestChanged int
	// WithdrawBestChanged is the subset of BestChanged from withdraw
	// ops (what Remove would have reported op by op).
	WithdrawBestChanged int
}

// ApplyBatch applies a sequence of route mutations under one write-lock
// acquisition, notifying waiters once at the end. This is the BMP dump
// absorption path: replaying a full table one Add at a time makes every
// route pay lock handoff and waiter wakeup, and a ~1M-route dump can
// starve concurrent snapshot readers; batching bounds that to one
// acquisition per batch. Each op that changes the route set takes its
// own table version and journal slot, so ChangedSince consumers see the
// same per-prefix dirty stream (or overflow-to-full-scan signal) as with
// single mutations; a batch of only duplicates wakes no waiter.
func (t *Table) ApplyBatch(ops []BatchOp) BatchResult {
	var res BatchResult
	if len(ops) == 0 {
		return res
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	mutated := false
	for i := range ops {
		op := &ops[i]
		if op.Route != nil {
			if !op.Route.Prefix.IsValid() {
				continue
			}
			added, bestChanged := t.addLocked(op.Route)
			if added {
				res.Added++
				mutated = true
			}
			if bestChanged {
				res.BestChanged++
			}
			continue
		}
		removed, bestChanged := t.removeLocked(op.Prefix, op.Peer)
		if removed {
			res.Removed++
			mutated = true
		}
		if bestChanged {
			res.BestChanged++
			res.WithdrawBestChanged++
		}
	}
	if mutated {
		t.notifyLocked()
	}
	return res
}

// RemovePeer withdraws every route learned from the given neighbor, as
// when its session goes down. It returns the number of prefixes whose
// best route changed.
func (t *Table) RemovePeer(peer netip.Addr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := 0
	mutated := false
	for p, e := range t.entries {
		removed := 0
		for _, r := range e.routes {
			if r.PeerAddr == peer {
				removed++
			}
		}
		if removed == 0 {
			continue
		}
		t.version++
		t.recordChange(p)
		t.nroutes -= removed
		mutated = true
		oldBest := e.bestRoute()
		if removed == len(e.routes) {
			delete(t.entries, p)
			t.lenCount(p, -1)
			if oldBest != nil {
				changed++
				if t.OnBestChange != nil {
					t.OnBestChange(BestChange{Prefix: p, Old: oldBest})
				}
			}
			continue
		}
		kept := make([]*Route, 0, len(e.routes)-removed)
		ninj := 0
		for _, r := range e.routes {
			if r.PeerAddr != peer {
				if r.PeerClass == ClassController {
					ninj++
				}
				kept = append(kept, r)
			}
		}
		e.routes = kept
		e.gen = t.version
		e.ninj = ninj
		if t.finishBest(p, oldBest, e) {
			changed++
		}
	}
	if mutated {
		t.notifyLocked()
	}
	return changed
}

func (e *tableEntry) bestRoute() *Route {
	if len(e.routes) == 0 {
		return nil
	}
	return e.routes[0]
}

// finishBest fires the change callback if needed; the caller holds the
// write lock.
func (t *Table) finishBest(p netip.Prefix, oldBest *Route, e *tableEntry) bool {
	newBest := e.bestRoute()
	if oldBest == newBest {
		return false
	}
	if t.OnBestChange != nil {
		t.OnBestChange(BestChange{Prefix: p, Old: oldBest, New: newBest})
	}
	return true
}

func (t *Table) lenCount(p netip.Prefix, d int) {
	if p.Addr().Is4() {
		t.lens4[p.Bits()] += d
	} else {
		t.lens6[p.Bits()] += d
	}
}

// Best returns the best route for exactly the given prefix, or nil.
func (t *Table) Best(prefix netip.Prefix) *Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[prefix.Masked()]
	if !ok {
		return nil
	}
	return e.bestRoute()
}

// Routes returns a copy of the route list for exactly the given prefix,
// sorted best-first. The stored order is maintained at mutation time,
// so this is a plain copy with no per-read sort.
func (t *Table) Routes(prefix netip.Prefix) []*Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[prefix.Masked()]
	if !ok {
		return nil
	}
	return append([]*Route(nil), e.routes...)
}

// RouteView is a point-in-time view of one prefix's routes as returned
// by SnapshotRoutesInto: the preference-sorted route slice (best first) and
// the generation at which the entry last changed. The slice is shared
// with the table's copy-on-write storage — it is immutable, and callers
// must not modify it or the routes it points to.
type RouteView struct {
	Routes []*Route
	Gen    uint64
	// Injected counts ClassController routes in Routes, maintained at
	// mutation time so consumers can skip scanning for them.
	Injected int
}

// SnapshotRoutesInto captures views for all given prefixes under a
// single read-lock acquisition, amortizing lock traffic across a whole
// controller cycle. dst[i] is the view for prefixes[i], the zero
// RouteView (nil Routes, Gen 0) when absent; dst is reused when it has
// capacity. Because entries are copy-on-write, the returned views stay
// internally consistent even as the table keeps mutating.
func (t *Table) SnapshotRoutesInto(prefixes []netip.Prefix, dst []RouteView) []RouteView {
	if cap(dst) < len(prefixes) {
		dst = make([]RouteView, len(prefixes))
	} else {
		dst = dst[:len(prefixes)]
	}
	t.mu.RLock()
	for i, p := range prefixes {
		if e, ok := t.entries[p.Masked()]; ok {
			dst[i] = RouteView{Routes: e.routes, Gen: e.gen, Injected: e.ninj}
		} else {
			dst[i] = RouteView{}
		}
	}
	t.mu.RUnlock()
	return dst
}

// Lookup performs a longest-prefix-match forwarding lookup and returns
// the best route for the most specific covering prefix, or nil.
func (t *Table) Lookup(addr netip.Addr) *Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.lookupEntry(addr)
	if e == nil {
		return nil
	}
	return e.bestRoute()
}

// LookupPrefix returns the most specific prefix in the table covering
// addr, or the invalid prefix if none.
func (t *Table) LookupPrefix(addr netip.Addr) netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	maxBits, lens := t.family(addr)
	for bits := maxBits; bits >= 0; bits-- {
		if lens[bits] == 0 {
			continue
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if _, ok := t.entries[p]; ok {
			return p
		}
	}
	return netip.Prefix{}
}

func (t *Table) family(addr netip.Addr) (int, []int) {
	if addr.Is4() {
		return 32, t.lens4[:]
	}
	return 128, t.lens6[:]
}

func (t *Table) lookupEntry(addr netip.Addr) *tableEntry {
	maxBits, lens := t.family(addr)
	for bits := maxBits; bits >= 0; bits-- {
		if lens[bits] == 0 {
			continue
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if e, ok := t.entries[p]; ok {
			return e
		}
	}
	return nil
}

// EachBest calls fn with every prefix and its best route. Iteration
// order is unspecified. fn must not call back into the Table.
func (t *Table) EachBest(fn func(netip.Prefix, *Route)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for p, e := range t.entries {
		if b := e.bestRoute(); b != nil {
			fn(p, b)
		}
	}
}

// EachRoutes calls fn with every prefix and its full route slice, sorted
// best-first. The slice must not be mutated or retained. fn must not
// call back into the Table.
func (t *Table) EachRoutes(fn func(netip.Prefix, []*Route)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for p, e := range t.entries {
		fn(p, e.routes)
	}
}

// Prefixes returns all prefixes with at least one route, in unspecified
// order.
func (t *Table) Prefixes() []netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]netip.Prefix, 0, len(t.entries))
	for p := range t.entries {
		out = append(out, p)
	}
	return out
}
