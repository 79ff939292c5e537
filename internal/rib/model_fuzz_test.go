package rib

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
)

// The table model: the naive structure rib.Table optimises — a map of
// prefix to (peer → route value), sorted on every read. FuzzTableModel
// drives both with the same operations and compares every observable
// after each one.
type modelTable map[netip.Prefix]map[netip.Addr]Route

func (m modelTable) add(r Route) (changed bool) {
	r.Prefix = r.Prefix.Masked()
	if old, ok := m[r.Prefix][r.PeerAddr]; ok && reflect.DeepEqual(old, r) {
		return false
	}
	if m[r.Prefix] == nil {
		m[r.Prefix] = make(map[netip.Addr]Route)
	}
	m[r.Prefix][r.PeerAddr] = r
	return true
}

func (m modelTable) remove(p netip.Prefix, peer netip.Addr) (changed bool) {
	p = p.Masked()
	if _, ok := m[p][peer]; !ok {
		return false
	}
	delete(m[p], peer)
	if len(m[p]) == 0 {
		delete(m, p) // absent and empty must compare equal
	}
	return true
}

func (m modelTable) removePeer(peer netip.Addr) (prefixes int) {
	for p := range m {
		if m.remove(p, peer) {
			prefixes++
		}
	}
	return prefixes
}

func (m modelTable) clone() modelTable {
	c := make(modelTable, len(m))
	for p, peers := range m {
		c[p] = make(map[netip.Addr]Route, len(peers))
		for a, r := range peers {
			c[p][a] = r
		}
	}
	return c
}

// sorted is the prefix's routes best-first. The fuzz universe gives
// every peer its own neighbor AS, so MED is never compared across peers
// and Better is a total order.
func (m modelTable) sorted(p netip.Prefix) []Route {
	var out []Route
	for _, r := range m[p] {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return Better(&out[i], &out[j], nil) })
	return out
}

func (m modelTable) best(p netip.Prefix) *Route {
	if s := m.sorted(p); len(s) > 0 {
		return &s[0]
	}
	return nil
}

func (m modelTable) routeCount() int {
	n := 0
	for _, peers := range m {
		n += len(peers)
	}
	return n
}

// lookup is the longest model prefix covering addr, by linear scan.
func (m modelTable) lookup(addr netip.Addr) netip.Prefix {
	var best netip.Prefix
	for p := range m {
		if p.Contains(addr) && (!best.IsValid() || p.Bits() > best.Bits()) {
			best = p
		}
	}
	return best
}

var (
	modelPrefixes = []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("10.1.1.0/24"), netip.MustParsePrefix("10.1.2.0/24"),
		netip.MustParsePrefix("10.2.0.0/16"), netip.MustParsePrefix("192.168.0.0/24"),
		netip.MustParsePrefix("2001:db8::/32"), netip.MustParsePrefix("2001:db8:1::/48"),
	}
	modelProbes = []netip.Addr{
		netip.MustParseAddr("10.1.1.5"), netip.MustParseAddr("10.1.3.1"), netip.MustParseAddr("10.2.9.9"),
		netip.MustParseAddr("10.9.9.9"), netip.MustParseAddr("192.168.0.7"), netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("2001:db8:1::1"), netip.MustParseAddr("2001:db8:2::1"), netip.MustParseAddr("2001:dead::1"),
	}
	modelPeers = []struct {
		addr  netip.Addr
		class PeerClass
		as    uint32
	}{
		{netip.MustParseAddr("192.0.2.1"), ClassPrivate, 65001},
		{netip.MustParseAddr("192.0.2.2"), ClassPublic, 65002},
		{netip.MustParseAddr("192.0.2.3"), ClassRouteServer, 65003},
		{netip.MustParseAddr("192.0.2.4"), ClassTransit, 65004},
		{netip.MustParseAddr("192.0.2.250"), ClassController, 64999},
	}
)

// modelRoute builds the announcement (prefix a, peer b, attribute
// variant v). Bit 7 of v announces the prefix with host bits set, which
// the table must mask before comparing.
func modelRoute(a, b, v byte) Route {
	p := modelPrefixes[int(a)%len(modelPrefixes)]
	if v&0x80 != 0 {
		p = netip.PrefixFrom(p.Addr().Next(), p.Bits())
	}
	peer := modelPeers[int(b)%len(modelPeers)]
	r := Route{
		Prefix: p, NextHop: peer.addr, PeerAddr: peer.addr, PeerAS: peer.as, PeerClass: peer.class,
		FromIBGP: peer.class == ClassController, EgressIF: int(b) % len(modelPeers),
		ASPath: []uint32{peer.as, 64000, 64001, 64002}[:1+int(v&3)],
		MED:    uint32(v >> 2 & 3), HasMED: v>>2&3 != 0,
		Origin: Origin(v >> 4 & 1),
	}
	if v&0x20 != 0 {
		r.PathHops = len(r.ASPath) + 1
	}
	if v&0x40 != 0 {
		r.Communities = []uint32{Community(65000, 1)}
	}
	r.LocalPref = PrefController
	if !r.FromIBGP {
		DefaultPolicy().Import(&r)
	}
	return r
}

// driveTableModel decodes ops four bytes at a time — kind, a, b, v — and
// applies each to a Table and to the model, checking after every one.
func driveTableModel(t *testing.T, ops []byte) {
	const maxOps = 48 // the ChangedSince check is quadratic in history
	tab := NewTable(DefaultPolicy())
	m := modelTable{}
	type mark struct {
		ver uint64
		m   modelTable
	}
	history := []mark{{0, modelTable{}}}

	// simple decodes one add / duplicate add / remove as a BatchOp and
	// applies it to the model, reporting whether the model changed.
	simple := func(kind, a, b, v byte) (op BatchOp, changed bool) {
		switch kind % 3 {
		case 0:
			r := modelRoute(a, b, v)
			return BatchOp{Route: &r}, m.add(r)
		case 1: // re-announce what the model holds for (a, b), verbatim
			p := modelPrefixes[int(a)%len(modelPrefixes)]
			if r, ok := m[p][modelPeers[int(b)%len(modelPeers)].addr]; ok {
				return BatchOp{Route: r.Clone()}, false
			}
			r := modelRoute(a, b, v)
			return BatchOp{Route: &r}, m.add(r)
		default:
			p, peer := modelPrefixes[int(a)%len(modelPrefixes)], modelPeers[int(b)%len(modelPeers)].addr
			return BatchOp{Prefix: p, Peer: peer}, m.remove(p, peer)
		}
	}

	for n := 0; len(ops) >= 4 && n < maxOps; n++ {
		kind, a, b, v := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		before := tab.Version()
		wantVer := before
		switch kind % 8 {
		case 6:
			wantVer += uint64(m.removePeer(modelPeers[int(b)%len(modelPeers)].addr))
			tab.RemovePeer(modelPeers[int(b)%len(modelPeers)].addr)
		case 7:
			var batch []BatchOp
			var want BatchResult
			for k := int(a)%5 + 1; k > 0 && len(ops) >= 4; k-- {
				op, changed := simple(ops[0], ops[1], ops[2], ops[3])
				ops = ops[4:]
				batch = append(batch, op)
				if changed {
					wantVer++
					if op.Route != nil {
						want.Added++
					} else {
						want.Removed++
					}
				}
			}
			got := tab.ApplyBatch(batch)
			if got.Added != want.Added || got.Removed != want.Removed {
				t.Fatalf("op %d: ApplyBatch = %+v, want Added %d Removed %d", n, got, want.Added, want.Removed)
			}
		default:
			p := modelPrefixes[int(a)%len(modelPrefixes)]
			oldBest := m.best(p)
			op, changed := simple(kind, a, b, v)
			if changed {
				wantVer++
			}
			var bestChanged bool
			if op.Route != nil {
				bestChanged = tab.Add(op.Route)
			} else {
				bestChanged = tab.Remove(op.Prefix, op.Peer)
			}
			if want := !reflect.DeepEqual(oldBest, m.best(p)); bestChanged != want {
				t.Fatalf("op %d: best-changed = %v, want %v", n, bestChanged, want)
			}
		}

		if got := tab.Version(); got != wantVer {
			t.Fatalf("op %d (kind %d): version %d → %d, want %d (it advances once per model change)",
				n, kind%8, before, got, wantVer)
		}
		checkAgainstModel(t, n, tab, m)

		// From every earlier version, ChangedSince must cover every
		// prefix whose model entry differs from the one held then.
		for _, h := range history {
			changed, now, ok := tab.ChangedSince(h.ver, nil)
			if !ok || now != wantVer {
				t.Fatalf("op %d: ChangedSince(%d) = (now %d, ok %v), want (%d, true)", n, h.ver, now, ok, wantVer)
			}
			seen := make(map[netip.Prefix]bool, len(changed))
			for _, p := range changed {
				seen[p] = true
			}
			for _, p := range modelPrefixes {
				if !reflect.DeepEqual(h.m[p], m[p]) && !seen[p] {
					t.Fatalf("op %d: %v differs from version %d but ChangedSince omits it (%v)", n, p, h.ver, changed)
				}
			}
		}
		history = append(history, mark{wantVer, m.clone()})
	}
}

func checkAgainstModel(t *testing.T, n int, tab *Table, m modelTable) {
	t.Helper()
	if got, want := tab.RouteCount(), m.routeCount(); got != want {
		t.Fatalf("op %d: RouteCount %d, want %d", n, got, want)
	}
	if got, want := tab.Len(), len(m); got != want {
		t.Fatalf("op %d: Len %d, want %d", n, got, want)
	}
	for _, p := range modelPrefixes {
		want := m.sorted(p)
		got := tab.Routes(p)
		if len(got) != len(want) {
			t.Fatalf("op %d: %v has %d routes, want %d", n, p, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(*got[i], want[i]) {
				t.Fatalf("op %d: %v[%d] = %+v, want %+v", n, p, i, *got[i], want[i])
			}
		}
		best := tab.Best(p)
		if (best == nil) != (len(want) == 0) || (best != nil && best != got[0]) {
			t.Fatalf("op %d: Best(%v) = %v, routes %v", n, p, best, got)
		}
	}
	for _, a := range modelProbes {
		if got, want := tab.LookupPrefix(a), m.lookup(a); got != want {
			t.Fatalf("op %d: LookupPrefix(%v) = %v, want %v", n, a, got, want)
		}
	}
}

func FuzzTableModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // an add and its duplicate
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 4}) // an add and the same route with a MED
	f.Add([]byte{0, 2, 1, 0x80, 1, 2, 1, 0, 2, 2, 1, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 3, 1, 0, 1, 4, 2, 6, 0, 3, 0, 0, 1, 0, 4})
	f.Add([]byte{7, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 9, 2, 0, 0, 0, 0, 5, 2, 0x40})
	f.Add([]byte("a re-sync that changes nothing costs nothing; a rewrite still journals"))
	f.Fuzz(driveTableModel)
}
