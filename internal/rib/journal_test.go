package rib

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
)

func TestChangedSinceBasic(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	v0 := tab.Version()

	tab.Add(mkRoute("10.1.0.0/24", "192.0.2.1", ClassPrivate, 65001))
	tab.Add(mkRoute("10.2.0.0/24", "192.0.2.1", ClassPrivate, 65001))
	tab.Add(mkRoute("10.1.0.0/24", "192.0.2.2", ClassTransit, 65002))

	changed, now, ok := tab.ChangedSince(v0, nil)
	if !ok {
		t.Fatal("ChangedSince from the observed version must succeed")
	}
	if now != tab.Version() {
		t.Errorf("now = %d, want %d", now, tab.Version())
	}
	if len(changed) != 3 {
		t.Fatalf("changed = %v, want 3 entries (dups allowed)", changed)
	}
	seen := map[netip.Prefix]int{}
	for _, p := range changed {
		seen[p]++
	}
	if seen[netip.MustParsePrefix("10.1.0.0/24")] != 2 || seen[netip.MustParsePrefix("10.2.0.0/24")] != 1 {
		t.Errorf("changed = %v", changed)
	}

	// Nothing since: empty, ok.
	changed, now2, ok := tab.ChangedSince(now, changed)
	if !ok || len(changed) != 0 || now2 != now {
		t.Errorf("idle ChangedSince = (%v, %d, %v)", changed, now2, ok)
	}

	// Remove and RemovePeer are journaled too.
	tab.Remove(netip.MustParsePrefix("10.2.0.0/24"), netip.MustParseAddr("192.0.2.1"))
	tab.RemovePeer(netip.MustParseAddr("192.0.2.2"))
	changed, _, ok = tab.ChangedSince(now, changed)
	if !ok || len(changed) != 2 {
		t.Fatalf("changed after removals = %v, ok=%v", changed, ok)
	}
}

func TestChangedSinceOverflow(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	v0 := tab.Version()
	// More than journalCap mutations: the reader that stayed at v0 must
	// be told to resync, while a reader within the window still works.
	// The prefixes wrap after 65 536, so the MED varies: an identical
	// re-announcement would be suppressed, not journaled.
	for i := 0; i < journalCap+10; i++ {
		r := mkRoute(fmt.Sprintf("10.%d.%d.0/24", (i>>8)%256, i%256), "192.0.2.1", ClassPrivate, 65001)
		r.MED, r.HasMED = uint32(i), true
		tab.Add(r)
	}
	if _, _, ok := tab.ChangedSince(v0, nil); ok {
		t.Error("reader beyond the journal window must get ok=false")
	}
	mid := tab.Version() - 5
	changed, _, ok := tab.ChangedSince(mid, nil)
	if !ok || len(changed) != 5 {
		t.Errorf("in-window read = (%d entries, %v), want 5, true", len(changed), ok)
	}
	// A future version (another table's timeline) is rejected.
	if _, _, ok := tab.ChangedSince(tab.Version()+1, nil); ok {
		t.Error("future since must get ok=false")
	}
}

func TestInterningSharesAttrSlices(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	mk := func(prefix, peer string) *Route {
		r := mkRoute(prefix, peer, ClassTransit, 64601, 65099)
		r.Communities = []uint32{Community(64601, 100), Community(64601, 200)}
		return r
	}
	tab.Add(mk("10.1.0.0/24", "192.0.2.1"))
	tab.Add(mk("10.2.0.0/24", "192.0.2.1"))

	a := tab.Best(netip.MustParsePrefix("10.1.0.0/24"))
	b := tab.Best(netip.MustParsePrefix("10.2.0.0/24"))
	if &a.ASPath[0] != &b.ASPath[0] {
		t.Error("identical AS paths should be interned to one slice")
	}
	if &a.Communities[0] != &b.Communities[0] {
		t.Error("identical community lists should be interned to one slice")
	}
	// Different content must not alias.
	r3 := mkRoute("10.3.0.0/24", "192.0.2.1", ClassTransit, 64601, 65100)
	tab.Add(r3)
	c := tab.Best(netip.MustParsePrefix("10.3.0.0/24"))
	if &a.ASPath[0] == &c.ASPath[0] {
		t.Error("different AS paths must not be interned together")
	}
}

// TestSnapshotRoutesIntoConcurrentMutation hammers SnapshotRoutesInto
// with partially-dirty prefix sets while writers churn a slice of the
// table: adds, implicit withdraws, removes, and whole-peer flushes. Run
// under -race (check.sh does) this is the read-path linearizability
// check for the copy-on-write contract: every returned view must be
// internally consistent — preference-sorted, no nils, injected count
// matching — no matter how the table mutates mid-snapshot.
func TestSnapshotRoutesIntoConcurrentMutation(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	const nPrefixes = 256
	prefixes := make([]netip.Prefix, 0, nPrefixes+8)
	for i := 0; i < nPrefixes; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		prefixes = append(prefixes, p)
		tab.Add(mkRoute(p.String(), "192.0.2.9", ClassTransit, 64601))
	}
	// Absent prefixes interleaved: views for them must stay zero.
	for i := 0; i < 8; i++ {
		prefixes = append(prefixes, netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", i)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: each owns a disjoint peer address and dirties a sliding
	// subset of the prefixes, so any snapshot observes a mix of clean,
	// freshly-mutated, and mid-churn entries.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := fmt.Sprintf("192.0.2.%d", w+1)
			peerAddr := netip.MustParseAddr(peer)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (round * 37) % nPrefixes
				for i := lo; i < lo+32 && i < nPrefixes; i++ {
					switch round % 3 {
					case 0:
						tab.Add(mkRoute(prefixes[i].String(), peer, ClassPrivate, uint32(65001+w)))
					case 1:
						tab.Add(mkRoute(prefixes[i].String(), peer, ClassPublic, uint32(65001+w), 64999))
					case 2:
						tab.Remove(prefixes[i], peerAddr)
					}
				}
				if round%7 == 6 {
					tab.RemovePeer(peerAddr)
				}
			}
		}(w)
	}

	var views []RouteView
	for iter := 0; iter < 400; iter++ {
		views = tab.SnapshotRoutesInto(prefixes, views)
		for i, v := range views {
			if i >= nPrefixes {
				if v.Routes != nil {
					t.Errorf("absent prefix %v got routes", prefixes[i])
				}
				continue
			}
			ninj := 0
			for j, r := range v.Routes {
				if r == nil {
					t.Fatalf("nil route in view %v", prefixes[i])
				}
				if r.PeerClass == ClassController {
					ninj++
				}
				if j > 0 && Better(r, v.Routes[j-1], tab.Policy()) {
					t.Fatalf("view %v not preference-sorted at %d", prefixes[i], j)
				}
			}
			if ninj != v.Injected {
				t.Fatalf("view %v injected=%d, counted %d", prefixes[i], v.Injected, ninj)
			}
		}
	}
	close(stop)
	wg.Wait()
}
