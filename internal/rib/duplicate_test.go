package rib

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
)

// fullRoute is a route with every field set to a non-zero value, so a
// perturbation of any one of them is visible.
func fullRoute() *Route {
	return &Route{
		Prefix:      netip.MustParsePrefix("10.1.0.0/24"),
		NextHop:     netip.MustParseAddr("192.0.2.1"),
		ASPath:      []uint32{65001, 65099},
		PathHops:    3,
		Origin:      OriginEGP,
		MED:         10,
		HasMED:      true,
		LocalPref:   PrefPrivate,
		Communities: []uint32{Community(65001, 100)},
		PeerAddr:    netip.MustParseAddr("192.0.2.1"),
		PeerAS:      65001,
		PeerClass:   ClassPrivate,
		FromIBGP:    true,
		EgressIF:    4,
	}
}

// TestDuplicateComparesEveryField walks Route by reflection, perturbs
// one field at a time and requires the re-announcement NOT to be
// suppressed: a field added to Route later fails here until
// duplicateOf compares it (or, for a new type, until the test learns
// to perturb it).
func TestDuplicateComparesEveryField(t *testing.T) {
	rt := reflect.TypeOf(Route{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		tab := NewTable(DefaultPolicy())
		tab.Add(fullRoute())
		tab.Add(fullRoute())
		if tab.Version() != 1 || tab.Duplicates() != 1 {
			t.Fatalf("identical re-announcement: version %d duplicates %d, want 1 and 1", tab.Version(), tab.Duplicates())
		}

		r := fullRoute()
		f := reflect.ValueOf(r).Elem().Field(i)
		switch v := f.Interface().(type) {
		case netip.Prefix:
			f.Set(reflect.ValueOf(netip.MustParsePrefix("10.2.0.0/24")))
		case netip.Addr:
			f.Set(reflect.ValueOf(v.Next()))
		case []uint32:
			f.Set(reflect.ValueOf(append([]uint32{v[0] + 1}, v[1:]...)))
		default:
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			default:
				t.Fatalf("Route.%s has type %s: teach this test to perturb it", name, f.Type())
			}
		}
		tab.Add(r)
		if tab.Version() != 2 || tab.Duplicates() != 1 {
			t.Errorf("Route.%s changed but the announcement was suppressed (version %d, duplicates %d)",
				name, tab.Version(), tab.Duplicates())
		}
	}
}

// resyncDump is a BMP-dump-shaped batch: three peers announcing the
// same prefixes, fresh Route values on every call.
func resyncDump(n int) []BatchOp {
	ops := make([]BatchOp, 0, 3*n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)
		private := mkRoute(p, "192.0.2.1", ClassPrivate, 65001)
		private.Communities = []uint32{Community(65001, 100)}
		ops = append(ops,
			BatchOp{Route: private},
			BatchOp{Route: mkRoute(p, "192.0.2.2", ClassPublic, 65002, 65001)},
			BatchOp{Route: mkRoute(p, "192.0.2.9", ClassTransit, 64601, 65002, 65001)})
	}
	return ops
}

// TestResyncChangesNothing: a table fed the same dump three times is
// the table fed it once — same routes, version, count, an empty
// ChangedSince — and its stored routes are the very same pointers, which
// is what keeps cached plans and installed Override.Via valid across a
// BMP reconnect.
func TestResyncChangesNothing(t *testing.T) {
	const n = 300
	once := NewTable(DefaultPolicy())
	once.ApplyBatch(resyncDump(n))

	tab := NewTable(DefaultPolicy())
	tab.ApplyBatch(resyncDump(n))
	stored := map[netip.Prefix][]*Route{}
	tab.EachRoutes(func(p netip.Prefix, rs []*Route) { stored[p] = rs })
	ver := tab.Version()

	// A waiter registered now must sleep through the re-syncs.
	tab.mu.Lock()
	tab.waitCh = make(chan struct{})
	wait := tab.waitCh
	tab.mu.Unlock()

	for pass := 0; pass < 2; pass++ {
		res := tab.ApplyBatch(resyncDump(n))
		if res != (BatchResult{}) {
			t.Fatalf("re-sync %d: BatchResult %+v, want zero", pass, res)
		}
	}
	for _, op := range resyncDump(n)[:10] {
		if tab.Add(op.Route) {
			t.Fatal("Add of a stored route reported a best change")
		}
	}
	select {
	case <-wait:
		t.Error("a batch of duplicates woke a waiter")
	default:
	}

	if tab.Version() != ver || tab.Version() != once.Version() {
		t.Errorf("version %d after re-syncs, %d before, %d fed once", tab.Version(), ver, once.Version())
	}
	if tab.RouteCount() != once.RouteCount() || tab.Len() != once.Len() {
		t.Errorf("routes/prefixes %d/%d, fed once %d/%d", tab.RouteCount(), tab.Len(), once.RouteCount(), once.Len())
	}
	if changed, _, ok := tab.ChangedSince(ver, nil); !ok || len(changed) != 0 {
		t.Errorf("ChangedSince across the re-syncs = (%d prefixes, ok %v), want none", len(changed), ok)
	}
	if want := uint64(2*3*n + 10); tab.Duplicates() != want {
		t.Errorf("Duplicates = %d, want %d", tab.Duplicates(), want)
	}
	seen := 0
	tab.EachRoutes(func(p netip.Prefix, rs []*Route) {
		seen++
		was, ref := stored[p], once.Routes(p)
		if len(rs) != len(was) || len(rs) != len(ref) {
			t.Fatalf("%v: %d routes, %d before, %d fed once", p, len(rs), len(was), len(ref))
		}
		for i := range rs {
			if rs[i] != was[i] {
				t.Fatalf("%v[%d]: stored *Route replaced by a re-sync", p, i)
			}
			if !reflect.DeepEqual(*rs[i], *ref[i]) {
				t.Fatalf("%v[%d] = %+v, fed once %+v", p, i, *rs[i], *ref[i])
			}
		}
	})
	for p := range stored {
		if gen := tab.Generation(p); gen > ver {
			t.Fatalf("%v: generation %d moved past %d", p, gen, ver)
		}
	}
	if seen != n {
		t.Errorf("EachRoutes visited %d prefixes, want %d", seen, n)
	}
}

// TestApplyBatchDuplicatesAllocateNothing pins the cost of an absorbed
// re-sync: no arena slot, no route slice, no journal growth.
func TestApplyBatchDuplicatesAllocateNothing(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	tab.ApplyBatch(resyncDump(86))
	ops := resyncDump(86)[:256]
	if avg := testing.AllocsPerRun(20, func() { tab.ApplyBatch(ops) }); avg != 0 {
		t.Errorf("ApplyBatch of 256 duplicates allocates %.1f objects, want 0", avg)
	}
}
