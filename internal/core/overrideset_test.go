package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// A set is sorted by prefix, keeps the last override of a prefix listed
// twice, finds what it holds and nothing else, and renders the
// canonical decision text.
func TestOverrideSetBuildLookupRender(t *testing.T) {
	nh := func(s string) *rib.Route { return &rib.Route{NextHop: netip.MustParseAddr(s)} }
	p, q, v6 := netip.MustParsePrefix("10.0.1.0/24"), netip.MustParsePrefix("10.0.0.0/16"), netip.MustParsePrefix("2001:db8::/48")
	in := []Override{
		{Prefix: v6, Via: nh("2001:db8::9"), ToIF: 4},
		{Prefix: p, Via: nh("172.20.0.1"), ToIF: 1, Reason: "first"},
		{Prefix: q, Via: nh("172.20.0.3"), ToIF: 2, Multipath: []PathWeight{
			{Via: nh("172.20.0.3"), WeightPct: 70}, {Via: nh("172.20.0.9"), WeightPct: 30},
		}},
		{Prefix: p, Via: nh("172.20.0.9"), ToIF: 3, Reason: "last"},
	}
	set := NewOverrideSet(in)
	if len(set) != 3 || set[0].Prefix != q || set[1].Prefix != p || set[2].Prefix != v6 {
		t.Fatalf("set order = %v, want %s %s %s", set, q, p, v6)
	}
	if o, ok := set.Lookup(p); !ok || o.Reason != "last" {
		t.Errorf("Lookup(%s) = %+v, %v; want the last override listed", p, o, ok)
	}
	if _, ok := set.Lookup(netip.MustParsePrefix("10.0.2.0/24")); ok {
		t.Error("Lookup found a prefix the set does not hold")
	}
	if in[1].Reason != "first" {
		t.Error("NewOverrideSet reordered its argument")
	}
	var b strings.Builder
	set.WriteTo(&b)
	want := "cycle 3\n" +
		"10.0.0.0/16 172.20.0.3 2 172.20.0.3/70 172.20.0.9/30\n" +
		"10.0.1.0/24 172.20.0.9 3\n" +
		"2001:db8::/48 2001:db8::9 4\n"
	if b.String() != want {
		t.Errorf("rendering:\n%s\nwant:\n%s", b.String(), want)
	}
	if !set.Equal(NewOverrideSet([]Override{in[3], in[2], in[0]})) || set.Equal(NewOverrideSet(in[:3])) {
		t.Error("Equal disagrees with the decisions the sets hold")
	}
}

// settleModel is Sync's global bookkeeping as the injector kept it, in
// a map, before the installed state became an OverrideSet: the naive
// model FuzzInstalledSetModel checks settle against. It updates
// installed in place.
func settleModel(installed map[netip.Prefix]Override, track map[netip.Prefix]prefixSync) (SyncResult, error) {
	var res SyncResult
	var errNoRouter error
	for prefix, old := range installed {
		e := track[prefix]
		if e.want != nil && sigOf(e.want) == sigOf(&old) {
			continue
		}
		res.Withdrawn++
		if e.want != nil && e.took > 0 {
			installed[prefix] = *e.want
			res.Announced++
			continue
		}
		delete(installed, prefix)
	}
	for prefix, e := range track {
		if e.took > 0 && e.took < e.tries {
			res.Partial++
		}
		if e.want == nil {
			continue
		}
		if _, ok := installed[prefix]; ok {
			continue
		}
		if e.took > 0 {
			installed[prefix] = *e.want
			res.Announced++
		} else {
			errNoRouter = fmt.Errorf("core: announce %s reached no router", prefix)
		}
	}
	return res, errNoRouter
}

// fuzzBytes hands out a fuzz input one small number at a time, zeros
// once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// Fuzz pools: few prefixes (both families) and routes, so old, desired
// and withdrawn prefixes collide and equal signatures are common. A
// route's egress interface is a function of its next hop, as on a PoP.
var (
	fuzzPrefixes = func() []netip.Prefix {
		var out []netip.Prefix
		for i := 0; i < 6; i++ {
			out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24))
		}
		return append(out, netip.MustParsePrefix("10.0.0.0/16"), netip.MustParsePrefix("2001:db8::/48"))
	}()
	fuzzRoutes = func() []*rib.Route {
		var out []*rib.Route
		for i := 0; i < rib.MaxMultipathSlots; i++ {
			out = append(out, &rib.Route{NextHop: netip.AddrFrom4([4]byte{172, 20, 0, byte(i)}), EgressIF: i})
		}
		return out
	}()
)

// fuzzOverride builds an override for p from b: a single detour or a
// weighted set of up to rib.MaxMultipathSlots members, with Via the
// first member's route and ToIF its Via's interface, as the allocator
// and the optimizer build them.
func fuzzOverride(b *fuzzBytes, p netip.Prefix) Override {
	o := Override{Prefix: p, Via: fuzzRoutes[b.next(3)], RateBps: float64(b.next(4))}
	for m := b.next(rib.MaxMultipathSlots + 1); m > 0; m-- {
		o.Multipath = append(o.Multipath, PathWeight{Via: fuzzRoutes[b.next(len(fuzzRoutes))], WeightPct: 1 + 10*b.next(4)})
	}
	if len(o.Multipath) > 0 {
		o.Via = o.Multipath[0].Via
	}
	o.ToIF = o.Via.EgressIF
	return o
}

// FuzzInstalledSetModel checks settle, the injector's installed-set
// merge, against settleModel: the same set contents in prefix order,
// Lookup agreeing with the model's map, and equal Announced, Withdrawn
// and Partial counts and error. It also checks that SameDecision and
// the wire signature agree on overrides built as the allocators build
// them.
func FuzzInstalledSetModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x07\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13"))
	f.Add([]byte("\xff\x80\x41\x23\x17\x99\x03\x00\x01\x02\xfe\xed\x33\x44\x55\x66\x77\x88\x21\x12\x08\x0b\x0d\x5a\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)

		// Two overrides of one prefix: one decision exactly when one
		// signature.
		p := fuzzPrefixes[b.next(len(fuzzPrefixes))]
		x, y := fuzzOverride(&b, p), fuzzOverride(&b, p)
		if b.next(2) == 0 {
			y = x
			y.Multipath = append([]PathWeight(nil), x.Multipath...)
			y.Reason, y.RateBps, y.FromIF = "other", y.RateBps+1, y.FromIF+1
		}
		if same, sig := x.SameDecision(&y), sigOf(&x) == sigOf(&y); same != sig {
			t.Fatalf("SameDecision = %v but equal signatures = %v:\n%+v\n%+v", same, sig, x, y)
		}

		// The installed set before the Sync, and the model's copy.
		var olds []Override
		model := make(map[netip.Prefix]Override)
		for _, p := range fuzzPrefixes {
			if b.next(2) == 1 {
				o := fuzzOverride(&b, p)
				olds = append(olds, o)
				model[p] = o
			}
		}
		old := NewOverrideSet(olds)

		// The desired slice, prefixes possibly repeated, and each
		// prefix's tries and takes, some for prefixes only withdrawn.
		desired := make([]Override, b.next(12))
		for i := range desired {
			desired[i] = fuzzOverride(&b, fuzzPrefixes[b.next(len(fuzzPrefixes))])
		}
		outcome := make(map[netip.Prefix]prefixSync)
		for i := range desired {
			outcome[desired[i].Prefix] = prefixSync{prefix: desired[i].Prefix, want: &desired[i]}
		}
		for _, p := range fuzzPrefixes {
			e := outcome[p]
			if e.want == nil && b.next(2) == 0 {
				continue
			}
			e.prefix, e.tries = p, int32(b.next(4))
			e.took = int32(b.next(int(e.tries) + 1))
			outcome[p] = e
		}
		var track []prefixSync
		for _, e := range outcome {
			track = append(track, e)
		}
		track = lastPerPrefix(track, func(e prefixSync) netip.Prefix { return e.prefix })

		want, wantErr := settleModel(model, outcome)
		set, got, err := settle(old, track)
		if got != want || (err != nil) != (wantErr != nil) {
			t.Fatalf("settle = %+v, %v; model %+v, %v", got, err, want, wantErr)
		}
		if len(set) != len(model) {
			t.Fatalf("set holds %d overrides, model %d", len(set), len(model))
		}
		for i := range set {
			if i > 0 && rib.ComparePrefixes(set[i-1].Prefix, set[i].Prefix) >= 0 {
				t.Fatalf("set out of order at %d: %s, %s", i, set[i-1].Prefix, set[i].Prefix)
			}
		}
		for _, p := range fuzzPrefixes {
			o, ok := set.Lookup(p)
			m, mok := model[p]
			if ok != mok || !reflect.DeepEqual(o, m) {
				t.Fatalf("Lookup(%s) = %+v, %v; model %+v, %v", p, o, ok, m, mok)
			}
		}
		if got.Announced == 0 && got.Withdrawn == 0 && len(set) > 0 && &set[0] != &old[0] {
			t.Fatal("an unchanged set was rebuilt")
		}
	})
}

// mallocs is the process's count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestInstalledNoCopy: Installed hands out the installed set without a
// copy, and a changed Sync builds it in a fixed number of allocations,
// not one per override. The router end reads nothing after the
// handshake, so the UPDATEs land in the pipe and no decoder allocates
// beside the measurement.
func TestInstalledNoCopy(t *testing.T) {
	inj, err := NewInjector(InjectorConfig{LocalAS: 64500, RouterID: netip.MustParseAddr("10.255.0.100"), HoldTime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	routerEnd, injEnd := netsim.BufferedPipe()
	if err := inj.AddRouter(netip.MustParseAddr("10.255.0.1"), injEnd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bgp.MaxMessageLen)
	for _, m := range []bgp.Message{bgp.NewOpen(64500, 3600, netip.MustParseAddr("10.255.0.1")), &bgp.Keepalive{}} {
		raw, err := bgp.MarshalBytes(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := routerEnd.Write(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := bgp.ReadMessage(routerEnd, buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inj.WaitEstablished(ctx); err != nil {
		t.Fatal(err)
	}

	// changedSyncs returns the mean allocations of a Sync that swaps n
	// installed prefixes for n new ones, checks that Installed then
	// returns the new set, and counts Installed's allocations in copies.
	var calls, copies uint64
	changedSyncs := func(n int) float64 {
		all := batchOverrides(2*n, "172.20.0.9")
		sets := [2][]Override{all[:n], all[n:]}
		i := 0
		return testing.AllocsPerRun(8, func() {
			want := sets[i%2]
			i++
			if _, err := inj.Sync(want); err != nil {
				t.Fatal(err)
			}
			before := mallocs()
			got := inj.Installed()
			calls, copies = calls+1, copies+mallocs()-before
			if len(got) != n || got[0].Prefix != want[0].Prefix {
				t.Fatalf("installed %d overrides from %s, want %d from %s", len(got), got[0].Prefix, n, want[0].Prefix)
			}
		})
	}
	small, large := changedSyncs(50), changedSyncs(800)
	// Other goroutines may allocate during a read; a copy would cost
	// one allocation per override on every call.
	if copies >= calls {
		t.Errorf("Installed allocated %d objects over %d calls after changed Syncs", copies, calls)
	}
	if grew := large - small; grew > 750/10 {
		t.Errorf("a changed Sync allocates %.0f objects over 50 prefixes and %.0f over 800: %.2f per added override",
			small, large, grew/750)
	}
}
