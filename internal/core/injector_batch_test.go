package core

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"edgefabric/internal/bgp"
	"edgefabric/internal/rib"
)

func batchOverrides(n int, nextHop string) []Override {
	via := &rib.Route{
		NextHop: netip.MustParseAddr(nextHop),
		ASPath:  []uint32{64601, 65010},
	}
	out := make([]Override, n)
	for i := range out {
		out[i] = Override{
			Prefix: netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)),
			Via:    via,
		}
	}
	return out
}

// unitsOf expands overrides into announcement units for the batcher.
func unitsOf(overrides []Override) []annUnit {
	var units []annUnit
	for i := range overrides {
		units = appendUnits(units, &overrides[i], i)
	}
	return units
}

// wireCopy returns u as a router decodes it: a copy that owns its
// memory, whatever scratch the sender built u in.
func wireCopy(t testing.TB, u *bgp.Update) *bgp.Update {
	t.Helper()
	b, err := bgp.MarshalBytes(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bgp.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*bgp.Update)
}

// announceUpdates runs the injector's batcher on fresh scratch and
// returns a copy of every UPDATE it sends.
func announceUpdates(t testing.TB, units []annUnit) []*bgp.Update {
	var s injScratch
	var out []*bgp.Update
	s.announceUpdates(units, func(u *bgp.Update) error {
		out = append(out, wireCopy(t, u))
		return nil
	})
	return out
}

// withdrawUpdates is announceUpdates for withdrawals.
func withdrawUpdates(t testing.TB, prefixes []netip.Prefix) []*bgp.Update {
	var s injScratch
	var out []*bgp.Update
	s.withdrawUpdates(prefixes, func(u *bgp.Update) error {
		out = append(out, wireCopy(t, u))
		return nil
	})
	return out
}

func TestAnnounceUpdatesBatching(t *testing.T) {
	// 450 same-next-hop overrides → 3 updates of ≤200 NLRI.
	updates := announceUpdates(t, unitsOf(batchOverrides(450, "172.20.0.9")))
	if len(updates) != 3 {
		t.Fatalf("updates = %d, want 3", len(updates))
	}
	total := 0
	for _, u := range updates {
		if len(u.NLRI) > batchSize {
			t.Errorf("update carries %d NLRI > %d", len(u.NLRI), batchSize)
		}
		if !u.Attrs.HasLocalPref || u.Attrs.LocalPref != rib.PrefController {
			t.Error("batched update lost LOCAL_PREF")
		}
		total += len(u.NLRI)
	}
	if total != 450 {
		t.Errorf("total NLRI = %d", total)
	}
}

func TestAnnounceUpdatesGroupsByNextHop(t *testing.T) {
	a := batchOverrides(3, "172.20.0.9")
	b := batchOverrides(3, "172.20.0.3")
	for i := range b {
		b[i].Prefix = netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", i))
	}
	updates := announceUpdates(t, unitsOf(append(a, b...)))
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2 groups", len(updates))
	}
	for _, u := range updates {
		for range u.NLRI {
		}
		if len(u.NLRI) != 3 {
			t.Errorf("group size = %d", len(u.NLRI))
		}
	}
}

func TestAnnounceUpdatesMixedFamilies(t *testing.T) {
	via := &rib.Route{
		NextHop: netip.MustParseAddr("2001:db8:ffff::9"),
		ASPath:  []uint32{64601},
	}
	v6 := Override{Prefix: netip.MustParsePrefix("2001:db8:1::/48"), Via: via}
	v4 := batchOverrides(1, "172.20.0.9")[0]
	updates := announceUpdates(t, unitsOf([]Override{v6, v4}))
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2 (per family)", len(updates))
	}
	sawMP := false
	for _, u := range updates {
		if u.Attrs.MPReach != nil {
			sawMP = true
			if u.Attrs.MPReach.NLRI[0] != v6.Prefix {
				t.Error("wrong v6 NLRI")
			}
		}
	}
	if !sawMP {
		t.Error("v6 override missing MP_REACH")
	}
}

func TestWithdrawUpdatesBatching(t *testing.T) {
	var prefixes []netip.Prefix
	for i := 0; i < 250; i++ {
		prefixes = append(prefixes, netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)))
	}
	prefixes = append(prefixes, netip.MustParsePrefix("2001:db8:1::/48"))
	updates := withdrawUpdates(t, prefixes)
	// 250 v4 → 2 updates; 1 v6 → 1 update.
	if len(updates) != 3 {
		t.Fatalf("updates = %d, want 3", len(updates))
	}
	nv4, nv6 := 0, 0
	for _, u := range updates {
		nv4 += len(u.Withdrawn)
		if u.Attrs.MPUnreach != nil {
			nv6 += len(u.Attrs.MPUnreach.Withdrawn)
		}
	}
	if nv4 != 250 || nv6 != 1 {
		t.Errorf("withdrawn = %d v4, %d v6", nv4, nv6)
	}
}

func TestAnnounceUpdatesCommunities(t *testing.T) {
	plain := batchOverrides(1, "172.20.0.9")[0]
	perf := batchOverrides(1, "172.20.0.9")[0]
	perf.Prefix = netip.MustParsePrefix("192.168.0.0/24")
	perf.Reason = "alt path 30ms faster"
	split := batchOverrides(1, "172.20.0.9")[0]
	split.Prefix = netip.MustParsePrefix("10.9.0.0/25")
	split.SplitOf = netip.MustParsePrefix("10.9.0.0/24")

	updates := announceUpdates(t, unitsOf([]Override{plain, perf, split}))
	// Three distinct community sets → three groups.
	if len(updates) != 3 {
		t.Fatalf("updates = %d, want 3 community groups", len(updates))
	}
	marker := rib.Community(CommunityTagAS, CommunityOverride)
	for _, u := range updates {
		found := false
		for _, c := range u.Attrs.Communities {
			if c == marker {
				found = true
			}
		}
		if !found {
			t.Errorf("update missing marker community: %v", u.Attrs.Communities)
		}
	}
	// The split group carries the split community.
	sawSplit := false
	for _, u := range updates {
		for _, c := range u.Attrs.Communities {
			if c == rib.Community(CommunityTagAS, CommunitySplit) {
				sawSplit = true
				if u.NLRI[0] != split.Prefix {
					t.Errorf("split community on wrong update: %v", u.NLRI)
				}
			}
		}
	}
	if !sawSplit {
		t.Error("split community missing")
	}
}

func TestWithdrawUpdatesEmpty(t *testing.T) {
	if got := withdrawUpdates(t, nil); len(got) != 0 {
		t.Errorf("updates = %v", got)
	}
	if got := announceUpdates(t, nil); len(got) != 0 {
		t.Errorf("updates = %v", got)
	}
}

// A multipath override expands to one UPDATE per member, each with its
// slot and weight communities, never sharing an UPDATE with another
// slot of the same prefix.
func TestAnnounceUpdatesMultipathSlots(t *testing.T) {
	primary := &rib.Route{NextHop: netip.MustParseAddr("172.20.0.1"), ASPath: []uint32{65010}}
	alt := &rib.Route{NextHop: netip.MustParseAddr("172.20.0.9"), ASPath: []uint32{64601, 65010}}
	o := Override{
		Prefix: netip.MustParsePrefix("10.0.0.0/24"),
		Via:    alt, ToIF: 3, FromIF: 0, RateBps: 2e9,
		Multipath: []PathWeight{
			{Via: alt, ToIF: 3, WeightPct: 70, RateBps: 1.4e9},
			{Via: primary, ToIF: 0, WeightPct: 30, RateBps: 0.6e9},
		},
	}
	updates := announceUpdates(t, unitsOf([]Override{o}))
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want one per member", len(updates))
	}
	seen := map[int]int{} // slot -> pct
	for _, u := range updates {
		slot, pct, ok := rib.ParseMultipathCommunities(u.Attrs.Communities)
		if !ok {
			t.Fatalf("member update missing slot community: %v", u.Attrs.Communities)
		}
		seen[slot] = pct
		marker := false
		for _, c := range u.Attrs.Communities {
			if c == rib.Community(CommunityTagAS, CommunityMultipath) {
				marker = true
			}
		}
		if !marker {
			t.Errorf("member update missing multipath community: %v", u.Attrs.Communities)
		}
	}
	if seen[0] != 70 || seen[1] != 30 {
		t.Errorf("slot weights = %v, want 0:70 1:30", seen)
	}
	// Signature distinguishes weight changes.
	o2 := o
	o2.Multipath = []PathWeight{
		{Via: alt, ToIF: 3, WeightPct: 60, RateBps: 1.2e9},
		{Via: primary, ToIF: 0, WeightPct: 40, RateBps: 0.8e9},
	}
	if sigOf(&o) == sigOf(&o2) {
		t.Error("signatures equal across weight change")
	}
}

// The batcher's oracle: the straightforward form of the same batching,
// a group map keyed by the fmt.Sprint of (next hop, AS path, family,
// communities), sorted by key, each group sorted by prefix and cut into
// batchSize UPDATEs built fresh.
type oracleUnit struct {
	prefix      netip.Prefix
	nh          netip.Addr
	asPath      []uint32
	communities []uint32
}

func oracleUnits(o Override) []oracleUnit {
	if len(o.Multipath) == 0 {
		cs := []uint32{rib.Community(CommunityTagAS, CommunityOverride)}
		if strings.Contains(o.Reason, "alt path") {
			cs = append(cs, rib.Community(CommunityTagAS, CommunityPerf))
		}
		if o.SplitOf.IsValid() {
			cs = append(cs, rib.Community(CommunityTagAS, CommunitySplit))
		}
		return []oracleUnit{{prefix: o.Prefix, nh: o.Via.NextHop, asPath: o.Via.ASPath, communities: cs}}
	}
	units := make([]oracleUnit, len(o.Multipath))
	for i, pw := range o.Multipath {
		units[i] = oracleUnit{
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

func oracleAnnounceUpdates(units []oracleUnit) []*bgp.Update {
	type groupKey string
	keyOf := func(u oracleUnit) groupKey {
		return groupKey(fmt.Sprint(u.nh, "|", u.asPath, "|",
			u.prefix.Addr().Is4(), "|", u.communities))
	}
	groups := make(map[groupKey][]oracleUnit)
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
			chunk := g[i:min(i+batchSize, len(g))]
			u := &bgp.Update{Attrs: bgp.PathAttrs{
				HasOrigin:    true,
				ASPath:       bgp.Sequence(chunk[0].asPath...),
				LocalPref:    rib.PrefController,
				HasLocalPref: true,
				Communities:  chunk[0].communities,
			}}
			prefixes := make([]netip.Prefix, len(chunk))
			for j, au := range chunk {
				prefixes[j] = au.prefix
			}
			if chunk[0].prefix.Addr().Is4() {
				u.Attrs.NextHop = chunk[0].nh
				u.NLRI = prefixes
			} else {
				u.Attrs.MPReach = &bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NextHop: chunk[0].nh, NLRI: prefixes}
			}
			updates = append(updates, u)
		}
	}
	return updates
}

func oracleWithdrawUpdates(prefixes []netip.Prefix) []*bgp.Update {
	var v4, v6 []netip.Prefix
	for _, p := range prefixes {
		if p.Addr().Is4() {
			v4 = append(v4, p)
		} else {
			v6 = append(v6, p)
		}
	}
	rib.SortPrefixes(v4)
	rib.SortPrefixes(v6)
	var updates []*bgp.Update
	for i := 0; i < len(v4); i += batchSize {
		updates = append(updates, &bgp.Update{Withdrawn: v4[i:min(i+batchSize, len(v4))]})
	}
	for i := 0; i < len(v6); i += batchSize {
		updates = append(updates, &bgp.Update{Attrs: bgp.PathAttrs{MPUnreach: &bgp.MPUnreach{
			AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, Withdrawn: v6[i:min(i+batchSize, len(v6))],
		}}})
	}
	return updates
}

// wireMultiset renders each UPDATE to its wire bytes and sorts them:
// two batchers agree when they send the same attribute sets over the
// same NLRI, in whatever order.
func wireMultiset(t testing.TB, updates []*bgp.Update) []string {
	t.Helper()
	out := make([]string, len(updates))
	for i, u := range updates {
		b, err := bgp.MarshalBytes(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hex.EncodeToString(b)
	}
	slices.Sort(out)
	return out
}

// randomOverrides draws a set of n distinct-prefix overrides: v4 and
// v6, single-path, split halves, perf moves and 2–3-member multipath
// sets over a small pool of next hops and AS paths, so groups collide
// and overflow batchSize.
func randomOverrides(rng *rand.Rand, n int) []Override {
	var routes []*rib.Route
	paths := [][]uint32{nil, {65010}, {64601, 65010}, {64601, 65010, 4200000001}}
	for i := 0; i < 6; i++ {
		nh4 := netip.AddrFrom4([4]byte{172, 20, 0, byte(1 + i)})
		nh6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0xff, 0xff, 15: byte(1 + i)})
		routes = append(routes,
			&rib.Route{NextHop: nh4, ASPath: paths[i%len(paths)]},
			&rib.Route{NextHop: nh6, ASPath: paths[(i+1)%len(paths)]})
	}
	pick := func(v4 bool) *rib.Route {
		for {
			if r := routes[rng.Intn(len(routes))]; r.NextHop.Is4() == v4 {
				return r
			}
		}
	}
	seen := make(map[netip.Prefix]bool)
	var out []Override
	for len(out) < n {
		v4 := rng.Intn(3) > 0
		var p netip.Prefix
		if v4 {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(8)), byte(rng.Intn(256)), 0}), 24)
		} else {
			p = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 4: byte(rng.Intn(4)), 5: byte(rng.Intn(256))}), 48)
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		o := Override{Prefix: p, Via: pick(v4)}
		switch rng.Intn(5) {
		case 0:
			o.Reason = "alt path 30ms faster (p50 40 vs 70)"
		case 1:
			half := netip.PrefixFrom(p.Addr(), p.Bits()+1)
			o.SplitOf, o.Prefix = p, half
		case 2, 3:
			k := 2 + rng.Intn(2)
			left := 100
			for i := 0; i < k; i++ {
				pct := left
				if i < k-1 {
					pct = 5 + rng.Intn(left-5*(k-i))
				}
				left -= pct
				o.Multipath = append(o.Multipath, PathWeight{Via: pick(v4), WeightPct: pct})
			}
			o.Via = o.Multipath[0].Via
		}
		out = append(out, o)
	}
	return out
}

// TestAnnounceUpdatesMatchOracle: over random override sets the scratch
// batcher sends exactly the UPDATEs the string-keyed one did, as a
// multiset of (attributes, NLRI) pairs.
func TestAnnounceUpdatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var s injScratch // one scratch across cases, as across one Sync's routers: reuse must not leak state
	for trial := 0; trial < 60; trial++ {
		set := randomOverrides(rng, 1+rng.Intn(700))
		var want []oracleUnit
		for _, o := range set {
			want = append(want, oracleUnits(o)...)
		}
		var got []*bgp.Update
		units := appendUnits(s.units[:0], &set[0], 0)
		for i := 1; i < len(set); i++ {
			units = appendUnits(units, &set[i], i)
		}
		s.units = units
		s.announceUpdates(units, func(u *bgp.Update) error {
			got = append(got, wireCopy(t, u))
			return nil
		})
		if g, w := wireMultiset(t, got), wireMultiset(t, oracleAnnounceUpdates(want)); !slices.Equal(g, w) {
			t.Fatalf("trial %d (%d overrides): %d updates, oracle %d; sets differ", trial, len(set), len(g), len(w))
		}
		for i := range units {
			if !units[i].sent {
				t.Fatalf("trial %d: unit %v not marked sent", trial, units[i].o.Prefix)
			}
		}
		var prefixes []netip.Prefix
		for _, o := range set {
			prefixes = append(prefixes, o.Prefix)
		}
		wantWd := wireMultiset(t, oracleWithdrawUpdates(slices.Clone(prefixes)))
		if g := wireMultiset(t, withdrawUpdates(t, prefixes)); !slices.Equal(g, wantWd) {
			t.Fatalf("trial %d: withdrawals differ from the oracle", trial)
		}
	}
}

// A refused send marks nothing: announce reports only the overrides
// whose every unit went out, withdrawUpdates only the prefixes sent.
func TestBatcherFailedSendMarksNothing(t *testing.T) {
	set := randomOverrides(rand.New(rand.NewSource(7)), 300)
	var s injScratch
	units := unitsOf(set)
	n := 0
	s.announceUpdates(units, func(*bgp.Update) error {
		n++
		if n%2 == 0 {
			return fmt.Errorf("refused")
		}
		return nil
	})
	for i := 0; i < len(units); {
		end := i + 1
		for end < len(units) && end-i < batchSize && compareGroups(&units[i], &units[end]) == 0 {
			end++
		}
		for j := i; j < end; j++ {
			if units[j].sent != units[i].sent {
				t.Fatalf("one UPDATE's units disagree on sent")
			}
		}
		i = end
	}
	prefixes := make([]netip.Prefix, len(set))
	for i, o := range set {
		prefixes[i] = o.Prefix
	}
	done := s.withdrawUpdates(prefixes, func(*bgp.Update) error { return fmt.Errorf("down") })
	if len(done) != 0 {
		t.Errorf("withdrawUpdates reported %d prefixes sent over a refusing session", len(done))
	}
}

// TestAnnounceUpdatesWarmAllocs: once its scratch has grown, the
// batcher allocates nothing however many prefixes it sends.
func TestAnnounceUpdatesWarmAllocs(t *testing.T) {
	set := randomOverrides(rand.New(rand.NewSource(3)), 600)
	var s injScratch
	units := unitsOf(set)
	prefixes := make([]netip.Prefix, len(set))
	for i, o := range set {
		prefixes[i] = o.Prefix
	}
	nop := func(*bgp.Update) error { return nil }
	s.announceUpdates(units, nop)
	allocs := testing.AllocsPerRun(20, func() {
		s.announceUpdates(units, nop)
		s.withdrawUpdates(prefixes, nop)
	})
	if allocs != 0 {
		t.Errorf("warm batcher: %.1f allocs per run, want 0", allocs)
	}
}

// The delivery signature stays inline in a Go map (at most 128 bytes)
// and still tells apart sets that differ only past its inline slots.
func TestOverrideSigInlineAndExact(t *testing.T) {
	if n := unsafe.Sizeof(overrideSig{}); n > 128 {
		t.Errorf("overrideSig is %d bytes; a map stores values over 128 out of line", n)
	}
	set := func(lastPct int) *Override {
		o := &Override{Prefix: netip.MustParsePrefix("10.0.0.0/24")}
		for i := 0; i < rib.MaxMultipathSlots; i++ {
			nh := netip.AddrFrom4([4]byte{172, 20, 0, byte(i)})
			o.Multipath = append(o.Multipath, PathWeight{Via: &rib.Route{NextHop: nh}, WeightPct: 6})
		}
		o.Multipath[len(o.Multipath)-1].WeightPct = lastPct
		o.Via = o.Multipath[0].Via
		return o
	}
	if sigOf(set(10)) != sigOf(set(10)) {
		t.Error("equal wide sets have different signatures")
	}
	if sigOf(set(10)) == sigOf(set(11)) {
		t.Error("signatures equal across a weight change in the last slot")
	}
	beyond := set(10)
	beyond.Multipath = append(beyond.Multipath, PathWeight{Via: beyond.Via, WeightPct: 1})
	if sigOf(beyond) != sigOf(set(10)) {
		t.Error("a member past the last wire slot changed the signature")
	}
}
