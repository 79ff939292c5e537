package core

import (
	"fmt"
	"net/netip"
	"testing"

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
	for _, o := range overrides {
		units = append(units, announceUnits(o)...)
	}
	return units
}

func TestAnnounceUpdatesBatching(t *testing.T) {
	// 450 same-next-hop overrides → 3 updates of ≤200 NLRI.
	updates := announceUpdates(unitsOf(batchOverrides(450, "172.20.0.9")))
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
	updates := announceUpdates(unitsOf(append(a, b...)))
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
	updates := announceUpdates(unitsOf([]Override{v6, v4}))
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
	updates := withdrawUpdates(prefixes)
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

	updates := announceUpdates(unitsOf([]Override{plain, perf, split}))
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
	if got := withdrawUpdates(nil); len(got) != 0 {
		t.Errorf("updates = %v", got)
	}
	if got := announceUpdates(nil); len(got) != 0 {
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
	updates := announceUpdates(announceUnits(o))
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
