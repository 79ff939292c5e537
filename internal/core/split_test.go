package core

import (
	"net/netip"
	"testing"

	"edgefabric/internal/rib"
)

// splitFixture: one 8G prefix on a 10G PNI whose only alternate is a 10G
// IXP port carrying 5G of other traffic. At target 0.95 the whole prefix
// cannot move (5+8 > 9.5) but half of it can (5+4 ≤ 9.5); threshold 0.7
// marks the PNI (80%) overloaded.
func splitFixture(t *testing.T) (*Inventory, *rib.Table, map[netip.Prefix]float64) {
	t.Helper()
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	big := "10.0.0.0/24"
	tab.Add(route(big, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(big, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	// Filler on the IXP port: preferred there, no alternates.
	filler := "10.0.9.0/24"
	tab.Add(route(filler, "172.20.0.3", rib.ClassPublic, 2, 65012, 65040))
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix(big):    8e9,
		netip.MustParsePrefix(filler): 5e9,
	}
	return inv, tab, demand
}

func TestAllocateSplitMovesHalf(t *testing.T) {
	inv, tab, demand := splitFixture(t)
	proj := Project(tab, demand)

	// Without splitting: nothing fits, residual overload.
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.7, Target: 0.95}, nil, nil)
	if len(res.Overrides) != 0 || len(res.ResidualOverloadBps) == 0 {
		t.Fatalf("without split: %+v", res)
	}

	// With splitting: half the big prefix moves via a /25.
	res = AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.7, Target: 0.95, AllowSplit: true}, nil, nil)
	if len(res.Overrides) != 1 {
		t.Fatalf("with split: %+v", res.Overrides)
	}
	o := res.Overrides[0]
	if o.Prefix.String() != "10.0.0.0/25" {
		t.Errorf("split prefix = %s, want 10.0.0.0/25", o.Prefix)
	}
	if o.SplitOf != netip.MustParsePrefix("10.0.0.0/24") {
		t.Errorf("SplitOf = %s", o.SplitOf)
	}
	if o.RateBps != 4e9 {
		t.Errorf("split rate = %g, want half of 8G", o.RateBps)
	}
	if o.ToIF != 2 {
		t.Errorf("split target = if %d", o.ToIF)
	}
	// PNI drops from 8G to 4G (40% of 10G < 70% threshold). The IXP
	// port may legitimately appear as residual: Target 0.95 allows
	// filling it past the 0.7 alarm threshold.
	if _, over := res.ResidualOverloadBps[0]; over {
		t.Errorf("PNI still residual after split: %v", res.ResidualOverloadBps)
	}
}

func TestAllocateSplitRespectsTargetCapacity(t *testing.T) {
	inv, tab, demand := splitFixture(t)
	// Fill the IXP port almost completely: even half doesn't fit.
	demand[netip.MustParsePrefix("10.0.9.0/24")] = 9.4e9
	proj := Project(tab, demand)
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.95, AllowSplit: true}, nil, nil)
	for _, o := range res.Overrides {
		if o.ToIF == 2 && o.RateBps > 0.95*10e9-9.4e9 {
			t.Errorf("split overloaded the IXP port: %+v", o)
		}
	}
}

func TestAllocateStickyRetainsSplit(t *testing.T) {
	inv, tab, demand := splitFixture(t)
	cfg := AllocatorConfig{Threshold: 0.7, Target: 0.95, AllowSplit: true}
	first := AllocateStickyTraced(Project(tab, demand), inv, cfg, nil, nil)
	if len(first.Overrides) != 1 || !first.Overrides[0].SplitOf.IsValid() {
		t.Fatalf("setup: %+v", first.Overrides)
	}
	prior := OverrideSet{first.Overrides[0]}
	second := AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	if second.Retained != 1 {
		t.Fatalf("retained = %d, overrides %+v", second.Retained, second.Overrides)
	}
	if second.Overrides[0].Prefix != first.Overrides[0].Prefix {
		t.Errorf("retained different prefix: %s", second.Overrides[0].Prefix)
	}
	if second.Overrides[0].RateBps != 4e9 {
		t.Errorf("retained rate = %g", second.Overrides[0].RateBps)
	}
}

func TestAllocateSplitUnsplittablePrefix(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	// A /31 cannot split further.
	tab.Add(route("10.0.0.0/31", "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route("10.0.0.0/31", "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	tab.Add(route("10.0.9.0/24", "172.20.0.3", rib.ClassPublic, 2, 65012, 65040))
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/31"): 8e9,
		netip.MustParsePrefix("10.0.9.0/24"): 6e9,
	}
	res := AllocateStickyTraced(Project(tab, demand), inv, AllocatorConfig{Threshold: 0.7, Target: 0.95, AllowSplit: true}, nil, nil)
	for _, o := range res.Overrides {
		if o.SplitOf.IsValid() {
			t.Errorf("/31 was split: %+v", o)
		}
	}
}
