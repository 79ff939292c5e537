package core

import (
	"fmt"
	"net/netip"
	"testing"

	"edgefabric/internal/rib"
)

// stickyFixture: 10 prefixes on an overloaded PNI, two possible detour
// targets (IXP if2 and transit if3).
func stickyFixture(t *testing.T) (*Inventory, *rib.Table, map[netip.Prefix]float64) {
	t.Helper()
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64)
	for i := 0; i < 10; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		tab.Add(route(prefix, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
		tab.Add(route(prefix, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
		demand[netip.MustParsePrefix(prefix)] = 1.2e9
	}
	return inv, tab, demand
}

func TestAllocateStickyRetainsDetours(t *testing.T) {
	inv, tab, demand := stickyFixture(t)
	cfg := AllocatorConfig{Threshold: 0.95}
	first := AllocateStickyTraced(Project(tab, demand), inv, cfg, nil, nil)
	if len(first.Overrides) == 0 {
		t.Fatal("no initial overrides")
	}
	prior := NewOverrideSet(first.Overrides)

	// Demand wiggles slightly; a fresh stateless run could pick
	// different prefixes, but the sticky run must keep the same set.
	for p := range demand {
		demand[p] *= 1.01
	}
	second := AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	if second.Retained == 0 {
		t.Fatal("nothing retained")
	}
	for _, o := range second.Overrides[:second.Retained] {
		old, ok := prior.Lookup(o.Prefix)
		if !ok {
			t.Errorf("retained override for %s was not in prior", o.Prefix)
			continue
		}
		if o.Via.PeerAddr != old.Via.PeerAddr {
			t.Errorf("%s retained onto %s, had %s", o.Prefix, o.Via.PeerAddr, old.Via.PeerAddr)
		}
	}
}

func TestAllocateStickyReleasesWhenOverloadGone(t *testing.T) {
	inv, tab, demand := stickyFixture(t)
	cfg := AllocatorConfig{Threshold: 0.95}
	first := AllocateStickyTraced(Project(tab, demand), inv, cfg, nil, nil)
	prior := NewOverrideSet(first.Overrides)
	// Demand collapses: no interface is hot, every detour must lapse.
	for p := range demand {
		demand[p] = 0.1e9
	}
	res := AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	if len(res.Overrides) != 0 || res.Retained != 0 {
		t.Errorf("detours retained with no overload: %+v", res.Overrides)
	}
}

func TestAllocateStickyRespectsFeasibility(t *testing.T) {
	inv, tab, demand := stickyFixture(t)
	cfg := AllocatorConfig{Threshold: 0.95}
	first := AllocateStickyTraced(Project(tab, demand), inv, cfg, nil, nil)
	prior := NewOverrideSet(first.Overrides)
	// The previously-used detour target becomes saturated by growing
	// every prefix hugely: retention must not overload it.
	for p := range demand {
		demand[p] = 40e9
	}
	res := AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	for _, o := range res.Overrides {
		info, _ := inv.InterfaceByID(o.ToIF)
		if o.RateBps > cfg.Threshold*info.CapacityBps {
			t.Errorf("override %s (%.1fG) exceeds target capacity %s", o.Prefix, o.RateBps/1e9, info.Name)
		}
	}
}

func TestAllocateStickyNoStickyFlag(t *testing.T) {
	inv, tab, demand := stickyFixture(t)
	cfg := AllocatorConfig{Threshold: 0.95, NoSticky: true}
	first := AllocateStickyTraced(Project(tab, demand), inv, cfg, nil, nil)
	prior := NewOverrideSet(first.Overrides)
	res := AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	if res.Retained != 0 {
		t.Errorf("NoSticky retained %d", res.Retained)
	}
}

// A split override is keyed by the more-specific half with SplitOf set;
// retention must look the demand up under the aggregate's plan and move
// only half the rate (rateShare = 0.5).
func TestAllocateStickySplitRetention(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	agg := netip.MustParsePrefix("10.0.0.0/24")
	tab.Add(route(agg.String(), "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(agg.String(), "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	// 22G on the 10G PNI: too big for any whole-prefix detour, the
	// situation the split pass exists for.
	demand := map[netip.Prefix]float64{agg: 22e9}
	cfg := AllocatorConfig{Threshold: 0.95, AllowSplit: true}

	proj := Project(tab, demand)
	transit := proj.Plans[agg].Alternates[0]
	lo, _, ok := rib.Split(agg)
	if !ok {
		t.Fatal("split failed")
	}
	prior := OverrideSet{
		{Prefix: lo, SplitOf: agg, Via: transit, FromIF: 0, ToIF: 3, RateBps: 11e9},
	}
	res := AllocateStickyTraced(proj, inv, cfg, prior, nil)
	if res.Retained != 1 {
		t.Fatalf("retained = %d, want 1 (overrides %+v)", res.Retained, res.Overrides)
	}
	if len(res.Overrides) != 1 {
		t.Fatalf("overrides = %+v, want only the retained split half", res.Overrides)
	}
	o := res.Overrides[0]
	if o.Prefix != lo || o.SplitOf != agg {
		t.Errorf("retained override keys = %s (SplitOf %s), want %s (SplitOf %s)", o.Prefix, o.SplitOf, lo, agg)
	}
	if o.RateBps != 11e9 {
		t.Errorf("retained rate = %g, want half the aggregate's 22e9", o.RateBps)
	}
	if res.DetouredBps != 11e9 {
		t.Errorf("detoured = %g, want 11e9", res.DetouredBps)
	}
	// Load bookkeeping: the PNI keeps the other half (11G > 9.5G
	// threshold), which the allocator cannot fix — the aggregate is
	// marked moved, so no re-move or second split may appear.
	if got := res.ResidualOverloadBps[0]; got <= 0 {
		t.Errorf("residual on if0 = %g, want > 0 (half the demand stays)", got)
	}
}

func TestAllocateStickyDropsVanishedRoute(t *testing.T) {
	inv, tab, demand := stickyFixture(t)
	cfg := AllocatorConfig{Threshold: 0.95}
	first := AllocateStickyTraced(Project(tab, demand), inv, cfg, nil, nil)
	if len(first.Overrides) == 0 {
		t.Fatal("no initial overrides")
	}
	prior := NewOverrideSet(first.Overrides)
	// The detour peer's session dies: its routes vanish.
	tab.RemovePeer(first.Overrides[0].Via.PeerAddr)
	res := AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	for _, o := range res.Overrides {
		if o.Via.PeerAddr == first.Overrides[0].Via.PeerAddr {
			t.Errorf("override retained onto a withdrawn route: %+v", o)
		}
	}
}
