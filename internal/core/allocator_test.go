package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"edgefabric/internal/rib"
)

// testInventory builds a small PoP inventory:
//
//	if0: PNI to AS65010 (10G)   peer 172.20.0.1 private
//	if1: PNI to AS65011 (10G)   peer 172.20.0.2 private
//	if2: IXP port (10G)         peer 172.20.0.3 public, 172.20.0.4 public
//	if3: transit AS64601 (100G) peer 172.20.0.9 transit
func testInventory(t *testing.T) *Inventory {
	t.Helper()
	inv, err := NewInventory(
		[]PeerInfo{
			{Name: "pni-a", Addr: netip.MustParseAddr("172.20.0.1"), AS: 65010, Class: rib.ClassPrivate, InterfaceID: 0, Router: "pr1"},
			{Name: "pni-b", Addr: netip.MustParseAddr("172.20.0.2"), AS: 65011, Class: rib.ClassPrivate, InterfaceID: 1, Router: "pr1"},
			{Name: "ixp-a", Addr: netip.MustParseAddr("172.20.0.3"), AS: 65012, Class: rib.ClassPublic, InterfaceID: 2, Router: "pr2"},
			{Name: "ixp-b", Addr: netip.MustParseAddr("172.20.0.4"), AS: 65013, Class: rib.ClassPublic, InterfaceID: 2, Router: "pr2"},
			{Name: "transit", Addr: netip.MustParseAddr("172.20.0.9"), AS: 64601, Class: rib.ClassTransit, InterfaceID: 3, Router: "pr2"},
		},
		[]InterfaceInfo{
			{ID: 0, Name: "pni-a", CapacityBps: 10e9, Router: "pr1"},
			{ID: 1, Name: "pni-b", CapacityBps: 10e9, Router: "pr1"},
			{ID: 2, Name: "ixp", CapacityBps: 10e9, Router: "pr2"},
			{ID: 3, Name: "transit", CapacityBps: 100e9, Router: "pr2"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func route(prefix, peer string, class rib.PeerClass, egressIF int, path ...uint32) *rib.Route {
	r := &rib.Route{
		Prefix:    netip.MustParsePrefix(prefix),
		NextHop:   netip.MustParseAddr(peer),
		PeerAddr:  netip.MustParseAddr(peer),
		PeerClass: class,
		EgressIF:  egressIF,
		ASPath:    path,
	}
	rib.DefaultPolicy().Import(r)
	return r
}

// buildTable loads a table with n prefixes preferred via the AS65010 PNI
// (if0), each also reachable via transit (if3).
func buildTable(n int) *rib.Table {
	tab := rib.NewTable(rib.DefaultPolicy())
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		tab.Add(route(prefix, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	}
	return tab
}

func TestProjectBasics(t *testing.T) {
	tab := buildTable(4)
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 3e9,
		netip.MustParsePrefix("10.0.1.0/24"): 2e9,
		netip.MustParsePrefix("10.0.9.0/24"): 1e9, // no route
	}
	proj := Project(tab, demand)
	if got := proj.IfLoadBps[0]; got != 5e9 {
		t.Errorf("if0 load = %g, want 5e9", got)
	}
	if proj.UnroutedBps != 1e9 {
		t.Errorf("unrouted = %g", proj.UnroutedBps)
	}
	plan := proj.Plans[netip.MustParsePrefix("10.0.0.0/24")]
	if plan == nil || plan.Preferred.PeerClass != rib.ClassPrivate {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Alternates) != 1 || plan.Alternates[0].PeerClass != rib.ClassTransit {
		t.Errorf("alternates = %v", plan.Alternates)
	}
}

func TestProjectIgnoresControllerRoutes(t *testing.T) {
	tab := buildTable(1)
	p := netip.MustParsePrefix("10.0.0.0/24")
	// Install an override; projection must still attribute demand to
	// the organic preferred route.
	ctrl := &rib.Route{
		Prefix:    p,
		NextHop:   netip.MustParseAddr("172.20.0.9"),
		PeerAddr:  netip.MustParseAddr("10.255.0.100"),
		PeerClass: rib.ClassController,
		FromIBGP:  true,
		LocalPref: rib.PrefController,
		EgressIF:  3,
	}
	tab.Add(ctrl)
	proj := Project(tab, map[netip.Prefix]float64{p: 1e9})
	if got := proj.IfLoadBps[0]; got != 1e9 {
		t.Errorf("projection followed the override: if0 load = %g", got)
	}
	if proj.Plans[p].Preferred.PeerClass != rib.ClassPrivate {
		t.Errorf("preferred = %v", proj.Plans[p].Preferred)
	}
}

func TestAllocateDrainsOverload(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(10)
	// 12G of demand on a 10G PNI: 2G+ must move.
	demand := make(map[netip.Prefix]float64)
	for i := 0; i < 10; i++ {
		demand[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = 1.2e9
	}
	proj := Project(tab, demand)
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.95}, nil, nil)
	if len(res.Overrides) == 0 {
		t.Fatal("no overrides for a 120% loaded interface")
	}
	var movedBps float64
	for _, o := range res.Overrides {
		if o.FromIF != 0 {
			t.Errorf("override from if %d, want 0", o.FromIF)
		}
		if o.ToIF != 3 {
			t.Errorf("override to if %d, want transit", o.ToIF)
		}
		movedBps += o.RateBps
	}
	if remaining := 12e9 - movedBps; remaining > 0.95*10e9 {
		t.Errorf("moved %.2g, leaving %.2g > threshold", movedBps, remaining)
	}
	if len(res.ResidualOverloadBps) != 0 {
		t.Errorf("unexpected residual: %v", res.ResidualOverloadBps)
	}
	// Minimality-ish: should not move dramatically more than needed
	// (each prefix is 1.2G; excess is 2.5G → at most 3 moves).
	if len(res.Overrides) > 3 {
		t.Errorf("moved %d prefixes, want <= 3", len(res.Overrides))
	}
}

func TestAllocateNeverOverloadsTarget(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	// 30 prefixes on the overloaded PNI, alternates only on the small
	// IXP port (10G): the allocator must stop filling it at target.
	for i := 0; i < 30; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		tab.Add(route(prefix, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	}
	demand := make(map[netip.Prefix]float64)
	for i := 0; i < 30; i++ {
		demand[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = 1e9 // 30G total
	}
	proj := Project(tab, demand)
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.9}, nil, nil)
	var toIXP float64
	for _, o := range res.Overrides {
		if o.ToIF != 2 {
			t.Fatalf("unexpected target if %d", o.ToIF)
		}
		toIXP += o.RateBps
	}
	if toIXP > 0.9*10e9+1 {
		t.Errorf("detoured %.3g onto a 10G port at threshold 0.9", toIXP)
	}
	// The PNI cannot be drained fully: residual overload must be
	// reported.
	if len(res.ResidualOverloadBps) == 0 {
		t.Error("expected residual overload")
	}
}

func TestAllocatePrefersPeerOverTransit(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	p := "10.0.0.0/24"
	tab.Add(route(p, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(p, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	tab.Add(route(p, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	demand := map[netip.Prefix]float64{netip.MustParsePrefix(p): 12e9}
	// 12G won't fit anywhere at threshold 0.95 except transit; with a
	// smaller demand both fit and the public peer must win.
	demand[netip.MustParsePrefix(p)] = 11e9
	proj := Project(tab, demand)
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.95}, nil, nil)
	// 11G > 0.95*10G on if2, so it's infeasible; transit is the only
	// feasible target.
	if len(res.Overrides) != 1 || res.Overrides[0].ToIF != 3 {
		t.Fatalf("overrides = %+v", res.Overrides)
	}

	// Two 4G prefixes on the PNI (80% util) with threshold 0.7: one
	// must move, and the IXP port (fits at 4G ≤ 7G) is preferred over
	// transit.
	p2 := "10.0.1.0/24"
	tab.Add(route(p2, "172.20.0.1", rib.ClassPrivate, 0, 65010))
	tab.Add(route(p2, "172.20.0.3", rib.ClassPublic, 2, 65012, 65010))
	tab.Add(route(p2, "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	proj = Project(tab, map[netip.Prefix]float64{
		netip.MustParsePrefix(p):  4e9,
		netip.MustParsePrefix(p2): 4e9,
	})
	res = AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.7}, nil, nil)
	if len(res.Overrides) != 1 {
		t.Fatalf("overrides = %+v", res.Overrides)
	}
	if res.Overrides[0].Via.PeerClass != rib.ClassPublic {
		t.Errorf("detour class = %v, want public peer preferred over transit",
			res.Overrides[0].Via.PeerClass)
	}
}

func TestAllocateNoAlternatesResidual(t *testing.T) {
	inv := testInventory(t)
	tab := rib.NewTable(rib.DefaultPolicy())
	tab.Add(route("10.0.0.0/24", "172.20.0.1", rib.ClassPrivate, 0, 65010))
	proj := Project(tab, map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 20e9,
	})
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{}, nil, nil)
	if len(res.Overrides) != 0 {
		t.Errorf("overrides = %v", res.Overrides)
	}
	if res.ResidualOverloadBps[0] <= 0 {
		t.Error("expected residual overload on if0")
	}
}

func TestAllocateMaxDetours(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(20)
	demand := make(map[netip.Prefix]float64)
	for i := 0; i < 20; i++ {
		demand[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = 1e9
	}
	proj := Project(tab, demand)
	res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.5, MaxDetours: 2}, nil, nil)
	if len(res.Overrides) != 2 {
		t.Errorf("overrides = %d, want 2 (capped)", len(res.Overrides))
	}
	if len(res.ResidualOverloadBps) == 0 {
		t.Error("cap left overload unresolved; residual should be reported")
	}
}

func TestAllocateStrategiesDiffer(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(50)
	demand := make(map[netip.Prefix]float64)
	// Mixed sizes: a few big prefixes, many small.
	for i := 0; i < 50; i++ {
		bps := 0.1e9
		if i < 5 {
			bps = 1.5e9
		}
		demand[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = bps
	}
	proj := Project(tab, demand)
	largest := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.95, Select: SelectLargestFirst}, nil, nil)
	random := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.95, Select: SelectRandom}, nil, nil)
	if len(largest.Overrides) == 0 || len(random.Overrides) == 0 {
		t.Fatal("both strategies should detour something")
	}
	if len(largest.Overrides) > len(random.Overrides) {
		t.Errorf("largest-first used %d overrides, random used %d",
			len(largest.Overrides), len(random.Overrides))
	}
}

func TestAllocateNoOverloadNoOverrides(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(5)
	demand := map[netip.Prefix]float64{
		netip.MustParsePrefix("10.0.0.0/24"): 1e9,
	}
	res := AllocateStickyTraced(Project(tab, demand), inv, AllocatorConfig{}, nil, nil)
	if len(res.Overrides) != 0 || len(res.ResidualOverloadBps) != 0 {
		t.Errorf("idle PoP produced %+v", res)
	}
}

// Property: for random demand matrices, allocation (a) never overloads a
// detour target beyond Target, (b) moves each prefix at most once,
// (c) every interface ends below threshold or is reported residual.
func TestAllocateInvariantsQuick(t *testing.T) {
	inv := testInventory(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := rib.NewTable(rib.DefaultPolicy())
		n := 20 + rng.Intn(40)
		demand := make(map[netip.Prefix]float64)
		for i := 0; i < n; i++ {
			prefix := fmt.Sprintf("10.0.%d.0/24", i)
			p := netip.MustParsePrefix(prefix)
			// Preferred on one of the two PNIs.
			pni := rng.Intn(2)
			peerAddr := []string{"172.20.0.1", "172.20.0.2"}[pni]
			peerAS := []uint32{65010, 65011}[pni]
			tab.Add(route(prefix, peerAddr, rib.ClassPrivate, pni, peerAS))
			// Random subset of alternates.
			if rng.Intn(2) == 0 {
				tab.Add(route(prefix, "172.20.0.3", rib.ClassPublic, 2, 65012, peerAS))
			}
			if rng.Intn(4) != 0 {
				tab.Add(route(prefix, "172.20.0.9", rib.ClassTransit, 3, 64601, peerAS))
			}
			demand[p] = float64(rng.Intn(2000)) * 1e6
		}
		cfg := AllocatorConfig{Threshold: 0.6 + rng.Float64()*0.35}
		proj := Project(tab, demand)
		res := AllocateStickyTraced(proj, inv, cfg, nil, nil)

		// Replay the moves.
		load := make(map[int]float64)
		for id, bps := range proj.IfLoadBps {
			load[id] = bps
		}
		seen := make(map[netip.Prefix]bool)
		for _, o := range res.Overrides {
			if seen[o.Prefix] {
				return false // (b)
			}
			seen[o.Prefix] = true
			load[o.FromIF] -= o.RateBps
			load[o.ToIF] += o.RateBps
			info, ok := inv.InterfaceByID(o.ToIF)
			if !ok {
				return false
			}
			target := cfg.Target
			if target == 0 {
				target = cfg.Threshold
			}
			if load[o.ToIF] > target*info.CapacityBps+1 {
				return false // (a)
			}
		}
		for _, info := range inv.Interfaces() {
			if load[info.ID] > cfg.Threshold*info.CapacityBps+1 {
				if _, reported := res.ResidualOverloadBps[info.ID]; !reported {
					return false // (c)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyStrings(t *testing.T) {
	if SelectBestAlternative.String() != "best-alternative" ||
		SelectLargestFirst.String() != "largest-first" ||
		SelectRandom.String() != "random" {
		t.Error("SelectStrategy names wrong")
	}
	if TargetPreferPeerMostSpare.String() != "prefer-peer-most-spare" ||
		TargetFirstFeasible.String() != "first-feasible" ||
		TargetMostSpare.String() != "most-spare" {
		t.Error("TargetStrategy names wrong")
	}
}

func TestInventoryValidation(t *testing.T) {
	if _, err := NewInventory(nil, []InterfaceInfo{{ID: 0, CapacityBps: 0}}); err == nil {
		t.Error("zero capacity should fail")
	}
	for _, id := range []int{-1, maxInterfaceID + 1} {
		if _, err := NewInventory(nil, []InterfaceInfo{{ID: id, CapacityBps: 1e9}}); err == nil {
			t.Errorf("interface ID %d should fail", id)
		}
	}
	ifs := []InterfaceInfo{{ID: 0, CapacityBps: 1e9}}
	if _, err := NewInventory([]PeerInfo{{Name: "x", InterfaceID: 5}}, ifs); err == nil {
		t.Error("invalid peer addr should fail")
	}
	addr := netip.MustParseAddr("172.20.0.1")
	if _, err := NewInventory([]PeerInfo{{Name: "x", Addr: addr, InterfaceID: 5}}, ifs); err == nil {
		t.Error("unknown interface should fail")
	}
	inv, err := NewInventory([]PeerInfo{{Name: "x", Addr: addr, InterfaceID: 0}}, ifs)
	if err != nil {
		t.Fatal(err)
	}
	alias := netip.MustParseAddr("2001:db8::1")
	if err := inv.RegisterPeerAlias(alias, addr); err != nil {
		t.Fatal(err)
	}
	if p, ok := inv.PeerByAddr(alias); !ok || p.Name != "x" {
		t.Error("alias lookup failed")
	}
	if err := inv.RegisterPeerAlias(alias, addr); err == nil {
		t.Error("duplicate alias should fail")
	}
	if err := inv.RegisterPeerAlias(netip.MustParseAddr("2001:db8::2"), netip.MustParseAddr("9.9.9.9")); err == nil {
		t.Error("alias to unknown peer should fail")
	}
	if got := len(inv.Peers()); got != 1 {
		t.Errorf("Peers() = %d entries (aliases must not duplicate)", got)
	}
}

func BenchmarkAllocate10k(b *testing.B) {
	inv, err := NewInventory(
		[]PeerInfo{
			{Name: "pni", Addr: netip.MustParseAddr("172.20.0.1"), Class: rib.ClassPrivate, InterfaceID: 0},
			{Name: "transit", Addr: netip.MustParseAddr("172.20.0.9"), Class: rib.ClassTransit, InterfaceID: 1},
		},
		[]InterfaceInfo{
			{ID: 0, Name: "pni", CapacityBps: 100e9},
			{ID: 1, Name: "transit", CapacityBps: 1000e9},
		})
	if err != nil {
		b.Fatal(err)
	}
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64)
	for i := 0; i < 10000; i++ {
		prefix := fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)
		tab.Add(route(prefix, "172.20.0.1", rib.ClassPrivate, 0, 65010))
		tab.Add(route(prefix, "172.20.0.9", rib.ClassTransit, 1, 64601, 65010))
		demand[netip.MustParsePrefix(prefix)] = 12e6 // 120G total on 100G
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj := Project(tab, demand)
		res := AllocateStickyTraced(proj, inv, AllocatorConfig{Threshold: 0.95}, nil, nil)
		if len(res.Overrides) == 0 {
			b.Fatal("expected overrides")
		}
	}
}

// TestAllocateReadsCapacityPerCall: the allocator snapshots interface
// capacities once per call and never across calls, so a capacity change
// (an OnCapacity event, a brownout) is seen by the very next cycle.
func TestAllocateReadsCapacityPerCall(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(10)
	demand := map[netip.Prefix]float64{}
	for i := 0; i < 10; i++ {
		demand[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = 0.9e9 // 9G on the 10G PNI
	}
	proj := Project(tab, demand)
	cfg := AllocatorConfig{Threshold: 0.95}
	if res := AllocateStickyTraced(proj, inv, cfg, nil, nil); len(res.Overrides) != 0 {
		t.Fatalf("90%% utilization produced %d overrides", len(res.Overrides))
	}
	if err := inv.SetInterfaceCapacity(0, 5e9); err != nil {
		t.Fatal(err)
	}
	res := AllocateStickyTraced(proj, inv, cfg, nil, nil)
	if len(res.Overrides) == 0 {
		t.Fatal("capacity halved between calls, second call still saw the old one")
	}
	if left := 9e9 - res.DetouredBps; left > 0.95*5e9 {
		t.Errorf("drained to %.2fG, want <= %.2fG (95%% of the new capacity)", left/1e9, 0.95*5)
	}
}

// TestAllocateStampsDoNotLeak: the allocator marks a plan it detours by
// stamping the plan record, and a persistent Projector hands the same
// records to successive projections — so a stamp left by one call must
// never read as "already moved" in another. Calls over projections that
// share every plan decide exactly as calls over fresh ones.
func TestAllocateStampsDoNotLeak(t *testing.T) {
	inv := testInventory(t)
	tab := buildTable(10)
	demand := map[netip.Prefix]float64{}
	for i := 0; i < 10; i++ {
		demand[netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))] = 1.2e9 // 12G on the 10G PNI
	}
	cfg := AllocatorConfig{Threshold: 0.95}
	fresh := func(prior OverrideSet) *AllocResult {
		return AllocateStickyTraced(Project(tab, demand), inv, cfg, prior, nil)
	}

	pj := &Projector{Workers: 1}
	first, second := pj.Project(tab, demand), pj.Project(tab, demand)
	for p, plan := range first.Plans {
		if second.Plans[p] != plan {
			t.Fatalf("%v: plan not shared between the two projections", p)
		}
	}
	got1 := AllocateStickyTraced(first, inv, cfg, nil, nil)
	if len(got1.Overrides) == 0 {
		t.Fatal("no overrides: nothing was stamped")
	}
	if want := fresh(nil); !reflect.DeepEqual(got1, want) {
		t.Fatalf("first call: %+v, fresh %+v", got1, want)
	}
	// Same plans, now stamped, through the no-prior path again and
	// through the sticky pass.
	if got := AllocateStickyTraced(second, inv, cfg, nil, nil); !reflect.DeepEqual(got, got1) {
		t.Fatalf("second projection over stamped plans: %+v, want %+v", got, got1)
	}
	prior := NewOverrideSet(got1.Overrides[:len(got1.Overrides)/2])
	got2 := AllocateStickyTraced(second, inv, cfg, prior, nil)
	if want := fresh(prior); !reflect.DeepEqual(got2, want) || got2.Retained == 0 {
		t.Fatalf("sticky call over stamped plans: %+v, fresh %+v", got2, want)
	}
}
