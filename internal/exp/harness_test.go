package exp

import (
	"net/netip"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// testConfig builds a small scenario whose PNIs are deliberately
// underprovisioned so that peak demand overloads them.
func testConfig(controller bool) HarnessConfig {
	return HarnessConfig{
		Synth: netsim.SynthConfig{
			Seed:               21,
			Prefixes:           250,
			EdgeASes:           40,
			PrivatePeers:       4,
			PublicPeers:        8,
			RouteServerMembers: 10,
			Transits:           2,
			Routers:            2,
			PeakBps:            100e9,
			PNIHeadroomMin:     0.6,
			PNIHeadroomMax:     0.9, // every PNI under peak demand
		},
		Demand:            netsim.DemandConfig{PeakBps: 100e9, NoiseSigma: 0.05},
		ControllerEnabled: controller,
		Start:             time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC), // peak hour
	}
}

func TestHarnessClosedLoop(t *testing.T) {
	h := newTestHarness(t, testConfig(true))

	var lastStats *netsim.TickStats
	var lastReport *core.CycleReport
	overridesSeen := false
	// A few warmup ticks let sFlow rates accumulate before judging.
	h.Run(10*30*time.Second, func(s *netsim.TickStats, r *core.CycleReport) {
		lastStats = s
		if r != nil {
			lastReport = r
			if len(r.Overrides) > 0 {
				overridesSeen = true
			}
		}
	})
	if lastReport == nil {
		t.Fatal("controller never cycled")
	}
	if !overridesSeen {
		t.Fatal("underprovisioned PNIs at peak produced no overrides")
	}
	// After convergence, drops should be (near) zero: Edge Fabric keeps
	// interfaces below capacity.
	if lastStats.TotalDropsBps() > 0.01*lastStats.TotalDemandBps() {
		t.Errorf("drops %.3g vs demand %.3g with controller active",
			lastStats.TotalDropsBps(), lastStats.TotalDemandBps())
	}
	// Overrides are live in the PoP table (injected over real BGP).
	if !overridesInTable(h) {
		t.Error("no controller routes present in the PoP table")
	}
}

func overridesInTable(h *Harness) bool {
	found := false
	for p := range h.Controller.Installed() {
		if best := h.PoP.Table.Best(p); best != nil && best.FromIBGP {
			found = true
		}
	}
	return found
}

func TestHarnessBaselineDropsWithoutController(t *testing.T) {
	h := newTestHarness(t, testConfig(false))
	if h.Controller != nil {
		t.Fatal("controller should be nil")
	}
	var worstDrops float64
	h.Run(5*30*time.Second, func(s *netsim.TickStats, _ *core.CycleReport) {
		if d := s.TotalDropsBps(); d > worstDrops {
			worstDrops = d
		}
	})
	if worstDrops == 0 {
		t.Error("underprovisioned PNIs at peak should drop without Edge Fabric")
	}
}

func TestInventoryFromTopology(t *testing.T) {
	sc, err := netsim.Synthesize(testConfig(false).Synth)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := InventoryFromTopology(sc.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(inv.Interfaces()), len(sc.Topo.Interfaces); got != want {
		t.Errorf("interfaces = %d, want %d", got, want)
	}
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		info, ok := inv.PeerByAddr(p.Addr)
		if !ok || info.InterfaceID != p.InterfaceID {
			t.Errorf("peer %s missing or wrong: %+v", p.Name, info)
		}
		if alias := netsim.V6AliasFor(p.Addr); alias != p.Addr {
			if _, ok := inv.PeerByAddr(alias); !ok {
				t.Errorf("v6 alias for %s not registered", p.Name)
			}
		}
	}
}

// The harness may let the next tick route only once the PoP holds what
// the cycle decided: a set whose weights (or a whole-prefix move whose
// next hop) differ from the converged table is not applied yet.
func TestOverridesAppliedComparesWeights(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/24")
	pni, ixp, transit := netip.MustParseAddr("172.20.0.1"), netip.MustParseAddr("172.20.0.3"), netip.MustParseAddr("172.20.0.9")
	tab := rib.NewTable(rib.DefaultPolicy())
	tab.Add(&rib.Route{Prefix: p, NextHop: pni, PeerAddr: pni, PeerClass: rib.ClassPrivate, ASPath: []uint32{65010}})
	member := func(slot, pct int, nh netip.Addr) *rib.Route {
		return &rib.Route{
			Prefix: p, NextHop: nh, PeerAddr: netsim.ControllerPathAddr(slot), PeerClass: rib.ClassController,
			FromIBGP: true, LocalPref: rib.PrefController,
			Communities: []uint32{rib.MultipathSlotCommunity(slot), rib.MultipathWeightCommunity(pct)},
		}
	}
	tab.Add(member(0, 60, transit))
	tab.Add(member(1, 40, ixp))
	h := &Harness{PoP: &netsim.PoP{Table: tab}}
	set := func(w0, w1 int) *core.CycleReport {
		return &core.CycleReport{Overrides: []core.Override{{Prefix: p, Multipath: []core.PathWeight{
			{Via: &rib.Route{NextHop: transit}, WeightPct: w0},
			{Via: &rib.Route{NextHop: ixp}, WeightPct: w1},
		}}}}
	}
	if !h.overridesApplied(set(60, 40)) {
		t.Error("the converged set reads as not applied")
	}
	if h.overridesApplied(set(70, 30)) {
		t.Error("a re-weighted set reads as applied before the table has it")
	}
	if h.overridesApplied(&core.CycleReport{}) {
		t.Error("a stale set reads as applied after the report dropped it")
	}

	// k = 1: a whole-prefix move to another path.
	tab.Remove(p, netsim.ControllerPathAddr(1))
	tab.Add(&rib.Route{Prefix: p, NextHop: transit, PeerAddr: netsim.ControllerAddr, PeerClass: rib.ClassController,
		FromIBGP: true, LocalPref: rib.PrefController})
	move := func(nh netip.Addr) *core.CycleReport {
		return &core.CycleReport{Overrides: []core.Override{{Prefix: p, Via: &rib.Route{NextHop: nh}}}}
	}
	if !h.overridesApplied(move(transit)) {
		t.Error("the converged move reads as not applied")
	}
	if h.overridesApplied(move(ixp)) {
		t.Error("a move to another path reads as applied before the table has it")
	}
}

// TestDecisionOfComparesFullDecision pins the one decision form the twin
// check and the fail-static checks compare: prefix order does not
// matter, but a moved next hop, a moved interface, a re-weighted or a
// shrunk member set each count as a change, where a comparison of
// prefix sets alone would call them equal.
func TestDecisionOfComparesFullDecision(t *testing.T) {
	p, q := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	pni, ixp, transit := netip.MustParseAddr("172.20.0.1"), netip.MustParseAddr("172.20.0.3"), netip.MustParseAddr("172.20.0.9")
	via := func(nh netip.Addr) *rib.Route { return &rib.Route{NextHop: nh} }
	set := func(w0, w1 int) core.Override {
		return core.Override{Prefix: p, Via: via(transit), ToIF: 3, Multipath: []core.PathWeight{
			{Via: via(transit), ToIF: 3, WeightPct: w0},
			{Via: via(ixp), ToIF: 2, WeightPct: w1},
		}}
	}
	move := core.Override{Prefix: q, Via: via(ixp), ToIF: 2}
	base := []core.Override{set(60, 40), move}
	cases := []struct {
		name string
		b    []core.Override
		same bool
	}{
		{"same overrides in another order", []core.Override{move, set(60, 40)}, true},
		{"re-weighted member set", []core.Override{set(70, 30), move}, false},
		{"moved next hop", []core.Override{set(60, 40), {Prefix: q, Via: via(pni), ToIF: 2}}, false},
		{"moved interface", []core.Override{set(60, 40), {Prefix: q, Via: via(ixp), ToIF: 1}}, false},
		{"member dropped", []core.Override{{Prefix: p, Via: via(transit), ToIF: 3, Multipath: set(60, 40).Multipath[:1]}, move}, false},
		{"override withdrawn", []core.Override{move}, false},
	}
	for _, c := range cases {
		if got := decisionOf(c.b) == decisionOf(base); got != c.same {
			t.Errorf("%s: same decision = %v, want %v", c.name, got, c.same)
		}
	}
	installed := map[netip.Prefix]core.Override{q: move, p: set(60, 40)}
	if installedDecision(installed) != decisionOf(base) {
		t.Error("an installed map renders differently from the same overrides as a report")
	}
}
