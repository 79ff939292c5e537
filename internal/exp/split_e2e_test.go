package exp

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/rib"
)

// TestSplitOverrideEndToEnd drives a split override through the real
// stack: the injector announces a more-specific half over iBGP, the
// peering routers install it, and the dataplane steers half the
// aggregate's demand onto the detour interface.
func TestSplitOverrideEndToEnd(t *testing.T) {
	h := newTestHarness(t, testConfig(false)) // no controller: we inject by hand

	// Pick a private-preferred prefix with a transit alternate.
	var prefix netip.Prefix
	var alt *rib.Route
	for _, pi := range h.Scenario.Prefixes {
		if !pi.Prefix.Addr().Is4() {
			continue
		}
		routes := h.PoP.Table.Routes(pi.Prefix)
		if len(routes) < 2 || routes[0].PeerClass != rib.ClassPrivate {
			continue
		}
		for _, r := range routes[1:] {
			if r.PeerClass == rib.ClassTransit {
				prefix, alt = pi.Prefix, r
				break
			}
		}
		if alt != nil {
			break
		}
	}
	if alt == nil {
		t.Fatal("no suitable prefix")
	}
	organicIF := h.PoP.Table.Best(prefix).EgressIF

	inj, err := core.NewInjector(core.InjectorConfig{
		LocalAS:  h.Scenario.Topo.LocalAS,
		RouterID: netip.MustParseAddr("10.255.0.100"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	for _, router := range h.PoP.Routers() {
		if err := inj.AddRouterDialer(h.PoP.RouterIP(router), h.PoP.ControllerDialer(router)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inj.WaitEstablished(ctx); err != nil {
		t.Fatal(err)
	}

	lo, _, ok := rib.Split(prefix)
	if !ok {
		t.Fatal("prefix not splittable")
	}
	if _, err := inj.Sync([]core.Override{{
		Prefix:  lo,
		SplitOf: prefix,
		Via:     alt,
		FromIF:  organicIF,
		ToIF:    alt.EgressIF,
	}}); err != nil {
		t.Fatal(err)
	}
	// Wait for the half to land in the PoP table via the iBGP sessions.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if best := h.PoP.Table.Best(lo); best != nil && best.PeerClass == rib.ClassController {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	best := h.PoP.Table.Best(lo)
	if best == nil || best.PeerClass != rib.ClassController {
		t.Fatal("split half never installed")
	}

	stats, _ := h.Step()
	pt := stats.Prefix[prefix]
	if pt == nil {
		t.Fatal("no tick stats for the aggregate")
	}
	if !pt.HasSplit || !pt.Injected {
		t.Fatalf("tick did not split: %+v", pt)
	}
	if pt.SplitIF != alt.EgressIF {
		t.Errorf("split egress = if %d, want %d", pt.SplitIF, alt.EgressIF)
	}
	if pt.EgressIF != organicIF {
		t.Errorf("primary egress = if %d, want organic %d", pt.EgressIF, organicIF)
	}
	if pt.SplitBps <= 0 || pt.SplitBps > pt.DemandBps {
		t.Errorf("split share = %g of %g", pt.SplitBps, pt.DemandBps)
	}
	// The halves sum: interface loads include both contributions.
	if stats.IfLoadBps[alt.EgressIF] < pt.SplitBps {
		t.Errorf("detour interface load %g < split share %g",
			stats.IfLoadBps[alt.EgressIF], pt.SplitBps)
	}

	// Withdraw: the aggregate reverts to whole-prefix organic routing.
	if _, err := inj.Sync(nil); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && h.PoP.Table.Best(lo) != nil {
		time.Sleep(2 * time.Millisecond)
	}
	if h.PoP.Table.Best(lo) != nil {
		t.Fatal("split half not withdrawn")
	}
	stats, _ = h.Step()
	if stats.Prefix[prefix].HasSplit {
		t.Error("still splitting after withdraw")
	}
}
