package exp

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/rib"
)

// TestE13FleetIsolation asserts the fleet host's two claims: hosting is
// behaviorally invisible (identical decisions vs isolated processes)
// and fault-isolated (one PoP's BMP outage freezes only that PoP).
func TestE13FleetIsolation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	base := testConfig(true)
	base.Synth.Prefixes = 120
	base.Synth.EdgeASes = 25
	base.Synth.PublicPeers = 6
	base.Synth.RouteServerMembers = 8
	// Tight routes-staleness so the killed-BMP victim freezes within two
	// cycles; fail-back and flush kept out of the outage window.
	base.Health = core.HealthConfig{
		RoutesStaleAfter: 45 * time.Second,
		RoutesFailAfter:  time.Hour,
		BMPFlushAfter:    time.Hour,
	}
	res, err := E13FleetIsolation(ctx, fleetConfigs(base, 4, 2), 6, 4)
	if err != nil {
		t.Fatalf("E13 aborted: %v (result so far: %+v)", err, res)
	}
	t.Log(res.String())

	if res.PoPs != 4 {
		t.Fatalf("pops = %d, want 4", res.PoPs)
	}
	// Behavioral equivalence: every (pop, cycle) decision matched.
	if want := res.PoPs * 6; res.ComparedCycles != want || res.IdenticalCycles != want {
		t.Errorf("identical cycles = %d of %d compared, want %d; first mismatch: %s",
			res.IdenticalCycles, res.ComparedCycles, want, res.FirstMismatch)
	}
	if res.OverridesSeen == 0 {
		t.Error("no overrides compared; equivalence was vacuous (tighten provisioning)")
	}

	// Fault isolation: victim froze, siblings never left healthy.
	if res.VictimState != core.HealthFailStatic {
		t.Errorf("victim state = %v, want fail-static", res.VictimState)
	}
	if !res.VictimFroze {
		t.Error("victim's installed overrides changed while fail-static")
	}
	if len(res.SiblingStates) != 3 {
		t.Errorf("sibling states = %v, want 3 entries", res.SiblingStates)
	}
	if !res.SiblingsHealthy {
		t.Errorf("siblings left healthy during victim outage: %v", res.SiblingStates)
	}
	// The rollup reflects the worst member without smearing it onto
	// sibling rows (checked inside E13 via /v1/fleet/health).
	if res.FleetState != core.HealthFailStatic.String() {
		t.Errorf("fleet rollup = %q, want fail-static", res.FleetState)
	}
	if !strings.Contains(res.String(), "fleet rollup") {
		t.Errorf("String() = %q", res.String())
	}
}

// TestTwinCheckMismatchNamesPrefix: a twin mismatch names the first
// prefix whose decision differs, with both canonical lines, instead of
// quoting both whole sets; a cycle only one twin ran is a mismatch too.
func TestTwinCheckMismatchNamesPrefix(t *testing.T) {
	p, q := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	via := &rib.Route{NextHop: netip.MustParseAddr("172.20.0.9")}
	report := func(toIF int) *core.CycleReport {
		return &core.CycleReport{Overrides: []core.Override{
			{Prefix: q, Via: via, ToIF: 3},
			{Prefix: p, Via: via, ToIF: toIF},
		}}
	}
	var c TwinCheck
	c.compare("pop-a", 1, report(3), report(3))
	c.compare("pop-a", 2, nil, nil)
	c.compare("pop-a", 3, report(3), report(2))
	c.compare("pop-a", 4, report(3), nil)
	if c.ComparedCycles != 3 || c.IdenticalCycles != 1 || c.OverridesSeen != 4 {
		t.Errorf("counts = %+v, want 3 compared, 1 identical, 4 overrides seen", c)
	}
	want := `pop-a step 3: hosted vs isolated: 10.0.0.0/24: "10.0.0.0/24 172.20.0.9 3" vs "10.0.0.0/24 172.20.0.9 2"`
	if c.FirstMismatch != want {
		t.Errorf("FirstMismatch = %s\nwant %s", c.FirstMismatch, want)
	}
	var one TwinCheck
	one.compare("pop-a", 7, nil, report(3))
	if want := "pop-a step 7: hosted vs isolated: only one twin ran a cycle"; one.FirstMismatch != want {
		t.Errorf("FirstMismatch = %s, want %s", one.FirstMismatch, want)
	}
}
