package exp

import (
	"context"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/core"
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
