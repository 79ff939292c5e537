package exp

import (
	"context"
	"testing"
	"time"
)

// TestE18ShiftSmoke runs a reduced-scale E18: a 3-PoP fleet through a
// region-loss and an anycast re-homing episode, asserting the hosted
// and isolated twins decide identically and every shifted PoP's demand
// measurably moved and was absorbed.
func TestE18ShiftSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("E18 smoke builds six PoPs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	base := testConfig(true)
	base.Synth.Prefixes = 120
	base.Synth.EdgeASes = 25
	base.Synth.PublicPeers = 6
	base.Synth.RouteServerMembers = 8
	res, err := E18FleetShift(ctx, FleetShiftConfig{Base: base, PoPs: 3, EpisodeLen: 4 * time.Minute})
	if err != nil {
		t.Fatalf("E18 aborted: %v", err)
	}
	t.Log(res.String())

	if res.IdenticalCycles != res.ComparedCycles || res.ComparedCycles == 0 {
		t.Errorf("identical cycles = %d/%d; first mismatch: %s",
			res.IdenticalCycles, res.ComparedCycles, res.FirstMismatch)
	}
	if len(res.Episodes) != 2 {
		t.Fatalf("episodes = %d, want 2", len(res.Episodes))
	}
	for _, ep := range res.Episodes {
		for _, row := range ep.Rows {
			if !row.Healthy {
				t.Errorf("%s %s: left healthy during the shift window", ep.Kind, row.PoP)
			}
			if row.Mult > 1 && row.DemandRatio < 1+0.5*(row.Mult-1) {
				t.Errorf("%s %s: demand ratio %.2f, want >= %.2f (shift did not land)",
					ep.Kind, row.PoP, row.DemandRatio, 1+0.5*(row.Mult-1))
			}
			if row.Mult < 1 && row.DemandRatio > 1-0.5*(1-row.Mult) {
				t.Errorf("%s %s: demand ratio %.2f, want <= %.2f (loss did not drain)",
					ep.Kind, row.PoP, row.DemandRatio, 1-0.5*(1-row.Mult))
			}
		}
	}
	if !res.Pass() {
		t.Errorf("Pass() = false on a run with no individual failures:\n%s", res.String())
	}
}
