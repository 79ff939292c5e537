package exp

import (
	"strings"
	"testing"

	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// TestE14SmallScale runs the scale experiment at a toy size: the
// mechanics (direct RIB load, delta cycles, stats plumbing) are
// identical to the million-prefix run, only the numbers differ.
func TestE14SmallScale(t *testing.T) {
	res, err := E14MillionPrefix(ScaleConfig{
		Prefixes:   3000,
		DirtyFrac:  0.02,
		RouteChurn: 32,
		HeavyK:     64,
		TailStride: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routes < res.Prefixes {
		t.Fatalf("loaded %d routes for %d prefixes; every prefix has at least a transit route", res.Routes, res.Prefixes)
	}
	if res.Cold <= 0 || res.DirtyP50 <= 0 || res.Sweep <= 0 {
		t.Fatalf("phases not measured: %+v", res)
	}
	if res.Last.Live != res.Prefixes {
		t.Fatalf("last cycle saw %d live prefixes, want %d", res.Last.Live, res.Prefixes)
	}
	if res.Last.Full {
		t.Fatalf("steady-state cycle fell back to a full rebuild: %q", res.Last.FullReason)
	}
	if res.Last.Recomputed == 0 {
		t.Fatal("route churn produced no recomputations")
	}
	s := res.String()
	for _, want := range []string{"E14", "cold full cycle", "dirty cycle p50", "warm full sweep"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

// TestLoadTableMatchesConvergedWire checks the direct loader against the
// topology's own expectations: one accepted route per announcement.
func TestLoadTableMatchesConvergedWire(t *testing.T) {
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: 7, Prefixes: 400})
	if err != nil {
		t.Fatal(err)
	}
	tab := LoadTable(sc.Topo)
	want := 0
	for i := range sc.Topo.Peers {
		want += len(sc.Topo.Peers[i].Announces)
	}
	if got := tab.RouteCount(); got != want {
		t.Fatalf("loaded %d routes, topology announces %d", got, want)
	}
	// Spot-check class plumbing: transit routes must exist for every
	// prefix (transits announce the full table).
	missing := 0
	for _, pi := range sc.Prefixes {
		hasTransit := false
		for _, r := range tab.Routes(pi.Prefix) {
			if r.PeerClass == rib.ClassTransit {
				hasTransit = true
				break
			}
		}
		if !hasTransit {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d prefixes lack a transit route", missing)
	}
}
