package exp

import (
	"context"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

func newTestHarness(t *testing.T, cfg HarnessConfig) *Harness {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	h, err := NewHarness(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func TestE1RouteDiversity(t *testing.T) {
	h := newTestHarness(t, testConfig(false))
	res := E1RouteDiversity(h)
	// Everything is reachable via 2 transits at least → ≥2 routes for
	// 100% of prefixes.
	if got := res.FracAtLeast[2]; got < 0.999 {
		t.Errorf("frac >=2 routes = %.3f, want ~1", got)
	}
	// Heavy prefixes belong to peered ASes, so the bulk of traffic has
	// a peer route beyond the two transits. (The strict weighted >
	// unweighted ordering of the paper emerges at realistic AS counts;
	// this 40-AS test scenario only checks the bulk property.)
	if res.WeightedAtLeast[3] < 0.7 {
		t.Errorf("weighted(>=3)=%.3f, want most traffic to have a peer route",
			res.WeightedAtLeast[3])
	}
	if res.MedianRoutes < 2 {
		t.Errorf("median routes = %.1f", res.MedianRoutes)
	}
	if !strings.Contains(res.String(), "E1") {
		t.Error("String() malformed")
	}
}

func TestE2ProjectedOverload(t *testing.T) {
	h := newTestHarness(t, testConfig(false))
	res := E2ProjectedOverload(h, time.Hour)
	// All PNIs are provisioned below peak AS demand: a tail of
	// interfaces must exceed 100% at peak hour.
	if res.FracOver100 == 0 {
		t.Errorf("no interface over 100%%: %+v", res.PeakUtil)
	}
	if res.DropTicksFrac == 0 {
		t.Error("no drop ticks in an underprovisioned scenario at peak")
	}
	if !strings.Contains(res.String(), "E2") {
		t.Error("String() malformed")
	}
}

func TestE3PolicyTiers(t *testing.T) {
	h := newTestHarness(t, testConfig(false))
	res := E3PolicyTiers(h)
	var sum float64
	for _, f := range res.Share {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("shares sum to %.3f", sum)
	}
	// Peers (private+public+rs) carry the bulk under plain BGP; transit
	// only what nobody peers for.
	peerShare := res.Share[rib.ClassPrivate] + res.Share[rib.ClassPublic] + res.Share[rib.ClassRouteServer]
	if peerShare < res.Share[rib.ClassTransit] {
		t.Errorf("peer share %.2f < transit share %.2f", peerShare, res.Share[rib.ClassTransit])
	}
	if res.Share[rib.ClassPrivate] == 0 {
		t.Error("private share = 0")
	}
	if !strings.Contains(res.String(), "private") {
		t.Error("String() malformed")
	}
}

func TestE4E5DetourVolumeAndDurations(t *testing.T) {
	h := newTestHarness(t, testConfig(true))
	res := E4DetourVolume(h, 30*time.Minute)
	if len(res.FracSeries) == 0 {
		t.Fatal("no cycles recorded")
	}
	// Underprovisioned PNIs at peak: some detouring, but a minority of
	// total traffic (paper's shape: median single-digit %).
	if res.Max == 0 {
		t.Error("no traffic detoured at peak in a constrained scenario")
	}
	if res.Median > 0.5 {
		t.Errorf("median detour fraction = %.2f — should be a minority", res.Median)
	}
	if res.MeanOverrides == 0 {
		t.Error("no overrides on average")
	}

	// E5 durations over the same harness (clock is past peak now, so
	// detours may end as demand falls).
	res5 := E5DetourDurations(h, 30*time.Minute)
	_ = res5.String() // coverage: rendering must not panic
}

func TestE6OverloadAvoidance(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	res, err := overloadAvoidance(ctx, testConfig(false), 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.DroppedFrac == 0 {
		t.Error("baseline should drop at peak")
	}
	if res.WithEF.DroppedFrac >= res.Baseline.DroppedFrac {
		t.Errorf("edge fabric dropped %.4f >= baseline %.4f",
			res.WithEF.DroppedFrac, res.Baseline.DroppedFrac)
	}
	if !strings.Contains(res.String(), "E6") {
		t.Error("String() malformed")
	}
}

func TestE7DetourLatency(t *testing.T) {
	h := newTestHarness(t, testConfig(true))
	res := E7DetourLatency(h, 20*time.Minute)
	if len(res.DeltasMS) == 0 {
		t.Fatal("no detoured prefix-ticks measured")
	}
	// Detours move traffic to less-preferred (typically transit) paths;
	// the median delta should be positive but bounded (tens of ms), and
	// a fraction of detours lands on faster paths.
	if res.P50 < -50 || res.P50 > 120 {
		t.Errorf("p50 delta = %.1f ms, implausible", res.P50)
	}
	if !strings.Contains(res.String(), "E7") {
		t.Error("String() malformed")
	}
}

func TestE8AltPathGaps(t *testing.T) {
	h := newTestHarness(t, testConfig(false))
	res, err := E8AltPathGaps(h, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefixes == 0 {
		t.Fatal("nothing measured")
	}
	// The anomaly model impairs ~6% of prefixes' preferred paths: the
	// ≥20ms fraction should be in the low percent range, and monotone
	// in the threshold.
	f20 := res.FracGainAtLeast[20]
	if f20 < 0.005 || f20 > 0.25 {
		t.Errorf("frac >=20ms = %.3f, want a small minority", f20)
	}
	if res.FracGainAtLeast[5] < f20 || f20 < res.FracGainAtLeast[100] {
		t.Errorf("gap CDF not monotone: %+v", res.FracGainAtLeast)
	}
	// Preferred path usually wins: median gap negative.
	if res.MedianGapV4MS > 0 {
		t.Errorf("median v4 gap = %.1f; preferred path should usually be fastest", res.MedianGapV4MS)
	}
	if !strings.Contains(res.String(), "E8") {
		t.Error("String() malformed")
	}
}

func TestE9FlashReaction(t *testing.T) {
	cfg := testConfig(true)
	// Give PNIs enough headroom that the scenario is calm off-flash.
	cfg.Synth.PNIHeadroomMin = 1.2
	cfg.Synth.PNIHeadroomMax = 1.4
	cfg.Start = time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC) // off-peak
	// Flash: the biggest private AS triples 5 minutes in.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := flashReaction(ctx, cfg, 5*time.Minute, 30*time.Minute, 25*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OverloadAppeared {
		t.Skip("flash did not overload; scenario too roomy for this seed")
	}
	if res.Reaction < 0 {
		t.Fatal("flash overload never mitigated")
	}
	if res.Reaction > 5*time.Minute {
		t.Errorf("reaction = %s, want within a few cycles", res.Reaction)
	}
	if !strings.Contains(res.String(), "E9") {
		t.Error("String() malformed")
	}
}

func TestE10Ablation(t *testing.T) {
	// The first two variants (thresholds 0.90 and 0.95) keep the test
	// quick.
	res, err := ablations(context.Background(), testConfig(true), DefaultAblationVariants()[:2], 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatal("missing rows")
	}
	// A 0.90 threshold must detour at least as much as 0.95.
	if res.Rows[0].DetourFrac < res.Rows[1].DetourFrac {
		t.Errorf("threshold 0.90 detours %.3f < 0.95's %.3f",
			res.Rows[0].DetourFrac, res.Rows[1].DetourFrac)
	}
	if !strings.Contains(res.String(), "E10") {
		t.Error("String() malformed")
	}
}

func TestPerfAwareHarness(t *testing.T) {
	h := newTestHarness(t, perfAwareTestConfig())
	perfMoves := 0
	h.Run(10*30*time.Second, func(_ *netsim.TickStats, r *core.CycleReport) {
		if r == nil {
			return
		}
		for _, o := range r.Overrides {
			if strings.Contains(o.Reason, "alt path") {
				perfMoves++
			}
		}
	})
	if perfMoves == 0 {
		t.Error("perf-aware mode produced no performance overrides despite 15% anomalies")
	}
	if h.Measurer == nil {
		t.Error("measurer not attached")
	}
}
