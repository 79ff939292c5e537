// Package edgefabric_bench holds the top-level benchmark harness: one
// testing.B benchmark per experiment in EXPERIMENTS.md (E1–E10), each
// regenerating its figure/table on a reduced-scale scenario and
// reporting the headline metric via b.ReportMetric, plus end-to-end
// pipeline benchmarks. Protocol- and structure-level micro-benchmarks
// live next to their packages (wire, bgp, bmp, sflow, rib, core).
//
// Run with:
//
//	go test -bench=. -benchmem
package edgefabric_bench

import (
	"context"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// benchConfig is the reduced-scale scenario shared by the experiment
// benchmarks: small enough to iterate, constrained enough to exercise
// the allocator.
func benchConfig(controller bool) exp.HarnessConfig {
	return exp.HarnessConfig{
		Synth: netsim.SynthConfig{
			Seed:               3,
			Prefixes:           400,
			EdgeASes:           60,
			PrivatePeers:       5,
			PublicPeers:        10,
			RouteServerMembers: 15,
			PeakBps:            150e9,
			PNIHeadroomMin:     0.6,
			PNIHeadroomMax:     0.9,
		},
		Demand:            netsim.DemandConfig{NoiseSigma: 0.05},
		Allocator:         core.AllocatorConfig{Threshold: 0.95},
		ControllerEnabled: controller,
		Start:             time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC),
	}
}

func mustHarness(b *testing.B, cfg exp.HarnessConfig) *exp.Harness {
	b.Helper()
	h, err := exp.NewHarness(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(h.Close)
	return h
}

func BenchmarkE1RouteDiversity(b *testing.B) {
	h := mustHarness(b, benchConfig(false))
	b.ResetTimer()
	var res *exp.DiversityResult
	for i := 0; i < b.N; i++ {
		res = exp.E1RouteDiversity(h)
	}
	b.ReportMetric(res.WeightedAtLeast[3]*100, "%traffic>=3routes")
}

func BenchmarkE2ProjectedOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := mustHarness(b, benchConfig(false))
		b.StartTimer()
		res := exp.E2ProjectedOverload(h, 30*time.Minute)
		b.ReportMetric(res.FracOver100*100, "%ifaces>100%")
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}

func BenchmarkE3PolicyTiers(b *testing.B) {
	h := mustHarness(b, benchConfig(false))
	b.ResetTimer()
	var res *exp.TierShareResult
	for i := 0; i < b.N; i++ {
		res = exp.E3PolicyTiers(h)
	}
	peer := res.Share[rib.ClassPrivate] + res.Share[rib.ClassPublic] + res.Share[rib.ClassRouteServer]
	b.ReportMetric(peer*100, "%peer-traffic")
}

func BenchmarkE4DetourVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := mustHarness(b, benchConfig(true))
		b.StartTimer()
		res := exp.E4DetourVolume(h, 20*time.Minute)
		b.ReportMetric(res.Median*100, "%detoured-median")
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}

func BenchmarkE5DetourDurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := mustHarness(b, benchConfig(true))
		b.StartTimer()
		res := exp.E5DetourDurations(h, 20*time.Minute)
		b.ReportMetric(float64(res.Episodes), "episodes")
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}

func BenchmarkE6OverloadAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hb := mustHarness(b, benchConfig(false))
		he := mustHarness(b, benchConfig(true))
		b.StartTimer()
		base := exp.RunAvoidanceArm(hb, 15*time.Minute)
		withEF := exp.RunAvoidanceArm(he, 15*time.Minute)
		b.ReportMetric(base.DroppedFrac*100, "%dropped-bgp")
		b.ReportMetric(withEF.DroppedFrac*100, "%dropped-ef")
		b.StopTimer()
		hb.Close()
		he.Close()
		b.StartTimer()
	}
}

func BenchmarkE7DetourLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := mustHarness(b, benchConfig(true))
		b.StartTimer()
		res := exp.E7DetourLatency(h, 15*time.Minute)
		b.ReportMetric(res.P50, "ms-p50-delta")
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}

func BenchmarkE8AltPathGaps(b *testing.B) {
	h := mustHarness(b, benchConfig(false))
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := exp.E8AltPathGaps(h, 4)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FracGainAtLeast[20]
	}
	b.ReportMetric(frac*100, "%alt>=20ms-faster")
}

func BenchmarkE9FlashReaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := benchConfig(true)
		cfg.Synth.PNIHeadroomMin = 1.2
		cfg.Synth.PNIHeadroomMax = 1.5
		cfg.Start = time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)
		sc, err := netsim.Synthesize(cfg.Synth)
		if err != nil {
			b.Fatal(err)
		}
		var flashAS uint32
		var best float64
		for as, info := range sc.ASes {
			if info.Class == rib.ClassPrivate && info.Weight > best {
				best, flashAS = info.Weight, as
			}
		}
		flashStart := cfg.Start.Add(5 * time.Minute)
		h := mustHarness(b, cfg)
		if err := h.AttachEvents([]netsim.Event{{
			Kind: netsim.EventFlashCrowd, At: flashStart.Sub(h.Clock.Now()),
			Duration: 30 * time.Minute, Magnitude: 3, AS: flashAS,
		}}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := exp.E9FlashReaction(h, flashStart, 20*time.Minute)
		if res.OverloadAppeared && res.Reaction > 0 {
			b.ReportMetric(res.Reaction.Seconds(), "s-reaction")
		}
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}

func BenchmarkE10Ablations(b *testing.B) {
	variants := exp.DefaultAblationVariants()
	for i := 0; i < b.N; i++ {
		for _, v := range variants[:2] { // thresholds 0.90 and 0.95
			row, err := exp.RunAblation(benchConfig(true), v, 8*time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			if v.Name == "threshold=0.95 (paper)" {
				b.ReportMetric(row.DetourFrac*100, "%detoured@0.95")
			}
		}
	}
}

// BenchmarkFleet4PoPs measures the across-PoPs aggregate: four sites,
// each under its own controller, stepped through 10 virtual minutes.
func BenchmarkFleet4PoPs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet, err := exp.NewFleet(context.Background(), exp.FleetConfig{
			Base: benchConfig(true),
			PoPs: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := fleet.Run(10 * time.Minute)
		b.ReportMetric(float64(res.PoPsWithDetours), "pops-detouring")
		b.StopTimer()
		fleet.Close()
		b.StartTimer()
	}
}

// BenchmarkHarnessTick measures the cost of one dataplane+controller
// step at the benchmark scale.
func BenchmarkHarnessTick(b *testing.B) {
	h := mustHarness(b, benchConfig(true))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
}

// BenchmarkHarnessConverge measures full PoP bring-up: scenario
// synthesis, all BGP sessions establishing, full route exchange, and
// controller readiness.
func BenchmarkHarnessConverge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := mustHarness(b, benchConfig(true))
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}
