// Package edgefabric_bench holds the top-level benchmark harness:
// BenchmarkRungs, one sub-benchmark per rung of the experiment suite in
// EXPERIMENTS.md, each regenerating its figure/table on the small
// scenario, plus end-to-end pipeline benchmarks. Protocol- and
// structure-level micro-benchmarks live next to their packages (wire,
// bgp, bmp, sflow, rib, core).
//
// Run with:
//
//	go test -bench=. -benchmem
package edgefabric_bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
)

// benchConfig is the reduced-scale scenario of the benchmarks: small
// enough to iterate, constrained enough to exercise the allocator (the
// PNIs sit below peak demand, and the day starts at the 20:00 peak).
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

// BenchmarkRungs runs every rung of the default suite (exp.Rungs
// without the explicit-only E14 and E15) on benchConfig's scenario with
// a 30-minute simulated day: one sub-benchmark per rung, each iteration
// on fresh harnesses, each rung's report logged once. A rung on a
// shared arm gets its harness built and closed outside the timer, so
// only its experiment is timed; a rung that builds its own harnesses
// (E6 onwards) times their set-up too.
func BenchmarkRungs(b *testing.B) {
	ctx := context.Background()
	s := exp.Scale{Name: "bench", Base: benchConfig(false), Day: 30 * time.Minute}
	for _, r := range exp.Rungs {
		if r.Explicit {
			continue
		}
		b.Run(r.ID, func(b *testing.B) {
			var res fmt.Stringer
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var h *exp.Harness
				if r.Arm != "" {
					h = mustHarness(b, s.ArmConfig(r.Arm))
				}
				b.StartTimer()
				var err error
				if res, err = r.Measure(ctx, h, s); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if h != nil {
					h.Close()
				}
				b.StartTimer()
			}
			b.Log("\n" + res.String())
		})
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
