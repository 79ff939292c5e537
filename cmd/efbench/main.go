// Command efbench regenerates every experiment in EXPERIMENTS.md
// (E1–E10, FLEET, E13, E16, E17, E18, plus E14/E15 when named explicitly
// via -only):
// it builds the synthetic PoP scenario at the requested scale,
// runs the plain-BGP baseline and the Edge-Fabric-controlled arms over
// simulated days, and prints each experiment's rows. The output of
// `efbench -scale paper` is what EXPERIMENTS.md records.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

func main() {
	var (
		scale = flag.String("scale", "small", "small | paper (scenario size)")
		only  = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4); empty = all")
		seed  = flag.Int64("seed", 1, "scenario seed")
		out   = flag.String("out", "", "also write results to this file")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	base, day := scaleConfig(*scale, *seed)
	want := func(id string) bool {
		if *only == "" {
			return true
		}
		for _, s := range strings.Split(*only, ",") {
			if strings.EqualFold(strings.TrimSpace(s), id) {
				return true
			}
		}
		return false
	}

	ctx := context.Background()
	started := time.Now()
	fmt.Fprintf(w, "edge fabric experiment suite — scale=%s seed=%d (%d prefixes, %s simulated/arm)\n\n",
		*scale, *seed, base.Synth.Prefixes, day)

	// ---- Static / baseline experiments share one plain-BGP harness.
	if want("E1") || want("E2") || want("E3") || want("E8") {
		h := mustHarness(ctx, withController(base, false))
		if want("E1") {
			fmt.Fprint(w, exp.E1RouteDiversity(h).String(), "\n")
		}
		if want("E3") {
			fmt.Fprint(w, exp.E3PolicyTiers(h).String(), "\n")
		}
		if want("E8") {
			res, err := exp.E8AltPathGaps(h, 8)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprint(w, res.String(), "\n")
		}
		if want("E2") {
			fmt.Fprint(w, exp.E2ProjectedOverload(h, day).String(), "\n")
		}
		h.Close()
	}

	// ---- Controlled-arm experiments.
	if want("E4") || want("E5") || want("E7") {
		h := mustHarness(ctx, withController(base, true))
		if want("E4") {
			fmt.Fprint(w, exp.E4DetourVolume(h, day).String(), "\n")
		}
		if want("E5") {
			fmt.Fprint(w, exp.E5DetourDurations(h, day/2).String(), "\n")
		}
		if want("E7") {
			fmt.Fprint(w, exp.E7DetourLatency(h, day/4).String(), "\n")
		}
		h.Close()
	}

	if want("E6") {
		hb := mustHarness(ctx, withController(base, false))
		he := mustHarness(ctx, withController(base, true))
		res := &exp.AvoidanceResult{
			Baseline: exp.RunAvoidanceArm(hb, day/2),
			WithEF:   exp.RunAvoidanceArm(he, day/2),
		}
		fmt.Fprint(w, res.String(), "\n")
		hb.Close()
		he.Close()
	}

	if want("E9") {
		res := runE9(ctx, base)
		fmt.Fprint(w, res.String(), "\n")
	}

	if want("E10") {
		// Ablations run across the evening peak, where variants differ.
		ablBase := withController(base, true)
		ablBase.Start = time.Date(2017, 3, 1, 18, 30, 0, 0, time.UTC)
		var res exp.AblationResult
		for _, v := range exp.DefaultAblationVariants() {
			row, err := exp.RunAblation(ablBase, v, day/8)
			if err != nil {
				log.Fatal(err)
			}
			res.Rows = append(res.Rows, *row)
		}
		fmt.Fprint(w, res.String(), "\n")
	}

	if want("FLEET") {
		// Across-PoPs view: 4 sites with staggered peaks, each under
		// its own controller, spanning the evening peaks.
		fb := withController(base, true)
		fb.Start = time.Date(2017, 3, 1, 17, 0, 0, 0, time.UTC)
		fl, err := exp.NewFleet(ctx, exp.FleetConfig{Base: fb, PoPs: 4, PeakHourSpreadH: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, fl.Run(day/4).String(), "\n")
		fl.Close()
	}

	if want("E13") {
		// Fleet-host isolation: hosted vs isolated decision equivalence,
		// then a BMP outage contained to one member. The ladder is tuned
		// so fail-static lands within the outage window and fail-back /
		// BMP flush stay out of it.
		fb := withController(base, true)
		// Start at pop-1's demand peak so the compared cycles actually
		// carry override decisions (equivalence on idle cycles is
		// vacuous).
		fb.Start = time.Date(2017, 3, 1, 19, 45, 0, 0, time.UTC)
		fb.Health = core.HealthConfig{
			RoutesStaleAfter: 45 * time.Second,
			RoutesFailAfter:  time.Hour,
			BMPFlushAfter:    time.Hour,
		}
		res, err := exp.E13FleetIsolation(ctx, exp.FleetConfig{Base: fb, PoPs: 4, PeakHourSpreadH: 0.5}, 6, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, res.String(), "\n")
	}

	// E14 is the one arm that skips the wire harness (a full Internet
	// table would spend its time in emulated BGP, not the controller):
	// it loads the RIB directly and times delta cycles. It allocates
	// several GB at paper scale, so it only runs when asked for by
	// name (-only E14).
	if *only != "" && want("E14") {
		n := 100_000
		if *scale == "paper" {
			n = 1_000_000
		}
		res, err := exp.E14MillionPrefix(exp.ScaleConfig{Prefixes: n, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, res.String(), "\n")
	}

	if want("E16") {
		// Chaos soak: ≥500 cycles of seeded composed chaos with every
		// invariant checked per cycle, then the intentionally-broken
		// control arm (fail-static disabled under a blackout) proving the
		// checker actually detects the regressions the soak guards.
		sb := withController(base, true)
		sb.Start = time.Date(2017, 3, 1, 18, 0, 0, 0, time.UTC) // span the evening peak
		res, err := exp.E16ChaosSoak(ctx, exp.SoakConfig{
			// 16 composed events: with the perf pair in the vocabulary a
			// 12-event draw at this seed happens to skip the telemetry
			// faults entirely, leaving the health ladder unexercised.
			Base: sb, Seed: *seed, Cycles: 500, ChaosEvents: 16,
			Logf: func(format string, args ...any) { log.Printf(format, args...) },
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, res.String(), "\n")
		ctrl, err := exp.E16ControlArm(ctx, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "E16 control arm (fail-static disabled; violations EXPECTED): %d violations\n",
			len(ctrl.Violations))
		if len(ctrl.Violations) == 0 {
			log.Fatal("E16 control arm reported no violations: the checker is blind")
		}
		fmt.Fprint(w, ctrl.String(), "\n")
	}

	if want("E17") {
		// Weighted multipath vs capacity-only on the same scenario and
		// seed: the optimizer must buy p90 RTT without paying for it in
		// drops or per-cycle churn.
		mb := base
		mb.Start = time.Date(2017, 3, 1, 18, 0, 0, 0, time.UTC) // span the evening peak
		mb.Perf.AnomalyProb = 0.15
		res, err := exp.E17MultipathPerf(ctx, mb, day/4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, res.String(), "\n")
		if !res.Pass() {
			log.Fatal("E17 FAILED: multipath did not beat capacity-only within the drop/churn bounds")
		}
	}

	if want("E18") {
		// Cross-PoP demand shifts: a region loss drains one PoP onto its
		// siblings, an anycast re-homing swaps load between two more.
		// Each hosted controller must absorb its new load independently
		// and decide byte-identically to an isolated twin throughout.
		sb := withController(base, true)
		sb.Start = time.Date(2017, 3, 1, 19, 30, 0, 0, time.UTC) // land shifts near peak
		res, err := exp.E18FleetShift(ctx, exp.FleetShiftConfig{Base: sb, PoPs: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, res.String(), "\n")
		if !res.Pass() {
			log.Fatal("E18 FAILED: shifted demand not absorbed or hosted/isolated decisions diverged")
		}
	}

	// E15 also skips the wire harness: it saturates the telemetry
	// ingest path directly (in-process, over UDP, and against a BMP
	// dump replay). Like E14 it only runs when asked for by name.
	if *only != "" && want("E15") {
		cfg := exp.IngestConfig{Seed: *seed}
		if *scale == "paper" {
			cfg.DumpPrefixes = 1_000_000
		}
		res, err := exp.E15IngestSaturation(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(w, res.String(), "\n")
	}

	fmt.Fprintf(w, "total wall time %s\n", time.Since(started).Round(time.Second))
}

// scaleConfig returns the base harness config and per-arm simulated
// duration for the named scale.
func scaleConfig(scale string, seed int64) (exp.HarnessConfig, time.Duration) {
	switch scale {
	case "paper":
		return exp.HarnessConfig{
			Synth: netsim.SynthConfig{
				Seed:     seed,
				Prefixes: 4000,
				PeakBps:  400e9,
			},
			Allocator: core.AllocatorConfig{Threshold: 0.95},
			Start:     time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC),
		}, 24 * time.Hour
	case "small":
		return exp.HarnessConfig{
			Synth: netsim.SynthConfig{
				Seed:               seed,
				Prefixes:           800,
				EdgeASes:           120,
				PrivatePeers:       6,
				PublicPeers:        16,
				RouteServerMembers: 24,
				PeakBps:            200e9,
			},
			Allocator: core.AllocatorConfig{Threshold: 0.95},
			Start:     time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC),
		}, 6 * time.Hour
	default:
		log.Fatalf("unknown scale %q", scale)
		return exp.HarnessConfig{}, 0
	}
}

func withController(cfg exp.HarnessConfig, on bool) exp.HarnessConfig {
	cfg.ControllerEnabled = on
	return cfg
}

func mustHarness(ctx context.Context, cfg exp.HarnessConfig) *exp.Harness {
	h, err := exp.NewHarness(ctx, cfg)
	if err != nil {
		log.Fatalf("harness: %v", err)
	}
	return h
}

// runE9 builds the flash-crowd scenario: calm PoP, biggest private AS
// triples shortly after start.
func runE9(ctx context.Context, base exp.HarnessConfig) *exp.FlashReactionResult {
	cfg := withController(base, true)
	cfg.Synth.PNIHeadroomMin = 1.2
	cfg.Synth.PNIHeadroomMax = 1.5
	sc, err := netsim.Synthesize(cfg.Synth)
	if err != nil {
		log.Fatal(err)
	}
	var flashAS uint32
	var best float64
	for as, info := range sc.ASes {
		if info.Class == rib.ClassPrivate && info.Weight > best {
			best, flashAS = info.Weight, as
		}
	}
	flashStart := cfg.Start.Add(10 * time.Minute)
	h := mustHarness(ctx, cfg)
	defer h.Close()
	if err := h.AttachEvents([]netsim.Event{{
		Kind: netsim.EventFlashCrowd, At: flashStart.Sub(h.Clock.Now()),
		Duration: time.Hour, Magnitude: 3, AS: flashAS,
	}}); err != nil {
		log.Fatal(err)
	}
	return exp.E9FlashReaction(h, flashStart, 90*time.Minute)
}
