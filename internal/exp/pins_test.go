package exp

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"edgefabric/internal/core"
)

// testdata/pins.txt pins the decisions of closed-loop rungs: one line per
// rung with a digest of every cycle's override set and the counts the
// digest covers. A change that claims to leave decisions alone leaves
// the file alone; one that changes them shows the diff. Rewrite it with
//
//	go test ./internal/exp -run '^TestDecisionPins$' -update
var updatePins = flag.Bool("update", false, "rewrite testdata/pins.txt from this run")

const pinsFile = "testdata/pins.txt"

// perfAwareTestConfig is the optimizer scenario: roomy PNIs so overload
// overrides don't dominate (performance moves need spare capacity on the
// faster alternates) and path anomalies on 15 % of the paths.
func perfAwareTestConfig() HarnessConfig {
	cfg := testConfig(true)
	cfg.PerfAware = true
	cfg.Synth.PNIHeadroomMin = 1.3
	cfg.Synth.PNIHeadroomMax = 1.6
	cfg.Perf.AnomalyProb = 0.15
	return cfg
}

// pinRung runs cfg for the given number of controller cycles and
// renders the rung's pin line.
func pinRung(t *testing.T, name string, cfg HarnessConfig, cycles int) string {
	t.Helper()
	h := newTestHarness(t, cfg)
	d := sha256.New()
	overrides, sets := 0, 0
	for ran := 0; ran < cycles; {
		if _, r := h.Step(); r != nil {
			overrides += len(r.Overrides)
			for _, o := range r.Overrides {
				if len(o.Multipath) > 0 {
					sets++
				}
			}
			core.NewOverrideSet(r.Overrides).WriteTo(d)
			ran++
		}
	}
	return fmt.Sprintf("%s digest=%x overrides=%d sets=%d", name, d.Sum(nil), overrides, sets)
}

// pinE8 runs E8's measurement for the given number of rounds and
// renders its pin line: a digest over every AltPathResult field, floats
// by bit pattern and the gap CDF in threshold order.
func pinE8(t *testing.T, rounds int) string {
	t.Helper()
	res, err := E8AltPathGaps(newTestHarness(t, testConfig(false)), rounds)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	ths := make([]float64, 0, len(res.FracGainAtLeast))
	for th := range res.FracGainAtLeast {
		ths = append(ths, th)
	}
	slices.Sort(ths)
	for _, th := range ths {
		fmt.Fprintf(d, "%x %x\n", math.Float64bits(th), math.Float64bits(res.FracGainAtLeast[th]))
	}
	fmt.Fprintf(d, "%x %x %x %d\n", math.Float64bits(res.MedianGapV4MS), math.Float64bits(res.MedianGapV6MS),
		math.Float64bits(res.TransitFasterFrac), res.Prefixes)
	return fmt.Sprintf("e8-altpath-gaps digest=%x prefixes=%d", d.Sum(nil), res.Prefixes)
}

// TestDecisionPins compares the pinned rungs against testdata/pins.txt:
// the optimizer scenario for 20 cycles at k = 1 (whole-prefix moves) and
// at k = 3 (weighted sets), and E8's alternate-path gaps over 6 rounds.
func TestDecisionPins(t *testing.T) {
	k1 := perfAwareTestConfig()
	k3 := perfAwareTestConfig()
	k3.Multipath = true
	got := strings.Join([]string{
		pinRung(t, "optimizer-k1", k1, 20),
		pinRung(t, "optimizer-k3", k3, 20),
		pinE8(t, 6),
	}, "\n") + "\n"
	if *updatePins {
		if err := os.WriteFile(pinsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("decisions drifted from %s:\ngot:\n%swant:\n%s", pinsFile, got, want)
	}
}
