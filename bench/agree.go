package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// calibTolerance is how far two runs' host calibration may differ before
// comparing them would measure the machine instead of the code.
const calibTolerance = 0.10

var calibLine = regexp.MustCompile(`host\.calib_ms before=([0-9.]+) after=([0-9.]+)`)

// childRun runs one workload in a fresh process (so the second run does
// not inherit the first one's heap) and parses its last line and its
// host calibration (0 when the run printed none).
func childRun(name string, seed int64, seconds float64, smoke bool) (*outcome, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// Exit code 1 is a run whose output checks failed: it still printed
	// its result, and the comparison reports the failed operations.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var o outcome
	if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
		return nil, 0, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	calib := 0.0
	if m := calibLine.FindSubmatch(stdout); m != nil {
		a, _ := strconv.ParseFloat(string(m[1]), 64)
		b, _ := strconv.ParseFloat(string(m[2]), 64)
		calib = (a + b) / 2
	}
	return &o, calib, nil
}

// runAgree runs every named workload twice with the same seed and
// prints, per end-to-end metric, both values, their relative difference
// and the bound BENCHMARK.json fixes. It fails when a pair differs by
// more than its bound, or when an operation failed; it refuses to judge
// a pair whose host calibration differs by more than calibTolerance.
func runAgree(d *declared, names []string, seed int64, seconds float64, smoke bool) error {
	var bad []string
	for _, name := range names {
		a, calibA, err := childRun(name, seed, seconds, smoke)
		if err != nil {
			return err
		}
		b, calibB, err := childRun(name, seed, seconds, smoke)
		if err != nil {
			return err
		}
		fmt.Printf("== %s seed=%d: two runs, host.calib_ms %.2f vs %.2f\n", name, seed, calibA, calibB)
		if a.Failed+b.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d + %d operations failed", name, a.Failed, b.Failed))
		}
		if calibA <= 0 || calibB <= 0 {
			fmt.Println("   a run printed no host calibration; not comparing")
			bad = append(bad, name+": host calibration missing, runs not comparable")
			continue
		}
		if rel := math.Abs(calibA-calibB) / math.Min(calibA, calibB); rel > calibTolerance {
			fmt.Printf("   calibration differs by %.1f%% > %.0f%%: the host changed speed between the runs; not comparing\n",
				100*rel, 100*calibTolerance)
			bad = append(bad, name+": host calibration moved, runs not comparable")
			continue
		}
		fmt.Printf("%-22s %14s %14s %9s %7s\n", "metric", "run 1", "run 2", "diff", "bound")
		for _, dm := range d.EndToEnd {
			va, vb := a.Metrics[dm.Name].Value, b.Metrics[dm.Name].Value
			rel := math.Abs(va-vb) / math.Max(math.Abs(va), math.SmallestNonzeroFloat64)
			verdict := ""
			if dm.Bound != nil && rel > *dm.Bound {
				verdict = "  DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: %.6g vs %.6g", name, dm.Name, va, vb))
			}
			fmt.Printf("%-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", dm.Name, va, vb, 100*rel, 100*deref(dm.Bound), verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("runs do not agree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("agree: every end-to-end metric within its bound on every workload")
	return nil
}

func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}
