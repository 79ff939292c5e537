package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload of BENCHMARK.json, timed and traced, at
// the reduced shape, and checks the contract between the file and the
// program: every declared metric is printed exactly once per run with a
// finite value and the declared unit, names are well formed, no
// operation failed (which includes the traced and untraced decision
// digests agreeing), and nothing undeclared is reported.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := loadDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range [][]declMetric{d.EndToEnd, d.PerLayer} {
		for _, dm := range list {
			if !nameRE.MatchString(dm.Name) {
				t.Errorf("metric name %q is malformed", dm.Name)
			}
			if seen[dm.Name] {
				t.Errorf("metric name %q declared twice", dm.Name)
			}
			seen[dm.Name] = true
		}
	}
	hasSetup := false
	for _, dm := range d.EndToEnd {
		hasSetup = hasSetup || (dm.Name == "setup_s" && dm.Unit == "s" && dm.Better == "lower")
		if dm.Bound == nil || *dm.Bound <= 0 || *dm.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", dm.Name)
		}
	}
	if !hasSetup {
		t.Error("end_to_end must declare setup_s in s, lower is better")
	}

	for _, w := range d.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		for _, traced := range []bool{false, true} {
			c := runConfig{workload: w.Name, seed: 1, seconds: 0.5, traced: traced, smoke: true, outDir: t.TempDir()}
			o, info, err := runWorkload(c, d)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if o.Failed != 0 || !o.Correct || o.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, o.Failed, o.Attempted)
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(o.Metrics), len(want))
			}
			var buf bytes.Buffer
			printRun(&buf, c, d, o, info)
			lines := strings.Split(buf.String(), "\n")
			for _, dm := range want {
				got, ok := o.Metrics[dm.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, dm.Name)
					continue
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != dm.Unit {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", w.Name, traced, dm.Name, got.Value, got.Unit, dm.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, dm.Name)
				}
				n := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 3 && f[0] == dm.Name && f[2] == dm.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.Name, traced, dm.Name, n)
				}
			}
		}
	}
}

// TestUDPProbeSeesLoss offers the probe's load to a socket nobody reads:
// every datagram is lost and the probe must say so, whatever the rig's
// warm-up left in the collector's counters.
func TestUDPProbeSeesLoss(t *testing.T) {
	sys, err := newIngestSystem(1, smokeShape.ingestPrefixes)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	loss, _, err := sys.udpProbe(1, smokeShape.udpRate, smokeShape.udpDur, false)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 1 {
		t.Errorf("unread socket: udp loss %v, want 1", loss)
	}
}
