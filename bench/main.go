// Command bench is the repository's benchmark: four workloads, each
// reporting the end-to-end metrics of a timed run or the per-layer
// metrics of a traced run, as declared in BENCHMARK.json at the root of
// the repository. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// declared mirrors BENCHMARK.json: the benchmark prints exactly the
// workloads and metrics the file names, with its units.
type declared struct {
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []declWorkload `json:"workloads"`
	EndToEnd   []declMetric   `json:"end_to_end"`
	PerLayer   []declMetric   `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json and go.mod: the benchmark runs from the repository root
// (bench/run.sh) or from bench/ (go run -C bench .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

func loadDeclared(root string) (*declared, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// notes collects a run's informational lines (sample counts, set-up
// breakdown, digests): printed, never parsed.
type notes struct{ lines []string }

func (n *notes) addf(format string, args ...any) {
	n.lines = append(n.lines, fmt.Sprintf(format, args...))
}

// outcome is one run's result in the driver's shape.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload executes one run and renders the metrics BENCHMARK.json
// declares for its mode, in declaration order.
func runWorkload(c runConfig, d *declared) (*outcome, *notes, error) {
	t := &tally{}
	info := &notes{}
	calib0 := calibrate(c.calibMiB())
	var m map[string]float64
	var err error
	switch c.workload {
	case "pop_overload":
		m, err = runPop(c, false, t, info)
	case "pop_multipath":
		m, err = runPop(c, true, t, info)
	case "table_500k":
		m, err = runTable(c, t, info)
	case "ingest_flood":
		m, err = runIngest(c, t, info)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		return nil, info, err
	}
	calib1 := calibrate(c.calibMiB())
	m["host.calib_ms"] = (calib0 + calib1) / 2
	info.addf("host.calib_ms before=%.2f after=%.2f", calib0, calib1)
	want := d.EndToEnd
	if c.traced {
		want = d.PerLayer
	}
	out := &outcome{Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metricOut, len(want))}
	for _, dm := range want {
		v, ok := m[dm.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, info, fmt.Errorf("%s: metric %s not produced (%v)", c.workload, dm.Name, v)
		}
		out.Metrics[dm.Name] = metricOut{Value: v, Unit: dm.Unit}
	}
	out.Correct = t.failed == 0 && t.attempted > 0
	return out, info, nil
}

// printRun writes a run the way a person reads it: one line per metric
// by name with its unit, then the notes. The caller prints the JSON
// object.
func printRun(w io.Writer, c runConfig, d *declared, o *outcome, info *notes) {
	mode, want := "timed", d.EndToEnd
	if c.traced {
		mode, want = "traced", d.PerLayer
	}
	fmt.Fprintf(w, "== %s seed=%d %s\n", c.workload, c.seed, mode)
	for _, dm := range want {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", dm.Name, o.Metrics[dm.Name].Value, dm.Unit)
	}
	fmt.Fprintf(w, "%-32s %16.6g ratio (%d of %d operations)\n", "failed_frac",
		float64(o.Failed)/float64(max(1, o.Attempted)), o.Failed, o.Attempted)
	for _, l := range info.lines {
		fmt.Fprintf(w, "# %s\n", l)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: every workload in BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		agree    = flag.Bool("agree", false, "run every workload twice per seed and check the runs agree within the bounds")
		smoke    = flag.Bool("smoke", false, "reduced shapes (what go test runs)")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	d, err := loadDeclared(root)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(d.RunSeconds)
	}
	outDir := filepath.Join(root, d.Paths[0], "out")
	var names []string
	for _, w := range d.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q (BENCHMARK.json names %s)", *workload, workloadNames(d)))
	}
	if *agree {
		if err := runAgree(d, names, *seed, *seconds, *smoke); err != nil {
			fatal(err)
		}
		return
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	failed := false
	for _, name := range names {
		for _, traced := range modes {
			c := runConfig{workload: name, seed: *seed, seconds: *seconds, traced: traced, smoke: *smoke, outDir: outDir}
			o, info, err := runWorkload(c, d)
			if err != nil {
				fatal(err)
			}
			printRun(os.Stdout, c, d, o, info)
			line, err := json.Marshal(o)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
			failed = failed || !o.Correct
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: output checks failed")
		os.Exit(1)
	}
}

func workloadNames(d *declared) string {
	var s []string
	for _, w := range d.Workloads {
		s = append(s, w.Name)
	}
	return strings.Join(s, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
