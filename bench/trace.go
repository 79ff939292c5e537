package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program under test).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a cycle root
	Cycle  int    `json:"cycle"`
}

// recorder holds a traced run's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	cycle int
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// nextCycle starts a new cycle identifier; spans begun afterwards carry
// it.
func (r *recorder) nextCycle() { r.cycle++ }

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Cycle: r.cycle,
	})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

func (r *recorder) durMS(id int) float64 {
	return float64(r.spans[id].End-r.spans[id].Start) / 1e6
}

// selfMS returns, per span name, one value per cycle in [from, to]: the
// span's duration minus the part its direct children cover, in
// milliseconds, summed over same-named spans of the cycle.
func (r *recorder) selfMS(from, to int) map[string][]float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name  string
		cycle int
	}
	sum := make(map[key]float64)
	for i, s := range r.spans {
		if s.Cycle < from || s.Cycle > to {
			continue
		}
		sum[key{s.Name, s.Cycle}] += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make(map[string][]float64)
	for k, v := range sum {
		out[k.name] = append(out[k.name], v)
	}
	return out
}

// write dumps the spans with the run's identifying fields as JSON.
func (r *recorder) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{"meta": meta, "spans": r.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
