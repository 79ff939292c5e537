package altpath

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"edgefabric/internal/rib"
)

// oracleWindow is the retired window: an arrival-order ring whose
// percentile copies and sorts the samples on every read. It stays here
// as the reference the order-index window must match bit for bit.
type oracleWindow struct {
	samples, retrans []float64
	next             int
}

func (w *oracleWindow) add(rtt, loss float64, max int) {
	if len(w.samples) < max {
		w.samples = append(w.samples, rtt)
		w.retrans = append(w.retrans, loss)
		return
	}
	w.samples[w.next] = rtt
	w.retrans[w.next] = loss
	w.next = (w.next + 1) % len(w.samples)
}

func (w *oracleWindow) reset() { *w = oracleWindow{} }

func oraclePercentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}

func oracleMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// checkWindow asserts the window's statistics equal the oracle's bit
// for bit, that the order index is a value-sorted permutation of the
// live slots, that the sample ring was allocated whole, and that a
// retransmit ring, once there, runs in step with the samples.
func checkWindow(t *testing.T, step, max int, w *window, o *oracleWindow) {
	t.Helper()
	if len(w.samples) != len(o.samples) {
		t.Fatalf("step %d: N = %d, oracle %d", step, len(w.samples), len(o.samples))
	}
	if w.samples != nil && (cap(w.samples) != max || cap(w.order) != max) {
		t.Fatalf("step %d: rings of capacity %d and %d, want %d", step, cap(w.samples), cap(w.order), max)
	}
	if w.retrans != nil && len(w.retrans) != len(w.samples) {
		t.Fatalf("step %d: retransmit ring holds %d slots for %d samples", step, len(w.retrans), len(w.samples))
	}
	for _, q := range []float64{0.50, 0.90} {
		got, want := w.percentile(q), oraclePercentile(o.samples, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: P%.0f = %v, oracle %v (n=%d)", step, 100*q, got, want, len(o.samples))
		}
	}
	if got, want := w.meanRetrans(), oracleMean(o.retrans); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: RetransFrac = %v, oracle %v", step, got, want)
	}
	if len(w.order) != len(w.samples) {
		t.Fatalf("step %d: order index holds %d slots for %d samples", step, len(w.order), len(w.samples))
	}
	seen := make([]bool, len(w.samples))
	for i, slot := range w.order {
		if int(slot) >= len(seen) || seen[slot] {
			t.Fatalf("step %d: order index %v is not a permutation of the slots", step, w.order)
		}
		seen[slot] = true
		if i > 0 && w.samples[w.order[i-1]] > w.samples[slot] {
			t.Fatalf("step %d: order index not ascending at %d", step, i)
		}
	}
}

// driveWindow replays ops against a window and the oracle, checking
// after every step. 0xFF resets; any other byte adds a sample drawn
// from a 16-value RTT palette (so duplicates are the norm, and value 0
// is the 0.1 ms floor MeasureRound clamps to) with the high nibble as
// loss.
func driveWindow(t *testing.T, max int, ops []byte) {
	t.Helper()
	var w window
	var o oracleWindow
	for step, b := range ops {
		if b == 0xFF {
			w.reset()
			o.reset()
		} else {
			rtt := 0.1 + 7.3*float64(b&0x0F)
			loss := float64(b>>4) / 64
			w.add(rtt, loss, max)
			o.add(rtt, loss, max)
		}
		checkWindow(t, step, max, &w, &o)
	}
}

// lossSequences returns driveWindow ops for a window of max samples
// whose first loss comes late: in mid-fill, after the ring has wrapped
// (then rolls off and returns), and after a reset of a lossy window.
// Every other sample is clean (a zero high nibble).
func lossSequences(max int) [][]byte {
	clean := func(ops []byte, n int) []byte {
		for i := range n {
			ops = append(ops, byte(len(ops)*7+i)&0x0F)
		}
		return ops
	}
	const lossy = 0x35
	midFill := append(clean(nil, max/2), lossy)
	afterWrap := append(clean(nil, 2*max+1), lossy)
	afterWrap = append(clean(afterWrap, max+1), lossy)
	afterReset := append(clean([]byte{lossy}, max/3), 0xFF)
	afterReset = append(clean(afterReset, max/2), lossy)
	return [][]byte{clean(midFill, 2*max), clean(afterWrap, max), clean(afterReset, 2*max)}
}

func TestWindowOrderStatsMatchOracle(t *testing.T) {
	for _, max := range []int{1, 2, 3, 8, 64, MaxWindowSamples} {
		rng := rand.New(rand.NewSource(int64(max)))
		ops := make([]byte, 5*max+300)
		for i := range ops {
			ops[i] = byte(rng.Intn(255))
			if rng.Intn(200) == 0 {
				ops[i] = 0xFF
			}
		}
		driveWindow(t, max, ops)
		for _, ops := range lossSequences(max) {
			driveWindow(t, max, ops)
		}

		// Continuous values: no duplicates, windows wrapping many times.
		var w window
		var o oracleWindow
		for step := 0; step < 6*max+50; step++ {
			rtt, loss := math.Max(0.1, 40+rng.NormFloat64()*30), rng.Float64()
			w.add(rtt, loss, max)
			o.add(rtt, loss, max)
			checkWindow(t, step, max, &w, &o)
		}
	}
}

func FuzzWindowOrderStats(f *testing.F) {
	f.Add(uint8(0), []byte{1, 1, 1})
	f.Add(uint8(1), []byte{5, 0, 5, 0xFF, 3})
	f.Add(uint8(63), []byte("the quick brown fox jumps over the lazy dog, twice over the window"))
	f.Add(uint8(255), []byte{0, 0x10, 0x20, 0xFF, 0xF0})
	for _, max := range []int{1, 5, 64} {
		for _, ops := range lossSequences(max) {
			f.Add(uint8(max-1), ops)
		}
	}
	f.Fuzz(func(t *testing.T, max uint8, ops []byte) {
		driveWindow(t, int(max)+1, ops)
	})
}

func TestNewMeasurerRejectsUnaddressableWindow(t *testing.T) {
	tab, src := mkTable(t, 1, nil)
	for _, n := range []int{-1, MaxWindowSamples + 1, 1 << 16} {
		if _, err := NewMeasurer(Config{Routes: tab, Source: src, WindowSamples: n}); err == nil {
			t.Errorf("WindowSamples %d accepted", n)
		}
	}
	for _, n := range []int{0, 1, MaxWindowSamples} {
		if _, err := NewMeasurer(Config{Routes: tab, Source: src, WindowSamples: n}); err != nil {
			t.Errorf("WindowSamples %d: %v", n, err)
		}
	}
}

// oracleReport is the retired reportLocked: copy-and-sort percentiles,
// sort.Slice ordering, a linear BestAlt scan.
func oracleReport(p netip.Prefix, pw *prefixWindows) *PrefixReport {
	var paths []PathStat
	for i := range pw.paths {
		w := &pw.paths[i]
		if len(w.samples) == 0 {
			continue
		}
		paths = append(paths, PathStat{
			Route: w.route, Primary: w.primary,
			P50: oraclePercentile(w.samples, 0.50), P90: oraclePercentile(w.samples, 0.90),
			RetransFrac: oracleMean(w.retrans), N: len(w.samples),
		})
	}
	if len(paths) == 0 {
		return nil
	}
	sort.Slice(paths, func(a, b int) bool {
		if paths[a].Primary != paths[b].Primary {
			return paths[a].Primary
		}
		return paths[a].P50 < paths[b].P50
	})
	if !paths[0].Primary {
		return nil
	}
	rep := &PrefixReport{Prefix: p, Paths: paths}
	for i := 1; i < len(paths); i++ {
		if rep.BestAlt == nil || paths[i].P50 < rep.BestAlt.P50 {
			rep.BestAlt = &paths[i]
		}
	}
	if rep.BestAlt != nil {
		rep.GapMS = paths[0].P50 - rep.BestAlt.P50
	}
	return rep
}

func sameReport(a, b *PrefixReport) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("nil mismatch: %v vs %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Prefix != b.Prefix || len(a.Paths) != len(b.Paths) {
		return fmt.Errorf("prefix/len: %v/%d vs %v/%d", a.Prefix, len(a.Paths), b.Prefix, len(b.Paths))
	}
	for i := range a.Paths {
		if a.Paths[i] != b.Paths[i] {
			return fmt.Errorf("path %d: %+v vs %+v", i, a.Paths[i], b.Paths[i])
		}
	}
	if math.Float64bits(a.GapMS) != math.Float64bits(b.GapMS) {
		return fmt.Errorf("gap %v vs %v", a.GapMS, b.GapMS)
	}
	alt := func(r *PrefixReport) int {
		for i := range r.Paths {
			if r.BestAlt == &r.Paths[i] {
				return i
			}
		}
		return -1
	}
	if alt(a) != alt(b) {
		return fmt.Errorf("BestAlt index %d vs %d", alt(a), alt(b))
	}
	return nil
}

// Reports() must equal {Report(p)} and the retired per-prefix report,
// across rounds that exercise every reconcile case: a withdrawal, a
// primary flip, a next-hop change, a controller injection, a prefix
// falling below two routes.
func TestReportsMatchReportAcrossReconciles(t *testing.T) {
	const nPrefixes = 6
	tab := rib.NewTable(rib.DefaultPolicy())
	src := lossModelSource{modelSource: modelSource{}, loss: map[string]float64{}}
	peers := []struct {
		addr  string
		class rib.PeerClass
		pref  uint32
	}{
		{"172.20.0.1", rib.ClassPrivate, 400},
		{"172.20.0.2", rib.ClassPublic, 300},
		{"172.20.0.8", rib.ClassTransit, 200},
		{"172.20.0.9", rib.ClassTransit, 190},
	}
	add := func(p netip.Prefix, peer int, pref uint32, nh string, ifidx int) {
		pr := peers[peer]
		tab.Add(&rib.Route{
			Prefix: p, NextHop: netip.MustParseAddr(nh), PeerAddr: netip.MustParseAddr(pr.addr),
			PeerClass: pr.class, ASPath: []uint32{65010}, EgressIF: ifidx, LocalPref: pref,
		})
	}
	ps := prefixes(nPrefixes)
	for i, p := range ps {
		for k, pr := range peers {
			add(p, k, pr.pref, pr.addr, k)
			src.modelSource[p.String()+"|"+pr.addr] = 20 + 9*float64(k) + float64(i)
			src.loss[p.String()+"|"+pr.addr] = 0.01 * float64(k)
		}
	}
	m, err := NewMeasurer(Config{Routes: tab, Source: src, Seed: 12, MaxAltPaths: 2, WindowSamples: 16})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		byPrefix := make(map[netip.Prefix]*PrefixReport)
		for _, rep := range m.Reports() {
			if byPrefix[rep.Prefix] != nil {
				t.Fatalf("%s: %v reported twice", when, rep.Prefix)
			}
			byPrefix[rep.Prefix] = rep
		}
		for _, p := range ps {
			if err := sameReport(byPrefix[p], m.Report(p)); err != nil {
				t.Errorf("%s: %v: Reports vs Report: %v", when, p, err)
			}
			var want *PrefixReport
			if pw := m.byPrefix[p]; pw != nil {
				want = oracleReport(p, pw)
			}
			if err := sameReport(byPrefix[p], want); err != nil {
				t.Errorf("%s: %v: Reports vs oracle: %v", when, p, err)
			}
		}
	}
	rounds := func(n int, when string) {
		t.Helper()
		for i := 0; i < n; i++ {
			m.MeasureRound(ps)
			check(fmt.Sprintf("%s round %d", when, i))
		}
	}
	rounds(6, "steady")
	if got := len(m.Reports()); got != nPrefixes {
		t.Fatalf("reports = %d, want %d", got, nPrefixes)
	}

	tab.Remove(ps[0], netip.MustParseAddr(peers[1].addr)) // withdrawal of a measured alternate
	add(ps[1], 0, 100, peers[0].addr, 0)                  // primary drops past the measured limit
	add(ps[2], 2, peers[2].pref, "172.20.0.77", 7)        // same peer, new next hop and port
	tab.Add(&rib.Route{                                   // controller injection shadows the organic best
		Prefix: ps[3], NextHop: netip.MustParseAddr(peers[2].addr), PeerAddr: netip.MustParseAddr("10.255.0.100"),
		PeerClass: rib.ClassController, FromIBGP: true, LocalPref: rib.PrefController,
	})
	for k := 1; k < len(peers); k++ { // below two organic routes: windows dropped
		tab.Remove(ps[4], netip.MustParseAddr(peers[k].addr))
	}
	rounds(5, "after changes")
	if rep := m.Report(ps[4]); rep != nil {
		t.Errorf("single-route prefix still reported: %+v", rep)
	}
	if rep := m.Report(ps[1]); rep == nil || rep.Paths[0].Route.PeerAddr != netip.MustParseAddr(peers[1].addr) {
		t.Errorf("primary after flip = %+v", rep)
	}
	for _, ps := range m.Report(ps[2]).Paths {
		if ps.Route.PeerAddr == netip.MustParseAddr(peers[2].addr) && ps.N > 5*4 {
			t.Errorf("window not reset on next-hop change: N = %d", ps.N)
		}
	}

	add(ps[4], 1, peers[1].pref, peers[1].addr, 1) // measurable again: fresh windows
	rounds(3, "after return")
	if rep := m.Report(ps[4]); rep == nil || rep.Paths[0].N != 3*4 {
		t.Errorf("returned prefix report = %+v, want 12 fresh samples", rep)
	}
}
