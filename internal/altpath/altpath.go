// Package altpath implements Edge Fabric's alternate-path measurement
// subsystem (paper §6). Production Edge Fabric steers a small random
// slice of flows onto the 2nd/3rd-preferred and transit routes by
// marking them with distinct DSCP values that policy routing maps to
// injected alternate routes; server-side TCP statistics then yield
// per-(prefix, path) RTT and retransmit rate. Here the DSCP plumbing is
// abstracted behind an RTTSource (the simulator's dataplane), while the
// sampling, aggregation, and reporting logic match the paper's design.
//
// A sample's noise belongs to its flow: it is a pure function of (seed,
// prefix, round, path index, sample), drawn from a keyed hash by the
// worker that consumes it, so neither the order nor the subset of
// prefixes a round is given changes any prefix's samples. A round runs
// on every core: one serial pass does the map and RIB work, and workers
// then take contiguous prefix ranges, sampling the source, filling the
// windows and building each prefix's report while they are cache-hot.
package altpath

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"edgefabric/internal/rib"
)

// RTTSource "measures" flows routed via a specific route — in the
// simulator, the path-performance model; in production, sampled
// connections' TCP RTT and the server-side retransmit counters.
//
// The source is a path model, not a per-flow sampler: MeasureRound calls
// it once per (prefix, path) per round and adds its own per-sample RTT
// noise, so both results must be functions of (p, r) for the duration of
// a round. One round may call the source from several goroutines at once
// (one per worker, each on different prefixes), so it must be safe for
// concurrent use.
type RTTSource interface {
	// RTTForRoute returns the RTT in milliseconds a flow to prefix p
	// experiences when routed via r.
	RTTForRoute(p netip.Prefix, r *rib.Route) float64
	// LossForRoute returns the retransmit fraction in [0,1] a flow to
	// prefix p experiences when routed via r.
	LossForRoute(p netip.Prefix, r *rib.Route) float64
}

// Config parameterizes a Measurer.
type Config struct {
	// Routes supplies all known routes per prefix (the controller's
	// route store table).
	Routes *rib.Table
	// Source measures individual sampled flows; required.
	Source RTTSource
	// MaxAltPaths is how many alternate routes are measured per prefix,
	// matching the number of spare DSCP marks. Default 3.
	MaxAltPaths int
	// SamplesPerRound is how many flows are sampled onto each measured
	// path per measurement round. Default 4.
	SamplesPerRound int
	// NoiseMS is the σ of Gaussian measurement noise per sampled flow.
	// Default 2 ms.
	NoiseMS float64
	// WindowSamples bounds the per-path sample buffer; older samples
	// fall off. Default 64, at most MaxWindowSamples. A prefix left
	// unmeasured for WindowSamples/SamplesPerRound rounds (the rounds
	// that would have replaced its whole window) loses its windows, so
	// it returns on fresh samples only.
	WindowSamples int
	// Seed keys the sampling noise.
	Seed int64
}

func (c *Config) setDefaults() {
	c.MaxAltPaths = cmp.Or(c.MaxAltPaths, 3)
	c.SamplesPerRound = cmp.Or(c.SamplesPerRound, 4)
	c.NoiseMS = cmp.Or(c.NoiseMS, 2)
	c.WindowSamples = cmp.Or(c.WindowSamples, 64)
}

// PathStat summarizes measurements of one (prefix, route) pair.
type PathStat struct {
	// Route is the measured route.
	Route *rib.Route
	// Primary marks BGP's preferred path.
	Primary bool
	// P50 and P90 are RTT percentiles over the sample window, in ms.
	P50, P90 float64
	// RetransFrac is the mean retransmit (loss) fraction over the
	// window, in [0,1].
	RetransFrac float64
	// N is the number of samples in the window.
	N int
}

// PrefixReport compares a prefix's primary path to its best measured
// alternate.
type PrefixReport struct {
	Prefix netip.Prefix
	// Paths holds all measured paths, primary first.
	Paths []PathStat
	// GapMS is primary P50 − best alternate P50; positive means some
	// alternate is faster.
	GapMS float64
	// BestAlt is the fastest alternate (nil if none measured).
	BestAlt *PathStat
}

// Measurer samples flows onto alternate paths and aggregates
// per-(prefix, path) RTT/retransmit windows. Safe for concurrent use,
// except that the view Reports returns must not outlive the next round.
type Measurer struct {
	cfg    Config
	maxAge uint64 // rounds a prefix may go unmeasured before its windows are dropped

	mu       sync.Mutex
	byPrefix map[netip.Prefix]*prefixWindows
	round    uint64 // rounds run so far; the current round's number during one
	// windows counts the windows byPrefix holds, and rings those of them
	// that hold a retransmit ring (see Windows).
	windows, rings int

	// Per-round scratch, reused across rounds.
	views   []rib.RouteView // the round's RIB snapshot
	organic []*rib.Route    // organic route lists of prefixes that also carry injected routes
	jobs    []job           // the round's measured prefixes, in the order given
	workers []*worker       // created on first use, each bound to its own arenas
	wg      sync.WaitGroup
	reports []*PrefixReport // the last round's reports: Reports' borrowed view
}

// minChunk is the fewest prefixes worth a worker of their own: below it,
// starting and joining a goroutine costs more than the sampling it
// takes off the calling one.
const minChunk = 512

// job is one prefix a round measures: its windows and the routes
// sampled (primary first).
type job struct {
	p      netip.Prefix
	pw     *prefixWindows
	routes []*rib.Route
}

// worker measures a contiguous range of a round's jobs and builds their
// reports into arenas it keeps across rounds.
type worker struct {
	m    *Measurer
	jobs []job
	// stats, reps and out are the report arenas: out points into reps,
	// reps' Paths into stats.
	stats []PathStat
	reps  []PrefixReport
	out   []*PrefixReport
	// windows and rings tally the round's measured window sets.
	windows, rings int
	// run is measure bound once at creation: `go w.run()` starts the
	// worker without the heap closure a per-round method value or a call
	// with arguments would build.
	run func()
}

// prefixWindows holds one prefix's measurement state: a window per
// currently-measured peer (at most a handful, so a slice scanned
// linearly), the route-table generation the set was last reconciled
// against, and the round that last measured it.
type prefixWindows struct {
	paths []window
	gen   uint64
	last  uint64
}

// tally returns the set's window count and how many of its windows
// hold a retransmit ring.
func (pw *prefixWindows) tally() (windows, rings int) {
	for i := range pw.paths {
		if pw.paths[i].retrans != nil {
			rings++
		}
	}
	return len(pw.paths), rings
}

// find returns the window measuring peer's path, or nil.
func (pw *prefixWindows) find(peer netip.Addr) *window {
	for i := range pw.paths {
		if pw.paths[i].route.PeerAddr == peer {
			return &pw.paths[i]
		}
	}
	return nil
}

// MaxWindowSamples is the largest Config.WindowSamples: a window's order
// index addresses its ring slots with one byte each.
const MaxWindowSamples = 256

// window is one path's sample ring in arrival order plus an order index
// over it: order lists the ring's slot numbers ascending by RTT, kept
// current by add, so a percentile is a single indexed read instead of a
// copy and a sort. The sample and order rings are allocated once, at
// their full size, on the first add. retrans is nil until the window's
// first non-zero retransmit sample, so a clean path, the common case,
// holds no retransmit ring at all; once allocated it runs in step with
// the samples (earlier slots read zero). lossy counts the ring's
// non-zero samples, so a clean window's mean is known without a sum.
// Samples must not be NaN (MeasureRound clamps).
type window struct {
	samples []float64
	retrans []float64
	order   []uint8
	next    int
	lossy   int
	primary bool
	route   *rib.Route // never nil; its PeerAddr keys the window
}

func (w *window) add(rtt, loss float64, max int) {
	if loss != 0 {
		w.lossy++
	}
	slot := len(w.samples)
	if slot < max {
		if w.samples == nil {
			w.samples = make([]float64, 0, max)
			w.order = make([]uint8, 0, max)
		}
		w.samples = append(w.samples, rtt)
		if loss != 0 && w.retrans == nil {
			w.retrans = make([]float64, slot, max)
		}
		if w.retrans != nil {
			w.retrans = append(w.retrans, loss)
		}
		// Open a gap in the order index after the samples <= rtt.
		at := w.rank(w.order, rtt)
		w.order = append(w.order, 0)
		copy(w.order[at+1:], w.order[at:])
		w.order[at] = uint8(slot)
		return
	}
	// Full: the oldest sample's slot takes the new one. A window whose
	// retransmit samples are all zero reads and writes them only once a
	// loss arrives.
	slot = w.next
	w.next = (w.next + 1) % max
	if w.lossy > 0 {
		if w.retrans == nil {
			w.retrans = make([]float64, max)
		}
		if w.retrans[slot] != 0 {
			w.lossy--
		}
		w.retrans[slot] = loss
	}
	old := w.samples[slot]
	w.samples[slot] = rtt
	// The slot moves through the order index from the old sample's rank
	// to the new one's (after any equal values) in one shift.
	at := bytes.IndexByte(w.order, uint8(slot))
	if rtt >= old {
		to := at + w.rank(w.order[at+1:], rtt)
		copy(w.order[at:to], w.order[at+1:to+1])
		w.order[to] = uint8(slot)
	} else {
		to := w.rank(w.order[:at], rtt)
		copy(w.order[to+1:at+1], w.order[to:at])
		w.order[to] = uint8(slot)
	}
}

// rank returns how many leading entries of idx, a run of the order
// index, have a sample <= rtt.
func (w *window) rank(idx []uint8, rtt float64) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.samples[idx[mid]] <= rtt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// percentile returns sorted(samples)[int(q*(n-1))].
func (w *window) percentile(q float64) float64 {
	if len(w.samples) == 0 {
		return 0
	}
	return w.samples[w.order[int(q*float64(len(w.samples)-1))]]
}

// meanRetrans is the mean of the retransmit samples, summed in slot
// order; a window with no non-zero sample sums to exactly zero, so it
// skips the sum (and may hold no ring).
func (w *window) meanRetrans() float64 {
	if w.lossy == 0 {
		return 0
	}
	var sum float64
	for _, v := range w.retrans {
		sum += v
	}
	return sum / float64(len(w.retrans))
}

// reset discards the samples, keeping the rings allocated (an allocated
// retransmit ring then fills in step with the samples again): the path
// this window measured changed identity, so its history describes a
// route that no longer exists.
func (w *window) reset() {
	w.samples = w.samples[:0]
	w.retrans = w.retrans[:0]
	w.order = w.order[:0]
	w.next = 0
	w.lossy = 0
}

// NewMeasurer returns a Measurer for cfg.
func NewMeasurer(cfg Config) (*Measurer, error) {
	cfg.setDefaults()
	if cfg.Routes == nil || cfg.Source == nil {
		return nil, fmt.Errorf("altpath: Routes and Source required")
	}
	if cfg.WindowSamples < 1 || cfg.WindowSamples > MaxWindowSamples {
		return nil, fmt.Errorf("altpath: WindowSamples %d outside [1, %d]", cfg.WindowSamples, MaxWindowSamples)
	}
	return &Measurer{
		cfg:      cfg,
		maxAge:   uint64(max(1, cfg.WindowSamples/cfg.SamplesPerRound)),
		byPrefix: make(map[netip.Prefix]*prefixWindows),
	}, nil
}

// MeasureRound samples the primary and up to MaxAltPaths alternates of
// each given prefix, as the production system continuously does for
// random user flows, and builds the prefixes' reports (see Reports).
// Prefixes without at least one alternate are skipped (and their stale
// windows pruned); a prefix listed twice is measured once. It returns
// the number of (prefix, path) pairs sampled.
//
// Each round reconciles a prefix's window set against the current route
// table, gated on the table's per-prefix generation so unchanged
// prefixes skip the work: windows for withdrawn routes are pruned (a
// stale window would otherwise surface a BestAlt the controller can no
// longer steer onto), stale primary flags are cleared when the
// preferred route changes, and a window whose peer now reaches the
// prefix over a different path (new next hop or egress interface) is
// reset rather than blended with the old path's history. A prefix left
// unmeasured for WindowSamples/SamplesPerRound rounds starts afresh.
//
// A prefix's samples do not depend on which other prefixes are listed,
// or in what order. The round runs on min(GOMAXPROCS, prefixes/512)
// goroutines, with the same result on any number.
func (m *Measurer) MeasureRound(prefixes []netip.Prefix) int {
	return m.measureRound(prefixes, runtime.GOMAXPROCS(0))
}

// measureRound is MeasureRound on at most maxWorkers goroutines.
func (m *Measurer) measureRound(prefixes []netip.Prefix, maxWorkers int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	measured := m.plan(prefixes)

	nw := max(1, min(maxWorkers, len(m.jobs)/minChunk))
	for len(m.workers) < nw {
		w := &worker{m: m}
		w.run = w.measure
		m.workers = append(m.workers, w)
	}
	for i, w := range m.workers[:nw] {
		w.jobs = m.jobs[i*len(m.jobs)/nw : (i+1)*len(m.jobs)/nw]
	}
	m.wg.Add(nw)
	for _, w := range m.workers[1:nw] {
		go w.run()
	}
	m.workers[0].measure()
	m.wg.Wait()

	m.reports = m.reports[:0]
	for _, w := range m.workers[:nw] {
		m.reports = append(m.reports, w.out...)
		m.windows += w.windows
		m.rings += w.rings
		w.jobs, w.windows, w.rings = nil, 0, 0
	}
	// Don't pin superseded route slices or windows between rounds.
	clear(m.views)
	clear(m.organic)
	clear(m.jobs)
	if m.round%m.maxAge == 0 {
		for p, pw := range m.byPrefix {
			if m.round-pw.last >= m.maxAge {
				m.untally(pw)
				delete(m.byPrefix, p)
			}
		}
	}
	return measured
}

// plan is a round's serial pass: it snapshots the prefixes' routes,
// reconciles, creates or drops their window sets, and queues one job per
// measured prefix. It returns the number of (prefix, path) pairs queued.
func (m *Measurer) plan(prefixes []netip.Prefix) int {
	m.round++
	// One read-lock for the whole round; the views share the table's
	// immutable route slices.
	m.views = m.cfg.Routes.SnapshotRoutesInto(prefixes, m.views)
	m.organic = m.organic[:0]
	m.jobs = m.jobs[:0]
	measured := 0
	for i, p := range prefixes {
		routes := m.views[i].Routes
		if m.views[i].Injected > 0 {
			start := len(m.organic)
			m.organic = appendOrganic(m.organic, routes)
			routes = m.organic[start:len(m.organic):len(m.organic)]
		}
		pw := m.byPrefix[p]
		if len(routes) < 2 {
			// No measurable alternate (or no routes at all): drop any
			// windows left from when the prefix had more paths.
			if pw != nil {
				m.untally(pw)
				delete(m.byPrefix, p)
			}
			continue
		}
		if pw != nil && pw.last == m.round {
			continue // listed twice
		}
		if pw != nil {
			m.untally(pw) // its worker tallies the set again once measured
		}
		limit := min(len(routes), 1+m.cfg.MaxAltPaths)
		if gen := m.views[i].Gen; pw == nil || m.round-pw.last > m.maxAge {
			pw = &prefixWindows{paths: make([]window, 0, limit), gen: gen}
			m.byPrefix[p] = pw
		} else if pw.gen != gen {
			pw.reconcile(routes)
			pw.gen = gen
		}
		pw.last = m.round
		m.jobs = append(m.jobs, job{p: p, pw: pw, routes: routes[:limit]})
		measured += limit
	}
	return measured
}

// measure samples every path of the worker's jobs and builds each
// prefix's report straight after, into the worker's arenas.
func (w *worker) measure() {
	defer w.m.wg.Done()
	m := w.m
	spr := m.cfg.SamplesPerRound
	if cap(w.reps) < len(w.jobs) {
		w.reps = make([]PrefixReport, len(w.jobs))
	}
	if want := len(w.jobs) * (1 + m.cfg.MaxAltPaths); cap(w.stats) < want {
		w.stats = make([]PathStat, 0, want)
	}
	w.stats = w.stats[:0]
	w.out = w.out[:0]
	for i := range w.jobs {
		j := &w.jobs[i]
		pw := j.pw
		key := roundKey(m.cfg.Seed, j.p, m.round)
		for k, r := range j.routes {
			win := pw.find(r.PeerAddr)
			if win == nil {
				pw.paths = append(pw.paths, window{route: r})
				win = &pw.paths[len(pw.paths)-1]
			}
			win.primary = k == 0
			win.route = r
			base := m.cfg.Source.RTTForRoute(j.p, r)
			loss := m.cfg.Source.LossForRoute(j.p, r)
			s := mix64(key + uint64(k)) // path k's noise stream
			var z [2]float64
			for n := range spr {
				if n%2 == 0 {
					z = normalPair(s + uint64(n)*golden)
				}
				rtt := base + z[n%2]*m.cfg.NoiseMS
				if !(rtt >= 0.1) { // floor; also keeps NaN out of the order index
					rtt = 0.1
				}
				win.add(rtt, loss, m.cfg.WindowSamples)
			}
		}
		if cap(w.stats)-len(w.stats) < len(pw.paths) {
			// Reports already built point into the full arena: carry on
			// in a fresh one, which the next round reuses whole.
			w.stats = make([]PathStat, 0, max(2*cap(w.stats), len(pw.paths)))
		}
		windows, rings := pw.tally()
		w.windows += windows
		w.rings += rings
		rep := &w.reps[len(w.out)]
		if stats, ok := pw.report(j.p, rep, w.stats); ok {
			w.stats = stats
			w.out = append(w.out, rep)
		}
	}
}

// untally takes a window set that is being dropped or re-measured out
// of the measurer's window counts.
func (m *Measurer) untally(pw *prefixWindows) {
	windows, rings := pw.tally()
	m.windows -= windows
	m.rings -= rings
}

// golden is splitmix64's increment between successive stream states.
const golden uint64 = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function: a bijection that avalanches.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// roundKey keys the noise of prefix p's samples in the given round;
// path k's stream starts at mix64(key + k).
func roundKey(seed int64, p netip.Prefix, round uint64) uint64 {
	a := p.Addr().As16()
	k := mix64(mix64(uint64(seed)^binary.BigEndian.Uint64(a[:8])) ^ binary.BigEndian.Uint64(a[8:]))
	return mix64(k ^ uint64(p.Bits())<<56 ^ round)
}

// normalPair maps the two stream states after s to two independent
// standard normal deviates (Box–Muller).
func normalPair(s uint64) [2]float64 {
	u1 := float64(mix64(s+golden)>>11+1) / (1 << 53) // (0, 1]: Log stays finite
	u2 := float64(mix64(s+golden+golden)>>11) / (1 << 53)
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	return [2]float64{r * cos, r * sin}
}

// reconcile aligns one prefix's window set with its current organic
// routes after a table change: windows for withdrawn peers are pruned,
// every surviving primary flag is cleared (MeasureRound re-marks the
// current preferred route, including windows beyond the measured limit
// that would otherwise keep a stale flag), and windows whose peer's
// route changed path identity are reset.
func (pw *prefixWindows) reconcile(routes []*rib.Route) {
	kept := pw.paths[:0]
	for _, w := range pw.paths {
		i := slices.IndexFunc(routes, func(r *rib.Route) bool { return r.PeerAddr == w.route.PeerAddr })
		if i < 0 {
			continue
		}
		r := routes[i]
		w.primary = false
		if w.route.NextHop != r.NextHop || w.route.EgressIF != r.EgressIF {
			w.reset()
		}
		w.route = r
		kept = append(kept, w)
	}
	clear(pw.paths[len(kept):]) // release the pruned windows' buffers
	pw.paths = kept
}

// appendOrganic appends routes minus the controller-injected ones to
// dst: measurements compare BGP's own options.
func appendOrganic(dst, routes []*rib.Route) []*rib.Route {
	for _, r := range routes {
		if r.PeerClass != rib.ClassController {
			dst = append(dst, r)
		}
	}
	return dst
}

// Report builds the comparison report for one prefix from its current
// windows, or nil if the prefix has no measured primary (or has gone
// unmeasured long enough to lose its windows). The result is the
// caller's.
func (m *Measurer) Report(p netip.Prefix) *PrefixReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	pw := m.byPrefix[p]
	if pw == nil || m.round-pw.last >= m.maxAge {
		return nil
	}
	rep := &PrefixReport{}
	if _, ok := pw.report(p, rep, make([]PathStat, 0, len(pw.paths))); !ok {
		return nil
	}
	return rep
}

// report fills rep from the prefix's non-empty windows, carving its
// Paths from the tail of stats (which must have the capacity: BestAlt
// points into it). It returns the extended arena, or the arena as given
// and false when the prefix has no measured primary.
func (pw *prefixWindows) report(p netip.Prefix, rep *PrefixReport, stats []PathStat) ([]PathStat, bool) {
	start := len(stats)
	for i := range pw.paths {
		w := &pw.paths[i]
		if len(w.samples) == 0 {
			continue
		}
		ps := PathStat{
			Route:       w.route,
			Primary:     w.primary,
			P50:         w.percentile(0.50),
			P90:         w.percentile(0.90),
			RetransFrac: w.meanRetrans(),
			N:           len(w.samples),
		}
		// Insertion sort: primary first, then ascending P50.
		stats = append(stats, ps)
		j := len(stats) - 1
		for ; j > start && statBefore(&ps, &stats[j-1]); j-- {
			stats[j] = stats[j-1]
		}
		stats[j] = ps
	}
	paths := stats[start:len(stats):len(stats)]
	if len(paths) == 0 || !paths[0].Primary {
		return stats[:start], false // no primary measured
	}
	*rep = PrefixReport{Prefix: p, Paths: paths}
	if len(paths) > 1 {
		// Alternates are P50-ascending, so the first is the fastest.
		rep.BestAlt = &paths[1]
		rep.GapMS = paths[0].P50 - rep.BestAlt.P50
	}
	return stats, true
}

func statBefore(a, b *PathStat) bool {
	if a.Primary != b.Primary {
		return a.Primary
	}
	return a.P50 < b.P50
}

// Windows returns how many windows the measurer holds, and how many of
// them hold a retransmit ring because their path reported a loss: the
// two sizes its heap grows with.
func (m *Measurer) Windows() (windows, lossy int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windows, m.rings
}

// Reports returns the last round's reports, one per prefix it measured,
// in the order MeasureRound was given them. The result is a borrowed
// view of the Measurer's own arenas, built during the round: it costs
// nothing, is valid only until the next MeasureRound, and its reports
// must not be modified (the slice itself may be reordered).
func (m *Measurer) Reports() []*PrefixReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports
}

// GapCDF summarizes the last round's prefixes: the fraction whose best
// alternate beats the primary's median RTT by at least each of the
// given thresholds (in ms). This regenerates the paper's §6 headline
// ("for ~5% of prefixes an alternate is ≥20 ms faster").
//
// The denominator is the number of prefixes *with a measured
// alternate* (the paper's population); reports whose alternates have
// produced no samples yet do not count against the fractions.
func (m *Measurer) GapCDF(thresholdsMS ...float64) map[float64]float64 {
	reports := m.Reports()
	out := make(map[float64]float64, len(thresholdsMS))
	withAlt := 0
	for _, rep := range reports {
		if rep.BestAlt != nil {
			withAlt++
		}
	}
	if withAlt == 0 {
		return out
	}
	for _, th := range thresholdsMS {
		n := 0
		for _, rep := range reports {
			if rep.BestAlt != nil && rep.GapMS >= th {
				n++
			}
		}
		out[th] = float64(n) / float64(withAlt)
	}
	return out
}
