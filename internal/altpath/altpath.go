// Package altpath implements Edge Fabric's alternate-path measurement
// subsystem (paper §6). Production Edge Fabric steers a small random
// slice of flows onto the 2nd/3rd-preferred and transit routes by
// marking them with distinct DSCP values that policy routing maps to
// injected alternate routes; server-side TCP statistics then yield
// per-(prefix, path) performance. Here the DSCP plumbing is abstracted
// behind an RTTSource (the simulator's dataplane), while the sampling,
// aggregation, and reporting logic match the paper's design.
package altpath

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"

	"edgefabric/internal/rib"
)

// RTTSource "measures" one flow routed via a specific route — in the
// simulator, the path-performance model; in production, a sampled
// connection's TCP RTT.
//
// The source is a path model, not a per-flow sampler: MeasureRound calls
// it once per (prefix, path) per round and adds its own per-sample noise,
// so the result must be a function of (p, r) for the duration of a round.
// LossSource is held to the same contract.
type RTTSource interface {
	// RTTForRoute returns the RTT in milliseconds a flow to prefix p
	// experiences when routed via r.
	RTTForRoute(p netip.Prefix, r *rib.Route) float64
}

// LossSource optionally extends an RTTSource with per-path loss: the
// fraction of a sampled flow's segments that needed retransmission. The
// production analogue is the server-side TCP retransmit counters the
// paper's measurement pipeline already collects alongside RTT. A Source
// that does not implement LossSource yields zero retransmit stats.
type LossSource interface {
	// LossForRoute returns the retransmit fraction in [0,1] a flow to
	// prefix p experiences when routed via r.
	LossForRoute(p netip.Prefix, r *rib.Route) float64
}

// Config parameterizes a Measurer.
type Config struct {
	// Routes supplies all known routes per prefix (the controller's
	// route store table).
	Routes *rib.Table
	// Source measures individual sampled flows; required. If it also
	// implements LossSource, per-path retransmit fractions are
	// collected.
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
	// fall off. Default 64, at most MaxWindowSamples.
	WindowSamples int
	// Seed drives sampling noise.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.MaxAltPaths == 0 {
		c.MaxAltPaths = 3
	}
	if c.SamplesPerRound == 0 {
		c.SamplesPerRound = 4
	}
	if c.NoiseMS == 0 {
		c.NoiseMS = 2
	}
	if c.WindowSamples == 0 {
		c.WindowSamples = 64
	}
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
	// window, in [0,1]. Zero when the source measures only RTT.
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
// per-(prefix, path) RTT/retransmit windows. Safe for concurrent use.
type Measurer struct {
	cfg  Config
	loss LossSource // nil when the source measures only RTT

	mu       sync.Mutex
	rng      *rand.Rand
	byPrefix map[netip.Prefix]*prefixWindows
	views    []rib.RouteView // MeasureRound's RIB snapshot, reused across rounds
}

// prefixWindows holds one prefix's measurement state: a window per
// currently-measured peer (at most a handful, so a slice scanned
// linearly), plus the route-table generation the set was last
// reconciled against.
type prefixWindows struct {
	paths []window
	gen   uint64
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
// copy and a sort. Samples must not be NaN (MeasureRound clamps).
type window struct {
	samples []float64
	retrans []float64
	order   []uint8
	next    int
	primary bool
	route   *rib.Route // never nil; its PeerAddr keys the window
}

func (w *window) add(rtt, loss float64, max int) {
	slot := len(w.samples)
	if slot < max {
		w.samples = append(w.samples, rtt)
		w.retrans = append(w.retrans, loss)
		w.order = append(w.order, 0)
	} else {
		// Full: the oldest sample's slot is reused; close its gap in the
		// order index first.
		slot = w.next
		w.next = (w.next + 1) % max
		at := bytes.IndexByte(w.order, uint8(slot))
		copy(w.order[at:], w.order[at+1:])
		w.samples[slot] = rtt
		w.retrans[slot] = loss
	}
	// Binary-search the insertion point among the n indexed samples
	// (after any equal values) and open a gap there.
	n := len(w.order) - 1
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.samples[w.order[mid]] <= rtt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(w.order[lo+1:], w.order[lo:n])
	w.order[lo] = uint8(slot)
}

// percentile returns sorted(samples)[int(q*(n-1))].
func (w *window) percentile(q float64) float64 {
	if len(w.samples) == 0 {
		return 0
	}
	return w.samples[w.order[int(q*float64(len(w.samples)-1))]]
}

func (w *window) meanRetrans() float64 {
	if len(w.retrans) == 0 {
		return 0
	}
	var sum float64
	for _, v := range w.retrans {
		sum += v
	}
	return sum / float64(len(w.retrans))
}

// reset discards the sample buffers, keeping the backing arrays: the
// path this window measured changed identity, so its history describes
// a route that no longer exists.
func (w *window) reset() {
	w.samples = w.samples[:0]
	w.retrans = w.retrans[:0]
	w.order = w.order[:0]
	w.next = 0
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
	m := &Measurer{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		byPrefix: make(map[netip.Prefix]*prefixWindows),
	}
	if ls, ok := cfg.Source.(LossSource); ok {
		m.loss = ls
	}
	return m, nil
}

// MeasureRound samples the primary and up to MaxAltPaths alternates of
// each given prefix, as the production system continuously does for
// random user flows. Prefixes without at least one alternate are
// skipped (and their stale windows pruned). It returns the number of
// (prefix, path) pairs sampled.
//
// Each round reconciles a prefix's window set against the current route
// table, gated on the table's per-prefix generation so unchanged
// prefixes skip the work: windows for withdrawn routes are pruned (a
// stale window would otherwise surface a BestAlt the controller can no
// longer steer onto), stale primary flags are cleared when the
// preferred route changes, and a window whose peer now reaches the
// prefix over a different path (new next hop or egress interface) is
// reset rather than blended with the old path's history.
func (m *Measurer) MeasureRound(prefixes []netip.Prefix) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	// One read-lock for the whole round; the views share the table's
	// immutable route slices.
	m.views = m.cfg.Routes.SnapshotRoutesInto(prefixes, m.views)
	defer clear(m.views) // don't pin superseded route slices between rounds
	measured := 0
	for i, p := range prefixes {
		routes := m.views[i].Routes
		if m.views[i].Injected > 0 {
			routes = organic(routes)
		}
		pw := m.byPrefix[p]
		if len(routes) < 2 {
			// No measurable alternate (or no routes at all): drop any
			// windows left from when the prefix had more paths.
			if pw != nil {
				delete(m.byPrefix, p)
			}
			continue
		}
		limit := min(len(routes), 1+m.cfg.MaxAltPaths)
		if gen := m.views[i].Gen; pw == nil {
			pw = &prefixWindows{paths: make([]window, 0, limit), gen: gen}
			m.byPrefix[p] = pw
		} else if pw.gen != gen {
			pw.reconcile(routes)
			pw.gen = gen
		}
		for k, r := range routes[:limit] {
			w := pw.find(r.PeerAddr)
			if w == nil {
				pw.paths = append(pw.paths, window{route: r})
				w = &pw.paths[len(pw.paths)-1]
			}
			w.primary = k == 0
			w.route = r
			base := m.cfg.Source.RTTForRoute(p, r)
			var loss float64
			if m.loss != nil {
				loss = m.loss.LossForRoute(p, r)
			}
			for s := 0; s < m.cfg.SamplesPerRound; s++ {
				rtt := base + m.rng.NormFloat64()*m.cfg.NoiseMS
				if !(rtt >= 0.1) { // floor; also keeps NaN out of the order index
					rtt = 0.1
				}
				w.add(rtt, loss, m.cfg.WindowSamples)
			}
			measured++
		}
	}
	return measured
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

// organic filters out controller-injected routes: measurements compare
// BGP's own options.
func organic(routes []*rib.Route) []*rib.Route {
	out := routes[:0:0]
	for _, r := range routes {
		if r.PeerClass != rib.ClassController {
			out = append(out, r)
		}
	}
	return out
}

// Report builds the comparison report for one prefix, or nil if the
// prefix has no measured primary.
func (m *Measurer) Report(p netip.Prefix) *PrefixReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	pw := m.byPrefix[p]
	if pw == nil {
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

// Reports returns reports for all measured prefixes, in unspecified
// order. The result is the caller's: every call builds it in three
// fresh allocations (path stats, reports, pointers) shared by nothing
// else.
func (m *Measurer) Reports() []*PrefixReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	nStats := 0
	for _, pw := range m.byPrefix {
		nStats += len(pw.paths)
	}
	stats := make([]PathStat, 0, nStats)
	reps := make([]PrefixReport, len(m.byPrefix))
	out := make([]*PrefixReport, 0, len(m.byPrefix))
	for p, pw := range m.byPrefix {
		rep := &reps[len(out)]
		var ok bool
		if stats, ok = pw.report(p, rep, stats); ok {
			out = append(out, rep)
		}
	}
	return out
}

// GapCDF summarizes measured prefixes: the fraction whose best
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
