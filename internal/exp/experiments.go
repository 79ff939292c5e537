package exp

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"edgefabric/internal/altpath"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// quantile returns the q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := q * float64(len(xs)-1)
	lo := int(idx)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := idx - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// ---------------------------------------------------------------------
// E1: route diversity
// ---------------------------------------------------------------------

// DiversityResult reproduces the paper's §3 route-diversity analysis:
// how many distinct egress routes the PoP holds per prefix, unweighted
// and traffic-weighted.
type DiversityResult struct {
	// FracAtLeast[k] is the fraction of prefixes with ≥ k routes.
	FracAtLeast map[int]float64
	// WeightedAtLeast[k] is the same weighted by demand share.
	WeightedAtLeast map[int]float64
	// MedianRoutes is the unweighted median route count.
	MedianRoutes float64
}

// E1RouteDiversity computes route diversity over a converged harness.
func E1RouteDiversity(h *Harness) *DiversityResult {
	res := &DiversityResult{
		FracAtLeast:     make(map[int]float64),
		WeightedAtLeast: make(map[int]float64),
	}
	var counts []float64
	total := 0
	weightTotal := 0.0
	atLeast := make(map[int]float64)
	weightedAtLeast := make(map[int]float64)
	for _, pi := range h.Scenario.Prefixes {
		routes := h.PoP.Table.Routes(pi.Prefix)
		n := 0
		for _, r := range routes {
			if r.PeerClass != rib.ClassController {
				n++
			}
		}
		counts = append(counts, float64(n))
		total++
		weightTotal += pi.Weight
		for k := 1; k <= n; k++ {
			atLeast[k]++
			weightedAtLeast[k] += pi.Weight
		}
	}
	for k, c := range atLeast {
		res.FracAtLeast[k] = c / float64(total)
	}
	for k, w := range weightedAtLeast {
		res.WeightedAtLeast[k] = w / weightTotal
	}
	res.MedianRoutes = quantile(counts, 0.5)
	return res
}

// String renders the figure's rows.
func (r *DiversityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1 route diversity (median %.0f routes/prefix)\n", r.MedianRoutes)
	fmt.Fprintf(&b, "  %-10s %12s %12s\n", ">= routes", "prefixes", "traffic")
	for k := 1; k <= 6; k++ {
		if _, ok := r.FracAtLeast[k]; !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-10d %11.1f%% %11.1f%%\n",
			k, r.FracAtLeast[k]*100, r.WeightedAtLeast[k]*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// E2: projected overload without Edge Fabric
// ---------------------------------------------------------------------

// OverloadResult reproduces the §3 capacity-crunch characterization:
// with routing left to BGP, how hot do the preferred interfaces get
// over a day?
type OverloadResult struct {
	// PeakUtil maps interface name to its peak offered utilization.
	PeakUtil map[string]float64
	// FracOver100 / FracOver95 are fractions of interfaces whose peak
	// exceeds 100% / 95%.
	FracOver100, FracOver95 float64
	// DropTicksFrac is the fraction of ticks during which at least one
	// interface dropped traffic.
	DropTicksFrac float64
}

// E2ProjectedOverload simulates d of plain-BGP routing (the harness must
// have the controller disabled for a faithful baseline).
func E2ProjectedOverload(h *Harness, d time.Duration) *OverloadResult {
	res := &OverloadResult{PeakUtil: make(map[string]float64)}
	peak := make(map[int]float64)
	dropTicks, ticks := 0, 0
	h.Run(d, func(s *netsim.TickStats, _ *core.CycleReport) {
		ticks++
		dropped := false
		for _, ifc := range h.Scenario.Topo.Interfaces {
			u := s.IfLoadBps[ifc.ID] / ifc.CapacityBps
			if u > peak[ifc.ID] {
				peak[ifc.ID] = u
			}
			if u > 1 {
				dropped = true
			}
		}
		if dropped {
			dropTicks++
		}
	})
	n100, n95 := 0, 0
	for _, ifc := range h.Scenario.Topo.Interfaces {
		res.PeakUtil[ifc.Name] = peak[ifc.ID]
		if peak[ifc.ID] > 1 {
			n100++
		}
		if peak[ifc.ID] > 0.95 {
			n95++
		}
	}
	res.FracOver100 = float64(n100) / float64(len(h.Scenario.Topo.Interfaces))
	res.FracOver95 = float64(n95) / float64(len(h.Scenario.Topo.Interfaces))
	if ticks > 0 {
		res.DropTicksFrac = float64(dropTicks) / float64(ticks)
	}
	return res
}

// String renders the figure's rows.
func (r *OverloadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 projected overload without Edge Fabric\n")
	fmt.Fprintf(&b, "  interfaces peaking >100%%: %.0f%%   >95%%: %.0f%%   ticks with drops: %.0f%%\n",
		r.FracOver100*100, r.FracOver95*100, r.DropTicksFrac*100)
	names := make([]string, 0, len(r.PeakUtil))
	for n := range r.PeakUtil {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return r.PeakUtil[names[a]] > r.PeakUtil[names[b]] })
	for i, n := range names {
		if i >= 8 {
			break
		}
		fmt.Fprintf(&b, "  %-26s peak %6.1f%%\n", n, r.PeakUtil[n]*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// E3: traffic share per policy tier
// ---------------------------------------------------------------------

// TierShareResult reproduces the policy-table view: under plain BGP at
// peak, what share of egress rides each peering tier.
type TierShareResult struct {
	// Share maps tier to demand fraction.
	Share map[rib.PeerClass]float64
}

// E3PolicyTiers measures tier shares over one peak-hour tick.
func E3PolicyTiers(h *Harness) *TierShareResult {
	stats, _ := h.Step()
	res := &TierShareResult{Share: make(map[rib.PeerClass]float64)}
	var total float64
	for _, pt := range stats.Prefix {
		if pt.EgressIF < 0 {
			continue
		}
		res.Share[pt.Class] += pt.DemandBps
		total += pt.DemandBps
	}
	if total > 0 {
		for c := range res.Share {
			res.Share[c] /= total
		}
	}
	return res
}

// String renders the table.
func (r *TierShareResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E3 egress share by policy tier (plain BGP, peak)\n")
	for _, c := range []rib.PeerClass{rib.ClassPrivate, rib.ClassPublic, rib.ClassRouteServer, rib.ClassTransit} {
		fmt.Fprintf(&b, "  %-13s %6.1f%%\n", c, r.Share[c]*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// E4: detour volume over a day
// ---------------------------------------------------------------------

// DetourVolumeResult reproduces the §5 detour-volume analysis: what
// fraction of the PoP's traffic Edge Fabric detours over a day.
type DetourVolumeResult struct {
	// FracSeries is the per-cycle detoured fraction of demand.
	FracSeries []float64
	// Median, P95, Max summarize the series.
	Median, P95, Max float64
	// MeanOverrides is the average number of simultaneous overrides.
	MeanOverrides float64
}

// E4DetourVolume runs d with the controller and records detour volume.
func E4DetourVolume(h *Harness, d time.Duration) *DetourVolumeResult {
	res := &DetourVolumeResult{}
	var overridesSum, cycles float64
	h.Run(d, func(_ *netsim.TickStats, r *core.CycleReport) {
		if r == nil || r.DemandBps == 0 {
			return
		}
		res.FracSeries = append(res.FracSeries, r.DetouredBps/r.DemandBps)
		overridesSum += float64(len(r.Overrides))
		cycles++
	})
	series := append([]float64(nil), res.FracSeries...)
	res.Median = quantile(series, 0.5)
	res.P95 = quantile(series, 0.95)
	res.Max = quantile(series, 1)
	if cycles > 0 {
		res.MeanOverrides = overridesSum / cycles
	}
	return res
}

// String renders the summary.
func (r *DetourVolumeResult) String() string {
	return fmt.Sprintf(
		"E4 detour volume: median %.1f%%, p95 %.1f%%, max %.1f%% of demand; mean %.0f overrides active\n",
		r.Median*100, r.P95*100, r.Max*100, r.MeanOverrides)
}

// ---------------------------------------------------------------------
// E5: detour durations
// ---------------------------------------------------------------------

// DetourDurationResult reproduces the §5 duration CDF: how long a
// prefix stays detoured once steered.
type DetourDurationResult struct {
	// Durations holds completed detour episodes.
	Durations []time.Duration
	// P50, P90, Max summarize them.
	P50, P90, Max time.Duration
	// Episodes counts completed detours.
	Episodes int
}

// E5DetourDurations runs d and tracks per-prefix override episodes.
func E5DetourDurations(h *Harness, d time.Duration) *DetourDurationResult {
	res := &DetourDurationResult{}
	started := make(map[netip.Prefix]time.Time)
	h.Run(d, func(_ *netsim.TickStats, r *core.CycleReport) {
		if r == nil {
			return
		}
		now := r.Time
		current := core.NewOverrideSet(r.Overrides)
		for _, o := range current {
			if _, ok := started[o.Prefix]; !ok {
				started[o.Prefix] = now
			}
		}
		for p, t0 := range started {
			if _, ok := current.Lookup(p); !ok {
				res.Durations = append(res.Durations, now.Sub(t0))
				delete(started, p)
			}
		}
	})
	res.Episodes = len(res.Durations)
	secs := make([]float64, len(res.Durations))
	for i, d := range res.Durations {
		secs[i] = d.Seconds()
	}
	res.P50 = time.Duration(quantile(secs, 0.5) * float64(time.Second))
	res.P90 = time.Duration(quantile(secs, 0.9) * float64(time.Second))
	res.Max = time.Duration(quantile(secs, 1) * float64(time.Second))
	return res
}

// String renders the summary.
func (r *DetourDurationResult) String() string {
	return fmt.Sprintf("E5 detour durations: %d episodes, p50 %s, p90 %s, max %s\n",
		r.Episodes, r.P50, r.P90, r.Max)
}

// ---------------------------------------------------------------------
// E6: overload avoidance (with vs without controller)
// ---------------------------------------------------------------------

// AvoidanceResult reproduces the §5 headline: Edge Fabric keeps
// interfaces below capacity where plain BGP drops.
type AvoidanceResult struct {
	// Baseline / WithEF summarize each arm.
	Baseline, WithEF AvoidanceArm
}

// AvoidanceArm is one arm of the comparison.
type AvoidanceArm struct {
	// DropTicksFrac is the fraction of ticks with any drops.
	DropTicksFrac float64
	// DroppedFrac is dropped bytes over offered bytes.
	DroppedFrac float64
	// PeakUtil is the hottest interface-tick utilization seen.
	PeakUtil float64
}

// String renders the comparison.
func (r *AvoidanceResult) String() string {
	return fmt.Sprintf(
		"E6 overload avoidance\n"+
			"  %-12s drop-ticks %5.1f%%  dropped %6.3f%%  peak util %5.1f%%\n"+
			"  %-12s drop-ticks %5.1f%%  dropped %6.3f%%  peak util %5.1f%%\n",
		"plain BGP:", r.Baseline.DropTicksFrac*100, r.Baseline.DroppedFrac*100, r.Baseline.PeakUtil*100,
		"edge fabric:", r.WithEF.DropTicksFrac*100, r.WithEF.DroppedFrac*100, r.WithEF.PeakUtil*100)
}

// ---------------------------------------------------------------------
// E7: latency impact of detours
// ---------------------------------------------------------------------

// DetourLatencyResult reproduces the §5 latency analysis: the RTT
// difference detoured traffic experiences relative to the path BGP
// preferred.
type DetourLatencyResult struct {
	// DeltasMS holds per-(prefix, tick) RTT deltas (detour − preferred,
	// uncongested propagation only).
	DeltasMS []float64
	// P50, P90 summarize the deltas; FracFaster is the share of
	// detoured prefix-ticks where the detour was actually faster.
	P50, P90   float64
	FracFaster float64
}

// E7DetourLatency runs d with the controller and compares detoured
// prefixes' actual paths to their would-be preferred paths.
func E7DetourLatency(h *Harness, d time.Duration) *DetourLatencyResult {
	res := &DetourLatencyResult{}
	faster := 0
	h.Run(d, func(s *netsim.TickStats, _ *core.CycleReport) {
		for prefix, pt := range s.Prefix {
			if !pt.Injected {
				continue
			}
			// Preferred organic route (what BGP would have used).
			routes := h.PoP.Table.Routes(prefix)
			var preferred *rib.Route
			var actual *rib.Route
			for _, r := range routes {
				if r.PeerClass == rib.ClassController {
					actual = r
					continue
				}
				if preferred == nil {
					preferred = r
				}
			}
			if preferred == nil || actual == nil {
				continue
			}
			delta := h.PoP.Plane.RTTForRoute(prefix, actual) -
				h.PoP.Plane.RTTForRoute(prefix, preferred)
			res.DeltasMS = append(res.DeltasMS, delta)
			if delta < 0 {
				faster++
			}
		}
	})
	deltas := append([]float64(nil), res.DeltasMS...)
	res.P50 = quantile(deltas, 0.5)
	res.P90 = quantile(deltas, 0.9)
	if len(res.DeltasMS) > 0 {
		res.FracFaster = float64(faster) / float64(len(res.DeltasMS))
	}
	return res
}

// String renders the summary.
func (r *DetourLatencyResult) String() string {
	return fmt.Sprintf(
		"E7 detour latency delta: p50 %+.1f ms, p90 %+.1f ms over %d prefix-ticks (%.0f%% of detours faster than preferred)\n",
		r.P50, r.P90, len(r.DeltasMS), r.FracFaster*100)
}

// ---------------------------------------------------------------------
// E8: alternate-path performance gaps
// ---------------------------------------------------------------------

// AltPathResult reproduces the §6 measurement findings.
type AltPathResult struct {
	// FracGainAtLeast maps an RTT-gain threshold (ms) to the fraction
	// of prefixes whose best alternate beats the preferred path by at
	// least that much.
	FracGainAtLeast map[float64]float64
	// MedianGapV4MS / MedianGapV6MS split the median gap by family
	// (negative = preferred path is fastest).
	MedianGapV4MS, MedianGapV6MS float64
	// TransitFasterFrac is the share of prefixes where a *transit*
	// route beats every peer route.
	TransitFasterFrac float64
	// Prefixes is the number of measured prefixes.
	Prefixes int
}

// E8AltPathGaps measures every prefix's paths for the given number of
// rounds over the harness's measurer (created on demand if the harness
// is not perf-aware).
func E8AltPathGaps(h *Harness, rounds int) (*AltPathResult, error) {
	meas := h.Measurer
	if meas == nil {
		var err error
		meas, err = newMeasurerForHarness(h)
		if err != nil {
			return nil, err
		}
	}
	prefixes := make([]netip.Prefix, 0, len(h.Scenario.Prefixes))
	for _, pi := range h.Scenario.Prefixes {
		prefixes = append(prefixes, pi.Prefix)
	}
	for i := 0; i < rounds; i++ {
		meas.MeasureRound(prefixes)
	}
	res := &AltPathResult{FracGainAtLeast: meas.GapCDF(5, 10, 20, 50, 100)}
	var v4, v6 []float64
	transitFaster := 0
	reports := meas.Reports()
	for _, rep := range reports {
		if rep.Prefix.Addr().Is4() {
			v4 = append(v4, rep.GapMS)
		} else {
			v6 = append(v6, rep.GapMS)
		}
		if rep.BestAlt != nil && rep.GapMS > 0 &&
			rep.BestAlt.Route.PeerClass == rib.ClassTransit {
			transitFaster++
		}
	}
	res.Prefixes = len(reports)
	res.MedianGapV4MS = quantile(v4, 0.5)
	res.MedianGapV6MS = quantile(v6, 0.5)
	if len(reports) > 0 {
		res.TransitFasterFrac = float64(transitFaster) / float64(len(reports))
	}
	return res, nil
}

// newMeasurerForHarness builds a measurer over the harness's best route
// view: the controller's store when present, otherwise the PoP table.
func newMeasurerForHarness(h *Harness) (*altpath.Measurer, error) {
	routes := h.PoP.Table
	if h.Controller != nil {
		routes = h.Controller.Store().Table()
	}
	return altpath.NewMeasurer(altpath.Config{
		Routes: routes,
		Source: h.PoP.Plane,
		Seed:   h.Cfg.Synth.Seed,
	})
}

// String renders the summary.
func (r *AltPathResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8 alternate-path gaps over %d prefixes (median gap v4 %+.1f ms, v6 %+.1f ms)\n",
		r.Prefixes, r.MedianGapV4MS, r.MedianGapV6MS)
	ths := make([]float64, 0, len(r.FracGainAtLeast))
	for th := range r.FracGainAtLeast {
		ths = append(ths, th)
	}
	sort.Float64s(ths)
	for _, th := range ths {
		fmt.Fprintf(&b, "  alternate >= %3.0f ms faster: %5.1f%% of prefixes\n",
			th, r.FracGainAtLeast[th]*100)
	}
	fmt.Fprintf(&b, "  transit fastest for %.1f%% of prefixes\n", r.TransitFasterFrac*100)
	return b.String()
}

// ---------------------------------------------------------------------
// E9: flash-crowd reaction time
// ---------------------------------------------------------------------

// FlashReactionResult reproduces the §5 reaction analysis: time from
// demand spike to overload mitigation.
type FlashReactionResult struct {
	// OverloadAppeared is whether the flash actually overloaded an
	// interface (sanity).
	OverloadAppeared bool
	// Reaction is the time from flash onset to the first tick with no
	// drops; −1 duration means never mitigated within the run.
	Reaction time.Duration
	// Cycles is the reaction expressed in controller cycles.
	Cycles int
}

// E9FlashReaction measures mitigation delay over d. The harness's event
// timeline must hold the flash crowd (see flashReaction); flashStart
// names its onset.
func E9FlashReaction(h *Harness, flashStart time.Time, d time.Duration) *FlashReactionResult {
	res := &FlashReactionResult{Reaction: -1}
	var mitigated bool
	h.Run(d, func(s *netsim.TickStats, _ *core.CycleReport) {
		now := s.Time
		if now.Before(flashStart) {
			return
		}
		if s.TotalDropsBps() > 0 {
			res.OverloadAppeared = true
			mitigated = false
			return
		}
		if res.OverloadAppeared && !mitigated {
			mitigated = true
			res.Reaction = now.Sub(flashStart)
			res.Cycles = int(res.Reaction / h.Cfg.TickLen)
		}
	})
	return res
}

// String renders the summary.
func (r *FlashReactionResult) String() string {
	if !r.OverloadAppeared {
		return "E9 flash reaction: flash did not overload any interface\n"
	}
	if r.Reaction < 0 {
		return "E9 flash reaction: overload never mitigated within the run\n"
	}
	return fmt.Sprintf("E9 flash reaction: mitigated %s after onset (%d controller cycles)\n",
		r.Reaction, r.Cycles)
}

// ---------------------------------------------------------------------
// E10: design ablations
// ---------------------------------------------------------------------

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name          string
	MeanOverrides float64
	DetourFrac    float64
	DroppedFrac   float64
	ResidualFrac  float64 // fraction of cycles with unresolved overload
	ChurnPerCycle float64 // announcements + withdrawals per cycle
}

// AblationResult compares allocator variants (DESIGN.md §5).
type AblationResult struct {
	Rows []AblationRow
}

// String renders the table.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E10 allocator ablations\n")
	fmt.Fprintf(&b, "  %-34s %10s %9s %9s %10s %7s\n", "variant", "overrides", "detour%", "drops%", "residual%", "churn")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-34s %10.1f %8.2f%% %8.3f%% %9.1f%% %7.1f\n",
			row.Name, row.MeanOverrides, row.DetourFrac*100, row.DroppedFrac*100, row.ResidualFrac*100, row.ChurnPerCycle)
	}
	return b.String()
}

// AblationVariant names an allocator configuration under test.
type AblationVariant struct {
	Name      string
	Allocator core.AllocatorConfig
}

// DefaultAblationVariants covers the threshold sweep and both strategy
// axes.
func DefaultAblationVariants() []AblationVariant {
	return []AblationVariant{
		{"threshold=0.90", core.AllocatorConfig{Threshold: 0.90}},
		{"threshold=0.95 (paper)", core.AllocatorConfig{Threshold: 0.95}},
		{"threshold=0.99", core.AllocatorConfig{Threshold: 0.99}},
		{"select=largest-first", core.AllocatorConfig{Threshold: 0.95, Select: core.SelectLargestFirst}},
		{"select=random", core.AllocatorConfig{Threshold: 0.95, Select: core.SelectRandom}},
		{"target=first-feasible", core.AllocatorConfig{Threshold: 0.95, TargetSelect: core.TargetFirstFeasible}},
		{"target=most-spare", core.AllocatorConfig{Threshold: 0.95, TargetSelect: core.TargetMostSpare}},
		{"no-sticky (pure stateless)", core.AllocatorConfig{Threshold: 0.95, NoSticky: true}},
	}
}
