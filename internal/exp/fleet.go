package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
)

// Fleet runs several PoPs, each with its own independent controller —
// the paper's deployment shape (Edge Fabric is strictly per-PoP; there
// is no global coordination). The fleet exists to reproduce the
// evaluation's across-PoPs views: distributions of peak utilization,
// detour volume, and drop behaviour over many differently-provisioned
// sites.
type Fleet struct {
	// PoPs are the member harnesses, one per site.
	PoPs []*Harness
}

// fleetConfigs derives n member configs from base: member i gets a
// distinct seed (base seed + 1000i), name and router-ID block
// (PoPIndex), and a demand peak spreadH hours after member i-1's (time
// zones), the first at 20:00.
func fleetConfigs(base HarnessConfig, n int, spreadH float64) []HarnessConfig {
	cfgs := make([]HarnessConfig, n)
	for i := range cfgs {
		hc := base
		hc.Synth.Seed = base.Synth.Seed + int64(i)*1000
		hc.Synth.Name = fmt.Sprintf("pop-%d", i+1)
		hc.Synth.PoPIndex = i + 1
		hc.Demand.PeakHourUTC = 20 + float64(i)*spreadH
		for hc.Demand.PeakHourUTC >= 24 {
			hc.Demand.PeakHourUTC -= 24
		}
		cfgs[i] = hc
	}
	return cfgs
}

// NewFleet builds and converges one independent PoP per config.
func NewFleet(ctx context.Context, cfgs []HarnessConfig) (*Fleet, error) {
	f := &Fleet{}
	for i, cfg := range cfgs {
		h, err := NewHarness(ctx, cfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: fleet pop %d: %w", i+1, err)
		}
		f.PoPs = append(f.PoPs, h)
	}
	return f, nil
}

// Close tears down all member PoPs.
func (f *Fleet) Close() {
	for _, h := range f.PoPs {
		h.Close()
	}
}

// PoPSummary is one site's outcome over a fleet run.
type PoPSummary struct {
	Name string
	// PeakUtil is the hottest interface-tick utilization observed.
	PeakUtil float64
	// DroppedFrac is dropped bytes over offered bytes.
	DroppedFrac float64
	// PeakDetourFrac is the highest per-cycle detoured share.
	PeakDetourFrac float64
	// MeanOverrides is the average simultaneous override count.
	MeanOverrides float64
}

// FleetResult aggregates a fleet run — the across-PoPs view the paper's
// evaluation reports.
type FleetResult struct {
	PoPs []PoPSummary
	// PoPsWithDetours counts sites that needed Edge Fabric at all.
	PoPsWithDetours int
	// MedianPeakDetour and MaxPeakDetour summarize peak detour shares
	// across sites.
	MedianPeakDetour, MaxPeakDetour float64
	// WorstDroppedFrac is the worst site's drop share.
	WorstDroppedFrac float64
}

// Step advances every PoP one Harness.Step, in order, and returns their
// tick stats and cycle reports indexed like PoPs.
func (f *Fleet) Step() ([]*netsim.TickStats, []*core.CycleReport) {
	stats := make([]*netsim.TickStats, len(f.PoPs))
	reports := make([]*core.CycleReport, len(f.PoPs))
	for i, h := range f.PoPs {
		stats[i], reports[i] = h.Step()
	}
	return stats, reports
}

// Run steps every PoP through d of virtual time, one Step round per
// tick so the sites progress together, and aggregates the outcome.
func (f *Fleet) Run(d time.Duration) *FleetResult {
	tallies := make([]tally, len(f.PoPs))
	ticks := 0
	if len(f.PoPs) > 0 {
		ticks = int(d / f.PoPs[0].Cfg.TickLen)
	}
	for t := 0; t < ticks; t++ {
		stats, reports := f.Step()
		for i, h := range f.PoPs {
			tallies[i].add(h.Scenario, stats[i], reports[i])
		}
	}
	res := &FleetResult{}
	var peaks []float64
	for i, h := range f.PoPs {
		t := &tallies[i]
		sum := PoPSummary{
			Name:           h.Scenario.Topo.Name,
			PeakUtil:       t.peakUtil,
			DroppedFrac:    t.droppedFrac(),
			PeakDetourFrac: t.peakDetour,
			MeanOverrides:  t.perCycle(float64(t.overrides)),
		}
		if sum.PeakDetourFrac > 0 {
			res.PoPsWithDetours++
		}
		if sum.DroppedFrac > res.WorstDroppedFrac {
			res.WorstDroppedFrac = sum.DroppedFrac
		}
		peaks = append(peaks, sum.PeakDetourFrac)
		res.PoPs = append(res.PoPs, sum)
	}
	res.MedianPeakDetour = quantile(append([]float64(nil), peaks...), 0.5)
	res.MaxPeakDetour = quantile(peaks, 1)
	return res
}

// String renders the across-PoPs table.
func (r *FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet: %d PoPs, %d needed detours; peak detour median %.1f%%, max %.1f%%; worst drop rate %.3f%%\n",
		len(r.PoPs), r.PoPsWithDetours, r.MedianPeakDetour*100, r.MaxPeakDetour*100, r.WorstDroppedFrac*100)
	rows := append([]PoPSummary(nil), r.PoPs...)
	sort.Slice(rows, func(a, b int) bool { return rows[a].PeakDetourFrac > rows[b].PeakDetourFrac })
	fmt.Fprintf(&b, "  %-10s %10s %12s %10s %10s\n", "pop", "peak util", "peak detour", "drops", "overrides")
	for _, p := range rows {
		fmt.Fprintf(&b, "  %-10s %9.1f%% %11.1f%% %9.3f%% %10.1f\n",
			p.Name, p.PeakUtil*100, p.PeakDetourFrac*100, p.DroppedFrac*100, p.MeanOverrides)
	}
	return b.String()
}
