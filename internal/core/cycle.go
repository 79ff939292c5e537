package core

import (
	"net/netip"
	"slices"

	"edgefabric/internal/altpath"
	"edgefabric/internal/metrics"
	"edgefabric/internal/rib"
)

// CycleInput is everything one cycle's decision reads.
type CycleInput struct {
	// Routes is the PoP's route table; Demand the cycle's per-prefix
	// rates (canonical prefixes, see ProjectDelta).
	Routes *rib.Table
	Demand map[netip.Prefix]float64
	// Inventory names the interfaces and their capacities.
	Inventory *Inventory
	// Allocator and Multipath parameterize the overload and optimise
	// stages.
	Allocator AllocatorConfig
	Multipath MultipathConfig
	// Installed is the override set the routers hold before the cycle:
	// the sticky pass's prior and the optimizer's hysteresis base.
	Installed OverrideSet
	// Trace receives decision provenance; nil records nothing.
	Trace *CycleTrace
}

// DecideState is what Decide carries from one cycle to the next: the
// projector's delta state, the allocator's reuse state and the
// alternate-path measurer, whose windows are the optimizer's input (nil
// leaves the optimise stage off). A zero Projector and Alloc decide
// from scratch.
type DecideState struct {
	Projector Projector
	Alloc     AllocState
	Measurer  *altpath.Measurer

	measured []netip.Prefix // the measure stage's reused prefix buffer
	// Stage spans (edgefabric_phase_{project,allocate,perf}) and the
	// measurer's window gauges (edgefabric_altpath_{windows,lossy_windows});
	// nil outside a Controller.
	phProject, phAllocate, phOptimise *metrics.Phase
	gWindows, gLossyWindows           *metrics.Gauge
}

// Decide computes one cycle's override set: project the demand over
// the routes, allocate overload detours with in.Installed as the sticky
// prior, and, when st holds a Measurer, measure every planned prefix
// and append the optimizer's moves with in.Installed as its hysteresis
// base. It returns the decision half of a CycleReport (Overrides,
// DetouredBps, ResidualOverloadBps, DemandBps, IfUtil) and the
// projection's DeltaStats. st must not be used by two calls at once.
func Decide(in CycleInput, st *DecideState) (*CycleReport, DeltaStats) {
	span := st.phProject.Start()
	proj, ds := st.Projector.ProjectDelta(in.Routes, in.Demand)
	span.End()

	span = st.phAllocate.Start()
	alloc := AllocateDelta(proj, in.Inventory, in.Allocator, in.Installed, in.Trace, &ds, &st.Alloc)
	span.End()

	rep := &CycleReport{
		IfUtil:              make(map[int]float64),
		Overrides:           alloc.Overrides,
		DemandBps:           proj.DemandBps,
		DetouredBps:         alloc.DetouredBps,
		ResidualOverloadBps: alloc.ResidualOverloadBps,
	}
	if st.Measurer != nil {
		span = st.phOptimise.Start()
		// Each prefix's samples are keyed by the prefix itself, so the
		// map order the prefixes come in changes nothing.
		st.measured = st.measured[:0]
		for p := range proj.Plans {
			st.measured = append(st.measured, p)
		}
		st.Measurer.MeasureRound(st.measured)
		if st.gWindows != nil {
			windows, lossy := st.Measurer.Windows()
			st.gWindows.Set(float64(windows))
			st.gLossyWindows.Set(float64(lossy))
		}
		// The optimizer skips every prefix the overload pass moved, so its
		// output appends to a copy of alloc's (reused verbatim next cycle)
		// without conflicts.
		perf := MultipathAllocate(proj, in.Inventory, st.Measurer.Reports(), alloc, in.Installed, in.Allocator, in.Multipath, in.Trace)
		rep.Overrides = append(slices.Clip(rep.Overrides), perf...)
		for _, o := range perf {
			rep.DetouredBps += o.RateBps
		}
		span.End()
	}
	for _, info := range in.Inventory.Interfaces() {
		rep.IfUtil[info.ID] = proj.IfLoadBps[info.ID] / info.CapacityBps
	}
	return rep, ds
}
