package exp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
)

// ---------------------------------------------------------------------
// E17: weighted multipath vs capacity-only egress
// ---------------------------------------------------------------------

// MultipathArm summarizes one E17 arm.
type MultipathArm struct {
	// P50RTTms / P90RTTms are demand-weighted experienced-RTT quantiles
	// across every (prefix, tick) of the run — congestion delay and
	// scripted path impairments included.
	P50RTTms, P90RTTms float64
	// DropFrac is total dropped bps over total offered bps.
	DropFrac float64
	// ChurnPerCycle is announced+withdrawn prefixes averaged over
	// controller cycles.
	ChurnPerCycle float64
	// MultipathPrefixTicks counts (prefix, tick) pairs carried by a
	// weighted member set; SplitWays histograms the set sizes.
	MultipathPrefixTicks int
	// MaxMembers is the largest member set the dataplane carried.
	MaxMembers int
	// Cycles is the number of controller cycles observed.
	Cycles int
}

// MultipathPerfResult is the E17 comparison: the capacity-only
// controller (overload detours, no perf pass) against the weighted
// multipath optimizer, on identical scenario, seed, and demand.
type MultipathPerfResult struct {
	CapacityOnly MultipathArm
	Multipath    MultipathArm
	// ChurnAllowance is the extra per-cycle churn the multipath arm is
	// granted over capacity-only: twice its MaxMoves budget (a changed
	// weight set is a withdraw plus an announce) plus a small floor.
	ChurnAllowance float64
}

// wsample is one demand-weighted RTT observation.
type wsample struct {
	v, w float64
}

// weightedQuantile returns the value at cumulative-weight fraction q.
func weightedQuantile(samples []wsample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].v < samples[b].v })
	var total float64
	for _, s := range samples {
		total += s.w
	}
	target := q * total
	var cum float64
	for _, s := range samples {
		cum += s.w
		if cum >= target {
			return s.v
		}
	}
	return samples[len(samples)-1].v
}

// multipathArm runs one arm from cfg for d and summarizes it.
func multipathArm(ctx context.Context, cfg HarnessConfig, d time.Duration) (MultipathArm, error) {
	var arm MultipathArm
	var samples []wsample
	t, err := runArm(ctx, cfg, d, func(s *netsim.TickStats, _ *core.CycleReport) {
		for _, pt := range s.Prefix {
			if pt.EgressIF < 0 || pt.DemandBps <= 0 {
				continue
			}
			samples = append(samples, wsample{v: pt.RTTms, w: pt.DemandBps})
			if n := len(pt.Members); n > 0 {
				arm.MultipathPrefixTicks++
				if n > arm.MaxMembers {
					arm.MaxMembers = n
				}
			}
		}
	})
	if err != nil {
		return arm, err
	}
	arm.P50RTTms = weightedQuantile(samples, 0.5)
	arm.P90RTTms = weightedQuantile(samples, 0.9)
	arm.DropFrac = t.droppedFrac()
	arm.Cycles = t.cycles
	arm.ChurnPerCycle = t.perCycle(float64(t.churn))
	return arm, nil
}

// E17MultipathPerf runs both arms over the same scenario: the
// capacity-only controller, then the controller with the weighted
// multipath optimizer enabled. The acceptance gate is the multipath
// arm beating capacity-only on demand-weighted p90 RTT without raising
// drops or per-cycle churn (see MultipathPerfResult.Pass).
func E17MultipathPerf(ctx context.Context, base HarnessConfig, d time.Duration) (*MultipathPerfResult, error) {
	capCfg := base
	capCfg.ControllerEnabled = true
	capCfg.PerfAware = false
	capCfg.Multipath = false
	res := &MultipathPerfResult{}
	var err error
	if res.CapacityOnly, err = multipathArm(ctx, capCfg, d); err != nil {
		return nil, fmt.Errorf("capacity arm: %w", err)
	}

	mpCfg := base
	mpCfg.ControllerEnabled = true
	mpCfg.PerfAware = true
	mpCfg.Multipath = true
	if mpCfg.MultipathCfg.MaxMoves == 0 {
		// Budget weighted-set changes per cycle so steady-state churn is
		// bounded by construction; re-affirmations of installed sets stay
		// free, so the budget throttles jitter, not coverage.
		mpCfg.MultipathCfg.MaxMoves = 10
	}
	res.ChurnAllowance = 2*float64(mpCfg.MultipathCfg.MaxMoves) + 4
	if res.Multipath, err = multipathArm(ctx, mpCfg, d); err != nil {
		return nil, fmt.Errorf("multipath arm: %w", err)
	}
	return res, nil
}

// Pass applies the E17 acceptance gate: better p90 RTT, drops no worse
// (beyond a small absolute tolerance for sampling noise), and churn
// within the capacity arm's plus the multipath move-budget allowance
// (the optimizer necessarily announces more state than none at all,
// but only as much as its budget permits).
func (r *MultipathPerfResult) Pass() bool {
	if r.Multipath.P90RTTms >= r.CapacityOnly.P90RTTms {
		return false
	}
	if r.Multipath.DropFrac > r.CapacityOnly.DropFrac+1e-4 {
		return false
	}
	allow := r.ChurnAllowance
	if allow == 0 {
		allow = 24
	}
	if r.Multipath.ChurnPerCycle > r.CapacityOnly.ChurnPerCycle+allow {
		return false
	}
	return true
}

// String renders the comparison.
func (r *MultipathPerfResult) String() string {
	verdict := "FAIL"
	if r.Pass() {
		verdict = "pass"
	}
	row := func(name string, a MultipathArm) string {
		return fmt.Sprintf(
			"  %-13s p50 %.1f ms, p90 %.1f ms, drops %.4f%%, churn %.1f/cycle, %d multipath prefix-ticks (max %d-way)\n",
			name, a.P50RTTms, a.P90RTTms, a.DropFrac*100, a.ChurnPerCycle,
			a.MultipathPrefixTicks, a.MaxMembers)
	}
	return fmt.Sprintf("E17 weighted multipath vs capacity-only (%s)\n", verdict) +
		row("capacity-only", r.CapacityOnly) +
		row("multipath", r.Multipath)
}
