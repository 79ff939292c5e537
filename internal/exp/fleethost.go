package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/sflow"
)

// FleetHost runs a whole Fleet's controllers inside one process — the
// daemon's --fleet mode in harness form. Unlike Fleet (independent
// harnesses, one collector each), the member PoPs share a single sFlow
// ingest point: every router exports into one Demux, which routes each
// datagram to its PoP's collector by agent address; one Supervisor
// cycles them all. Everything else — inventories, route stores, BMP
// feeds, injection sessions, health ladders — stays strictly per-PoP,
// so one member entering fail-static never gates another.
type FleetHost struct {
	Fleet
	// Demux is the shared ingest point standing in for the process's
	// one UDP listener.
	Demux *sflow.Demux
	// API is the versioned PoP-scoped surface over every member
	// controller.
	API *api.Server
	// Supervisor cycles the members in Step's rounds, skips a drained
	// member's cycles, and keeps the fleet-level counters.
	Supervisor *core.FleetSupervisor
	// Reconciler rolls declarative config across the supervised
	// members; also reachable through the API's /v1/fleet/reconcile
	// and PUT /v1/pops/{pop}/config.
	Reconciler *core.Reconciler
}

// NewFleetHostFromConfigs builds a fleet host from explicit per-member
// harness configs (the daemon's --fleet mode derives these from its
// fleet file). Each member's SFlowDemux is forced to the shared demux
// and its ControllerEnabled to true; a zero PoPIndex is assigned
// positionally so router IDs stay disjoint.
//
// Members build concurrently through a bounded worker pool — at
// hundreds of PoPs, sequential BGP convergence would dominate startup —
// then register with the API and supervisor in index order so names,
// pagination cursors, and rollout order stay deterministic.
func NewFleetHostFromConfigs(ctx context.Context, cfgs []HarnessConfig) (*FleetHost, error) {
	fh := &FleetHost{Demux: sflow.NewDemux(), API: api.NewServer()}
	built := make([]*Harness, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := min(runtime.GOMAXPROCS(0), len(cfgs))
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				hc := cfgs[i]
				hc.SFlowDemux = fh.Demux
				hc.ControllerEnabled = true
				if hc.Synth.PoPIndex == 0 {
					hc.Synth.PoPIndex = i + 1
				}
				built[i], errs[i] = NewHarness(ctx, hc)
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			continue
		}
		for _, h := range built {
			if h != nil {
				h.Close()
			}
		}
		return nil, fmt.Errorf("exp: fleet host pop %d: %w", i+1, err)
	}

	fh.Supervisor = core.NewFleetSupervisor(core.FleetSupervisorConfig{})
	for i, h := range built {
		fh.PoPs = append(fh.PoPs, h)
		if err := fh.API.AddPoP(h.Scenario.Topo.Name, h.Controller); err != nil {
			fh.Close()
			return nil, err
		}
		if err := fh.Supervisor.Add(core.FleetMember{Name: h.Scenario.Topo.Name, Ctrl: h.Controller}); err != nil {
			fh.Close()
			return nil, fmt.Errorf("exp: fleet host pop %d: %w", i+1, err)
		}
	}
	fh.Reconciler = core.NewReconciler(fh.Supervisor, core.ReconcilerConfig{})
	fh.API.SetReconciler(fh.Reconciler)
	return fh, nil
}

// Step runs one daemon round: every member ticks, the supervisor cycles
// the members it is not draining, each member that cycled waits for its
// PoP table to hold its overrides, and the reconciler steps, even when
// no member cycled. It returns each member's tick stats and cycle report
// indexed like PoPs; a drained member's report is nil.
func (fh *FleetHost) Step() ([]*netsim.TickStats, []*core.CycleReport) {
	stats := make([]*netsim.TickStats, len(fh.PoPs))
	seqs := make([]uint64, len(fh.PoPs))
	for i, h := range fh.PoPs {
		seqs[i] = h.Controller.LastSeq()
		stats[i] = h.tick()
	}
	fh.Supervisor.RunCycleAll()
	reports := make([]*core.CycleReport, len(fh.PoPs))
	for i, h := range fh.PoPs {
		if h.Controller.LastSeq() == seqs[i] {
			continue
		}
		r, _ := h.Controller.LastReport()
		reports[i] = &r
		h.waitOverridesApplied(&r)
	}
	fh.Reconciler.Step()
	return stats, reports
}

// newTwinFleets builds the fleet of cfgs twice: hosted (one process,
// one sFlow demux, one supervisor, one API server) and as isolated
// per-PoP harnesses.
func newTwinFleets(ctx context.Context, cfgs []HarnessConfig) (*FleetHost, *Fleet, error) {
	host, err := NewFleetHostFromConfigs(ctx, cfgs)
	if err != nil {
		return nil, nil, fmt.Errorf("host fleet: %w", err)
	}
	iso, err := NewFleet(ctx, cfgs)
	if err != nil {
		host.Close()
		return nil, nil, fmt.Errorf("isolated fleet: %w", err)
	}
	return host, iso, nil
}

// TwinCheck counts the hosted-vs-isolated comparison of a twin fleet
// stepped in lockstep: equal IdenticalCycles and ComparedCycles mean
// hosting was behaviorally invisible.
type TwinCheck struct {
	ComparedCycles  int
	IdenticalCycles int
	// OverridesSeen counts the hosted overrides compared, to prove the
	// equivalence was not vacuous.
	OverridesSeen int
	// FirstMismatch describes the first decision divergence (empty when
	// none).
	FirstMismatch string
}

// step runs one round of the hosted fleet and of its isolated twin,
// compares each member's decisions with its twin's, and returns the
// hosted round. at labels the round in a mismatch.
func (c *TwinCheck) step(host *FleetHost, iso *Fleet, at int) ([]*netsim.TickStats, []*core.CycleReport) {
	hs, hr := host.Step()
	_, ir := iso.Step()
	for i, h := range host.PoPs {
		c.compare(h.Scenario.Topo.Name, at, hr[i], ir[i])
	}
	return hs, hr
}

// compare counts a step of member pop in which either twin ran a cycle;
// a mismatch names the first prefix whose decision differs.
func (c *TwinCheck) compare(pop string, at int, hr, ir *core.CycleReport) {
	if hr == nil && ir == nil {
		return
	}
	c.ComparedCycles++
	diff := "only one twin ran a cycle"
	if hr != nil && ir != nil {
		c.OverridesSeen += len(hr.Overrides)
		diff = firstDiff(core.NewOverrideSet(hr.Overrides), core.NewOverrideSet(ir.Overrides))
	}
	if diff == "" {
		c.IdenticalCycles++
	} else if c.FirstMismatch == "" {
		c.FirstMismatch = fmt.Sprintf("%s step %d: hosted vs isolated: %s", pop, at, diff)
	}
}
