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
// datagram to its PoP's collector by agent address. Everything else —
// inventories, route stores, BMP feeds, injection sessions, health
// ladders — stays strictly per-PoP, so one member entering fail-static
// never gates another.
type FleetHost struct {
	Fleet
	// Demux is the shared ingest point standing in for the process's
	// one UDP listener.
	Demux *sflow.Demux
	// API is the versioned PoP-scoped surface over every member
	// controller.
	API *api.Server
	// Supervisor hosts the controller-enabled members: drain/resume
	// gating (a drained member's harness pauses cycling via
	// SetCyclesPaused) and fleet-level counters.
	Supervisor *core.FleetSupervisor
	// Reconciler rolls declarative config across the supervised
	// members; also reachable through the API's /v1/fleet/reconcile
	// and PUT /v1/pops/{pop}/config.
	Reconciler *core.Reconciler
}

// NewFleetHostFromConfigs builds a fleet host from explicit per-member
// harness configs (the daemon's --fleet mode derives these from its
// fleet file). Each member's SFlowDemux is forced to the shared demux;
// a zero PoPIndex is assigned positionally so router IDs stay disjoint.
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
		if h.Controller == nil {
			continue
		}
		if err := fh.API.AddPoP(h.Scenario.Topo.Name, h.Controller); err != nil {
			fh.Close()
			return nil, err
		}
		if err := fh.Supervisor.Add(core.FleetMember{
			Name:  h.Scenario.Topo.Name,
			Ctrl:  h.Controller,
			Pause: h.SetCyclesPaused,
		}); err != nil {
			fh.Close()
			return nil, fmt.Errorf("exp: fleet host pop %d: %w", i+1, err)
		}
	}
	if len(fh.Supervisor.Members()) > 0 {
		fh.Reconciler = core.NewReconciler(fh.Supervisor, core.ReconcilerConfig{})
		fh.API.SetReconciler(fh.Reconciler)
	}
	return fh, nil
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

// step advances a hosted member and its isolated twin one tick each,
// compares their decisions when either ran a cycle (a cycle only one
// side ran is a mismatch), and returns the hosted member's tick. at
// labels the step in a mismatch.
func (c *TwinCheck) step(hosted, isolated *Harness, at int) (*netsim.TickStats, *core.CycleReport) {
	hs, hr := hosted.Step()
	_, ir := isolated.Step()
	if hr == nil && ir == nil {
		return hs, hr
	}
	c.ComparedCycles++
	hd, id := "no cycle", "no cycle"
	if hr != nil {
		c.OverridesSeen += len(hr.Overrides)
		hd = decisionOf(hr.Overrides)
	}
	if ir != nil {
		id = decisionOf(ir.Overrides)
	}
	if hd == id {
		c.IdenticalCycles++
	} else if c.FirstMismatch == "" {
		c.FirstMismatch = fmt.Sprintf("%s step %d: hosted %q vs isolated %q", hosted.Scenario.Topo.Name, at, hd, id)
	}
	return hs, hr
}
