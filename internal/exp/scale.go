package exp

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// E14: million-prefix scale. The wire-level harness tops out far below
// a full Internet table — BGP convergence over emulated sessions is the
// bottleneck, not the controller — so this experiment loads the RIB
// directly from the synthesized announcements and drives the
// controller's decision (core.Decide: delta projection and allocation)
// cycle by cycle, measuring what the paper's setting actually demands:
// a cold full rebuild under a second and steady-state dirty cycles
// (~1% churn) in tens of milliseconds.

// ScaleConfig parameterizes the E14 scale run.
type ScaleConfig struct {
	// Prefixes is the table size. Default 1,000,000.
	Prefixes int
	// Seed drives the scenario and the churn. Default 1.
	Seed int64
	// DirtyFrac is the fraction of prefixes whose demand moves beyond
	// tolerance each cycle. Default 0.01.
	DirtyFrac float64
	// RouteChurn is the number of route updates applied per cycle.
	// Default 256.
	RouteChurn int
	// HeavyK / TailStride configure the projector's heavy-hitter split
	// (defaults 8192 / 32); its tolerances are scaleEpsilon and
	// scaleTailEpsilon.
	HeavyK     int
	TailStride int
}

const (
	// scaleEpsilon is the projector's relative demand tolerance for
	// reusing a heavy hitter's cached plan.
	scaleEpsilon = 0.05
	// scaleTailEpsilon is the same tolerance for the tail.
	scaleTailEpsilon = 0.25
	// scaleCycles is the number of steady-state dirty cycles measured.
	scaleCycles = 20
)

func (c *ScaleConfig) setDefaults() {
	if c.Prefixes == 0 {
		c.Prefixes = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DirtyFrac == 0 {
		c.DirtyFrac = 0.01
	}
	if c.RouteChurn == 0 {
		c.RouteChurn = 256
	}
	if c.HeavyK == 0 {
		c.HeavyK = 8192
	}
	if c.TailStride == 0 {
		c.TailStride = 32
	}
}

// ScaleResult is the E14 report.
type ScaleResult struct {
	Prefixes int
	Routes   int
	// Synth and Load are the scenario-generation and direct-RIB-load
	// wall times (reported for context; not part of any cycle budget).
	Synth, Load time.Duration
	// TableMB is the live-heap growth attributable to the loaded table
	// and demand map, after a GC fence.
	TableMB float64
	// Cold is the first full cycle: complete demand scan, full-table
	// snapshot, projection build, and allocation.
	Cold time.Duration
	// DirtyP50 / DirtyP95 / DirtyMax summarize the steady-state dirty
	// cycles (DirtyFrac demand churn + RouteChurn route updates).
	DirtyP50, DirtyP95, DirtyMax time.Duration
	// Sweep is a warm full rebuild (the periodic safety pass).
	Sweep time.Duration
	// Overrides is the override count of the last cycle; Last carries
	// its delta stats.
	Overrides int
	Last      core.DeltaStats
}

// LoadTable builds a RIB directly from a topology's announcements —
// the converged state BMP would deliver, without the wire.
func LoadTable(topo *netsim.Topology) *rib.Table {
	tab := rib.NewTable(rib.DefaultPolicy())
	for i := range topo.Peers {
		peer := &topo.Peers[i]
		for _, ann := range peer.Announces {
			r := &rib.Route{
				Prefix:    ann.Prefix,
				NextHop:   peer.Addr,
				ASPath:    ann.Path,
				MED:       ann.MED,
				HasMED:    ann.MED != 0,
				PeerAddr:  peer.Addr,
				PeerAS:    peer.AS,
				PeerClass: peer.Class,
				EgressIF:  peer.InterfaceID,
			}
			tab.Accept(r)
		}
	}
	return tab
}

// E14MillionPrefix runs the scale experiment.
func E14MillionPrefix(cfg ScaleConfig) (*ScaleResult, error) {
	cfg.setDefaults()
	res := &ScaleResult{Prefixes: cfg.Prefixes}

	heapMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	before := heapMB()

	start := time.Now()
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: cfg.Seed, Prefixes: cfg.Prefixes})
	if err != nil {
		return nil, err
	}
	res.Synth = time.Since(start)

	start = time.Now()
	tab := LoadTable(sc.Topo)
	res.Load = time.Since(start)
	res.Routes = tab.RouteCount()

	// Static demand at the scenario's weights; the churn below jitters
	// a rotating window of it.
	demand := make(map[netip.Prefix]float64, len(sc.Prefixes))
	base := make([]float64, len(sc.Prefixes))
	for i, pi := range sc.Prefixes {
		bps := pi.Weight * sc.Config.PeakBps
		demand[pi.Prefix] = bps
		base[i] = bps
	}
	res.TableMB = heapMB() - before

	inv, err := InventoryFromTopology(sc.Topo)
	if err != nil {
		return nil, err
	}
	st := &core.DecideState{Projector: core.Projector{
		Epsilon:     scaleEpsilon,
		HeavyK:      cfg.HeavyK,
		TailEpsilon: scaleTailEpsilon,
		TailStride:  cfg.TailStride,
		// The experiment times the sweep explicitly; keep it out of the
		// dirty-cycle sample.
		FullSweepEvery: -1,
	}}
	in := core.CycleInput{Routes: tab, Demand: demand, Inventory: inv, Allocator: core.AllocatorConfig{Threshold: 0.95}}

	runCycle := func() (time.Duration, core.DeltaStats, *core.CycleReport) {
		t0 := time.Now()
		dec, ds := core.Decide(in, st)
		d := time.Since(t0)
		in.Installed = make(map[netip.Prefix]core.Override, len(dec.Overrides))
		for _, o := range dec.Overrides {
			in.Installed[o.Prefix] = o
		}
		return d, ds, dec
	}

	var ds core.DeltaStats
	var dec *core.CycleReport
	res.Cold, ds, dec = runCycle()
	// The cold build allocates the bulk of the heap in one burst; collect
	// it here so the resulting background mark doesn't bleed into the
	// steady-state sample below.
	runtime.GC()

	// Steady state: each cycle jitters a rotating DirtyFrac window of
	// demand well past every tolerance and re-announces RouteChurn
	// transit routes (journal-dirty prefixes).
	dirtyN := int(cfg.DirtyFrac * float64(len(sc.Prefixes)))
	if dirtyN < 1 {
		dirtyN = 1
	}
	var durations []time.Duration
	cursor, routeCursor := 0, 0
	transit := transitPeer(sc.Topo)
	for cyc := 0; cyc < scaleCycles; cyc++ {
		for k := 0; k < dirtyN; k++ {
			i := (cursor + k) % len(sc.Prefixes)
			f := 1.6
			if cyc%2 == 1 {
				f = 1
			}
			demand[sc.Prefixes[i].Prefix] = base[i] * f
		}
		cursor = (cursor + dirtyN) % len(sc.Prefixes)
		if transit != nil {
			for k := 0; k < cfg.RouteChurn; k++ {
				ann := transit.Announces[(routeCursor+k)%len(transit.Announces)]
				tab.Add(&rib.Route{
					Prefix:    ann.Prefix,
					NextHop:   transit.Addr,
					ASPath:    ann.Path,
					PeerAddr:  transit.Addr,
					PeerAS:    transit.AS,
					PeerClass: transit.Class,
					EgressIF:  transit.InterfaceID,
				})
			}
			routeCursor = (routeCursor + cfg.RouteChurn) % len(transit.Announces)
		}
		var d time.Duration
		d, ds, dec = runCycle()
		durations = append(durations, d)
	}
	sort.Slice(durations, func(a, b int) bool { return durations[a] < durations[b] })
	res.DirtyP50 = durations[len(durations)/2]
	res.DirtyP95 = durations[len(durations)*95/100]
	res.DirtyMax = durations[len(durations)-1]
	res.Overrides = len(dec.Overrides)
	res.Last = ds

	// A warm full rebuild — what the periodic safety sweep costs.
	st.Projector.ResetDelta()
	t0 := time.Now()
	core.Decide(in, st)
	res.Sweep = time.Since(t0)
	return res, nil
}

// transitPeer returns the topology's first transit peer (the route-churn
// source), or nil.
func transitPeer(topo *netsim.Topology) *netsim.Peer {
	for i := range topo.Peers {
		if topo.Peers[i].Class == rib.ClassTransit {
			return &topo.Peers[i]
		}
	}
	return nil
}

// String renders the EXPERIMENTS.md rows.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14 million-prefix scale (%d prefixes, %d routes)\n", r.Prefixes, r.Routes)
	fmt.Fprintf(&b, "  %-28s %12s\n", "phase", "time")
	fmt.Fprintf(&b, "  %-28s %12s\n", "synthesize", r.Synth.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s   (%.0f MB live heap)\n", "load RIB", r.Load.Round(time.Millisecond), r.TableMB)
	fmt.Fprintf(&b, "  %-28s %12s\n", "cold full cycle", r.Cold.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "dirty cycle p50", r.DirtyP50.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "dirty cycle p95", r.DirtyP95.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "dirty cycle max", r.DirtyMax.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "warm full sweep", r.Sweep.Round(time.Millisecond))
	fmt.Fprintf(&b, "  last cycle: %d live, %d recomputed, %d rate-only, %d overrides, heavy-thr %.1f Mbps\n",
		r.Last.Live, r.Last.Recomputed, r.Last.RateOnly, r.Overrides, r.Last.HeavyThr/1e6)
	return b.String()
}
