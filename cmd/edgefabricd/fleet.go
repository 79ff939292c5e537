package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"time"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/sflow"
)

// FleetFile is the --fleet configuration: one process hosting many PoP
// controllers. Two shapes, never mixed:
//
// Remote fleet — every PoP names a popsim inventory; the process opens
// ONE shared sFlow UDP listener and demuxes datagrams to PoPs by agent
// address (the routers' sflow_agent entries):
//
//	{
//	  "sflow_listen": "127.0.0.1:6343",
//	  "pops": [
//	    {"name": "sea", "inventory": "/tmp/sea.json"},
//	    {"name": "lhr", "inventory": "/tmp/lhr.json"}
//	  ]
//	}
//
// Embedded fleet — no inventories; each PoP is a self-contained
// simulation, still sharing one in-process sFlow demux:
//
//	{
//	  "pops": [
//	    {"name": "sea", "prefixes": 800, "peak_gbps": 200, "seed": 1},
//	    {"name": "lhr", "prefixes": 400, "peak_gbps": 100, "seed": 2}
//	  ]
//	}
//
// Without --fleet the flags build a one-entry fleet of either shape,
// checked and defaulted exactly as a file is.
type FleetFile struct {
	// SFlowListen is the shared UDP listener (remote fleet only).
	SFlowListen string `json:"sflow_listen,omitempty"`
	// PoPs are the hosted sites.
	PoPs []FleetPoPSpec `json:"pops"`
}

// FleetPoPSpec describes one hosted PoP, or — with Count > 1 — a
// template stamped out Count times (embedded fleet only; remote PoPs
// each need their own inventory). A template named "edge" with count 3
// expands to edge-001..edge-003, each with its own seed, which is how
// a one-line fleet file hosts hundreds of PoPs.
type FleetPoPSpec struct {
	// Name scopes the PoP in the API (/v1/pops/{name}/...).
	Name string `json:"name"`
	// Count replicates this spec (embedded fleet only).
	Count int `json:"count,omitempty"`
	// Inventory is a popsim inventory path (remote fleet).
	Inventory string `json:"inventory,omitempty"`
	// Embedded-fleet scenario knobs.
	Prefixes int     `json:"prefixes,omitempty"`
	PeakGbps float64 `json:"peak_gbps,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// loadFleetFile reads and normalizes a --fleet file.
func loadFleetFile(path string) (*FleetFile, error) {
	var f FleetFile
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &f)
	}
	if err == nil {
		err = f.normalize()
	}
	if err != nil {
		return nil, fmt.Errorf("fleet file %s: %w", path, err)
	}
	return &f, nil
}

// remoteFleetOfOne is --inventory's fleet. Its PoP is named after the
// inventory's pop label (pop-1 when unlabelled).
func remoteFleetOfOne(invPath, sflowListen string) (*FleetFile, error) {
	inv, err := core.LoadInventoryFile(invPath)
	if err != nil {
		return nil, fmt.Errorf("inventory: %w", err)
	}
	f := &FleetFile{SFlowListen: sflowListen, PoPs: []FleetPoPSpec{{Name: inv.PoP, Inventory: invPath}}}
	return f, f.normalize()
}

// embeddedFleetOfOne is the fleet run without --fleet or --inventory.
func embeddedFleetOfOne(prefixes int, peakGbps float64, seed int64) (*FleetFile, error) {
	f := &FleetFile{PoPs: []FleetPoPSpec{{Prefixes: prefixes, PeakGbps: peakGbps, Seed: seed}}}
	return f, f.normalize()
}

// normalize expands count templates, names unnamed PoPs pop-N by
// position, rejects duplicate names and mixed shapes, and fills the
// defaults: the shared listener of a remote fleet, the scenario knobs
// of an embedded one.
func (f *FleetFile) normalize() error {
	if len(f.PoPs) == 0 {
		return errors.New("no pops")
	}

	// Expand count templates before validating names, so the expanded
	// fleet is what the duplicate check sees.
	expanded := make([]FleetPoPSpec, 0, len(f.PoPs))
	for i, p := range f.PoPs {
		if p.Count <= 1 {
			expanded = append(expanded, p)
			continue
		}
		if p.Inventory != "" {
			return fmt.Errorf("pop %d: count needs embedded pops (each remote pop has its own inventory)", i)
		}
		base := p.Name
		if base == "" {
			base = "pop"
		}
		for j := 0; j < p.Count; j++ {
			c := p
			c.Count = 0
			c.Name = fmt.Sprintf("%s-%03d", base, j+1)
			if p.Seed != 0 {
				c.Seed = p.Seed + int64(j)
			}
			expanded = append(expanded, c)
		}
	}
	f.PoPs = expanded

	remote := 0
	names := make(map[string]bool, len(f.PoPs))
	for i := range f.PoPs {
		p := &f.PoPs[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("pop-%d", i+1)
		}
		if names[p.Name] {
			return fmt.Errorf("duplicate pop %q", p.Name)
		}
		names[p.Name] = true
		if p.Inventory != "" {
			remote++
			continue
		}
		if p.Prefixes == 0 {
			p.Prefixes = 1000
		}
		if p.PeakGbps == 0 {
			p.PeakGbps = 200
		}
		if p.Seed == 0 {
			p.Seed = int64(i + 1)
		}
	}
	if remote != 0 && remote != len(f.PoPs) {
		return errors.New("mixed remote (inventory) and embedded pops")
	}
	if remote != 0 && f.SFlowListen == "" {
		f.SFlowListen = "127.0.0.1:6343"
	}
	return nil
}

// chattyPoPs bounds the fleets whose members' cycle reports print.
const chattyPoPs = 8

// runRemoteFleet attaches one controller per popsim inventory, all
// ingesting sFlow from one shared UDP listener through a demux keyed by
// the routers' agent addresses.
func runRemoteFleet(ctx context.Context, ff *FleetFile, o runOpts) {
	udp, err := sflow.ListenUDP(ff.SFlowListen, sflow.DefaultReaders())
	if err != nil {
		log.Fatalf("sflow listen: %v", err)
	}
	demux := sflow.NewDemux()
	go func() {
		if err := demux.ServeUDPConns(ctx, udp, sflow.DefaultReaders()); err != nil {
			log.Printf("sflow ingest: %v", err)
		}
	}()
	log.Printf("sFlow listener on %s (shared, demuxed by agent address)", ff.SFlowListen)

	apiSrv := api.NewServer()
	sup := core.NewFleetSupervisor(core.FleetSupervisorConfig{Logf: o.logf})
	bindings := make(map[netip.Addr]*sflow.Collector)
	for _, spec := range ff.PoPs {
		invFile, err := core.LoadInventoryFile(spec.Inventory)
		if err != nil {
			log.Fatalf("%s: inventory: %v", spec.Name, err)
		}
		// The collector exists before its controller; the demux routes
		// its samples only after RegisterBatch below, by which time ctrl
		// is set.
		var ctrl *core.Controller
		lookup := func(a netip.Addr) netip.Prefix { return ctrl.Store().LookupPrefix(a) }
		traffic := sflow.NewCollector(sflow.CollectorConfig{Mapper: sflow.PrefixMapperFunc(lookup)})
		// Demux this PoP's routers' samples to its own collector. An
		// inventory without sflow_agent entries (pre-fleet popsim) falls
		// back to the router address.
		for _, r := range invFile.Routers {
			agent := r.SFlowAgent
			if agent == "" {
				agent = r.Addr
			}
			a, err := netip.ParseAddr(agent)
			if err != nil {
				log.Fatalf("%s: router %s sflow agent %q: %v", spec.Name, r.Name, agent, err)
			}
			bindings[a] = traffic
		}
		ctrl, err = attachController(invFile, traffic, o)
		if err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		defer ctrl.Close()
		if err := apiSrv.AddPoP(spec.Name, ctrl); err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		if err := sup.Add(core.FleetMember{Name: spec.Name, Ctrl: ctrl}); err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
	}
	// One copy-on-write table rebuild for the whole fleet's agents, not
	// one per router.
	demux.RegisterBatch(bindings)
	rec := core.NewReconciler(sup, core.ReconcilerConfig{Logf: o.logf})
	apiSrv.SetReconciler(rec)
	apiSrv.SetMetricsTopK(o.metricsTopK)

	// Each member converges independently; one slow PoP must not block
	// the others' readiness, so wait sequentially under one deadline but
	// tolerate stragglers (their health ladder reports them).
	readyCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	for _, name := range sup.Members() {
		ctrl, _ := sup.Controller(name)
		if err := ctrl.WaitReady(readyCtx, 1); err != nil {
			log.Printf("%s: not ready yet (%v); continuing, health gating applies", name, err)
			continue
		}
		log.Printf("%s: controller ready, %d routes", name, ctrl.Store().Table().RouteCount())
	}
	cancel()
	serveStatus(ctx, o.statusAddr, apiSrv)

	chatty := len(ff.PoPs) <= chattyPoPs
	printed := make(map[string]uint64) // last report Seq printed per member
	ticker := time.NewTicker(o.cycle)
	defer ticker.Stop()
	var deadline <-chan time.Time
	if o.duration > 0 {
		deadline = time.After(o.duration)
	}
loop:
	for {
		select {
		case <-ctx.Done():
			log.Printf("interrupted; withdrawing overrides")
			break loop
		case <-deadline:
			break loop
		case <-ticker.C:
			// The supervisor fans the round out over its worker pool —
			// independent per-PoP cycles, a member frozen in fail-static
			// (or erroring, or draining for a config apply) never gates
			// its siblings.
			st := sup.RunCycleAll()
			rec.Step()
			for _, name := range sup.Members() {
				ctrl, _ := sup.Controller(name)
				r, ok := ctrl.LastReport()
				if chatty && ok && r.Seq != printed[name] {
					printed[name] = r.Seq
					fmt.Printf("[%s] %s\n", name, core.FormatReport(&r, ctrl.Inventory()))
				}
			}
			log.Printf("fleet round: %d cycled, %d draining, %d errors, %d overruns in %s",
				st.Members, st.Skipped, st.Errors, st.Overruns, st.Elapsed.Round(time.Millisecond))
		}
	}
	printDemuxSummary(len(ff.PoPs), demux)
}

// attachController builds a controller over a popsim inventory file and
// supervises its BMP feeds and injection sessions through TCP dialers.
// The caller owns the traffic collector's ingest path.
func attachController(invFile *core.InventoryFile, traffic *sflow.Collector, o runOpts) (*core.Controller, error) {
	inv, err := invFile.Build()
	if err != nil {
		return nil, fmt.Errorf("inventory: %w", err)
	}
	for _, p := range invFile.Peers {
		if alias := netsim.V6AliasFor(p.Addr); alias != p.Addr {
			_ = inv.RegisterPeerAlias(alias, p.Addr)
		}
	}
	ctrl, err := core.New(core.Config{
		Inventory:     inv,
		Traffic:       traffic,
		Allocator:     core.AllocatorConfig{Threshold: o.threshold},
		CycleInterval: o.cycle,
		LocalAS:       invFile.LocalAS,
		Audit:         o.audit,
		Logf:          o.logf,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	// Feeds and sessions are supervised: a dead popsim connection is
	// redialed with backoff instead of silently staying down, and the
	// injector re-announces the installed set on re-establishment.
	for _, r := range invFile.Routers {
		if r.BMP != "" {
			ctrl.AddBMPFeedDialer(r.Name, tcpDialer(r.BMP))
			log.Printf("%s: BMP feed %s supervised (%s)", invFile.PoP, r.Name, r.BMP)
		}
		if r.Inject != "" {
			addr, err := netip.ParseAddr(r.Addr)
			if err != nil {
				ctrl.Close()
				return nil, fmt.Errorf("router addr %q: %w", r.Addr, err)
			}
			if err := ctrl.AddInjectionSessionDialer(addr, tcpDialer(r.Inject)); err != nil {
				ctrl.Close()
				return nil, fmt.Errorf("injection session %s: %w", r.Name, err)
			}
			log.Printf("%s: injection session %s supervised (%s)", invFile.PoP, r.Name, r.Inject)
		}
	}
	return ctrl, nil
}

// tcpDialer returns a context-aware TCP dial function for a supervised
// feed or injection session.
func tcpDialer(addr string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) { return new(net.Dialer).DialContext(ctx, "tcp", addr) }
}

// runEmbeddedFleet fast-forwards self-contained simulations for every
// PoP in one process, sharing one sFlow demux.
func runEmbeddedFleet(ctx context.Context, ff *FleetFile, o runOpts) {
	duration := o.duration
	if duration == 0 {
		duration = 24 * time.Hour
	}
	cfgs := make([]exp.HarnessConfig, len(ff.PoPs))
	for i, spec := range ff.PoPs {
		cfgs[i] = exp.HarnessConfig{
			Synth: netsim.SynthConfig{
				Seed:     spec.Seed,
				Name:     spec.Name,
				Prefixes: spec.Prefixes,
				PeakBps:  spec.PeakGbps * 1e9,
			},
			Allocator:         core.AllocatorConfig{Threshold: o.threshold},
			ControllerEnabled: true,
			PerfAware:         o.perfAware,
			Multipath:         o.multipath,
			Audit:             o.audit,
			Logf:              o.logf,
		}
	}
	log.Printf("building embedded fleet (%d PoPs)...", len(cfgs))
	fh, err := exp.NewFleetHostFromConfigs(ctx, cfgs)
	if err != nil {
		log.Fatalf("fleet host: %v", err)
	}
	defer fh.Close()
	fh.API.SetMetricsTopK(o.metricsTopK)
	serveStatus(ctx, o.statusAddr, fh.API)
	log.Printf("fleet converged (%d PoPs, supervised, reconciler armed); simulating %s of virtual time", len(fh.PoPs), duration)

	chatty := len(fh.PoPs) <= chattyPoPs
	tallies := make([]popTally, len(fh.PoPs))
	ticks := int(duration / fh.PoPs[0].Cfg.TickLen)
	cycleTicks := fh.PoPs[0].Cfg.CycleEveryTicks
	for t := 1; t <= ticks && ctx.Err() == nil; t++ {
		for i, h := range fh.PoPs {
			stats, r := h.Step()
			tallies[i].add(stats, r)
			if r != nil && chatty && (r.Seq%40 == 0 || len(r.ResidualOverloadBps) > 0) {
				fmt.Printf("[%s] %s\n", h.Scenario.Topo.Name, core.FormatReport(r, h.Inventory))
			}
		}
		// The reconciler advances one transition per fleet round, so
		// rollouts queued through PUT /v1/pops/{pop}/config march
		// drain→apply→converge in cycle time, not tick time. A round
		// counts even when no member cycled: a fleet of one pauses its
		// only member while the reconciler drains it.
		if t%cycleTicks == 0 {
			fh.Reconciler.Step()
		}
	}
	printDemuxSummary(len(fh.PoPs), fh.Demux)
	for i, h := range fh.PoPs {
		fmt.Println(tallies[i].line(h.Scenario.Topo.Name))
	}
}

// printDemuxSummary is the closing line of both run loops.
func printDemuxSummary(pops int, d *sflow.Demux) {
	malformed, unknown := d.Stats()
	fmt.Printf("\nfleet summary (%d PoPs; shared sFlow demux: %d malformed, %d unknown-agent)\n",
		pops, malformed, unknown)
}

// popTally accumulates one embedded PoP's run for the closing summary.
type popTally struct {
	cycles, withOverrides int
	peakDetour            float64
	offered, drops        float64
}

// add folds in one tick's dataplane stats and, when the tick cycled,
// its report. Only a cycle that measured demand counts toward the peak
// detour: a fail-static report keeps the frozen override set but has
// DemandBps 0.
func (t *popTally) add(s *netsim.TickStats, r *core.CycleReport) {
	t.offered += s.TotalDemandBps()
	t.drops += s.TotalDropsBps()
	if r == nil {
		return
	}
	t.cycles++
	if len(r.Overrides) == 0 {
		return
	}
	t.withOverrides++
	if r.DemandBps > 0 {
		t.peakDetour = max(t.peakDetour, r.DetouredBps/r.DemandBps)
	}
}

// line renders the tally as one summary row.
func (t *popTally) line(name string) string {
	dropFrac := 0.0
	if t.offered > 0 {
		dropFrac = t.drops / t.offered
	}
	return fmt.Sprintf("  %-10s %d cycles, %d with overrides, peak detour %.1f%%, dropped %.4f%%",
		name, t.cycles, t.withOverrides, t.peakDetour*100, dropFrac*100)
}
