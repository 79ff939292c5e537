package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one benchmark run: one workload, one seed, timed or
// traced.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool   // reduced shapes for `go test`
	outDir   string // where <workload>.trace.json goes
}

// shape sizes the workloads. The full shape is what BENCHMARK.json
// measures; the smoke shape is the same code at a size `go test` can
// afford.
type shape struct {
	pop                       popShape
	popWarm, popLap, popLaps  int // warm-up cycles, measured cycles per lap, laps at least
	tablePrefixes             int
	tableWarm, tableCycles    int // warm-up cycles, measured cycles at least
	ingestPrefixes            int
	ingestWarm, ingestCycles  int
	ingestSetups              int
	floodBlock                int // datagrams per ingest block
	udpRate                   int
	udpDur                    time.Duration
	minReplays, minFloodBlock int
	probeN                    int // items per layer-probe pass
}

var (
	fullShape = shape{
		pop: paperPoP, popWarm: 10, popLap: 50, popLaps: 3,
		tablePrefixes: 500_000, tableWarm: 6, tableCycles: 100,
		ingestPrefixes: 100_000, ingestWarm: 6, ingestCycles: 60, ingestSetups: 3,
		floodBlock: 5_000, udpRate: 20_000, udpDur: 5 * time.Second, minReplays: 3, minFloodBlock: 5, probeN: 100_000,
	}
	smokeShape = shape{
		pop: smokePoP, popWarm: 4, popLap: 20, popLaps: 2,
		tablePrefixes: 20_000, tableWarm: 3, tableCycles: 20,
		ingestPrefixes: 5_000, ingestWarm: 3, ingestCycles: 12, ingestSetups: 1,
		floodBlock: 10_000, udpRate: 5_000, udpDur: 200 * time.Millisecond, minReplays: 2, minFloodBlock: 5, probeN: 5_000,
	}
)

func (c runConfig) shape() shape {
	if c.smoke {
		return smokeShape
	}
	return fullShape
}

func (c runConfig) calibMiB() int {
	if c.smoke {
		return 4
	}
	return 64
}

// share is a fraction of the run's measuring time.
func (c runConfig) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// maxDropFrac is the share of offered load a PoP lap may drop in the
// simulated dataplane before the lap counts as failed. With the
// controller resolving overloads the laps drop 0.001 to 0.002 of it, all
// in the ticks before a reaction lands; the limit leaves that several
// times over, so it trips on overload left in place, not on a transient
// moving by a tick.
const maxDropFrac = 0.01

// tally counts operations attempted and failed: cycles, changed-prefix
// installs, datagrams, routes, digest comparisons.
type tally struct {
	attempted, failed int
	printed           int // failure messages written so far (the first ten are)
}

func (t *tally) op(n int) { t.attempted += n }

func (t *tally) failf(n int, format string, args ...any) {
	t.failed += n
	if t.printed++; t.printed <= 10 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// cycleStats is what a driven loop of cycles measured.
type cycleStats struct {
	cycleMS, installMS, installWaitMS []float64
	allocs, routerOps, churn, sets    []float64
	explainUS, stepMS                 []float64

	// Traced loops only.
	firstCycle, lastCycle                          int
	recomputed, measured                           []float64
	projectAllocs, allocateAllocs, multipathAllocs []float64
	fullSweeps, reused                             int
	changedMS, snapshotMS                          []float64
	overflows                                      int
}

// loopOpts selects the cycle variant and the side measurements.
type loopOpts struct {
	rec     *recorder      // non-nil: the open-coded traced cycle
	explain bool           // 8 Controller.Explain calls after each cycle
	journal *journalReader // time the RIB's delta reads after each cycle
}

// drive runs cycles while more(i) holds. Each iteration feeds inputs
// (untimed), runs one cycle, then waits for the cycle's changed prefixes
// to be installed router-side. Cycle time is inputs ready → Sync
// returned; install time runs from the same start to the last changed
// prefix being installed.
func drive(sys *system, more func(i int) bool, o loopOpts, t *tally) *cycleStats {
	st := &cycleStats{}
	if o.rec != nil {
		st.firstCycle = o.rec.cycle + 1
	}
	for i := 0; more(i); i++ {
		t0 := time.Now()
		sys.step()
		st.stepMS = append(st.stepMS, ms(time.Since(t0)))
		if sys.stepErr != nil {
			t.op(1)
			t.failf(1, "inputs: %v", sys.stepErr)
			sys.stepErr = nil
		}
		ops0 := sys.routerOps()
		a0 := heapObjects()
		t1 := time.Now()
		var out cycleOut
		var err error
		if o.rec != nil {
			out, err = sys.tracedCycle(o.rec)
		} else {
			out, err = sys.runCycle()
		}
		t2 := time.Now()
		a1 := heapObjects()
		t.op(1)
		if err != nil {
			t.failf(1, "cycle: %v", err)
		}
		wait := -1
		if o.rec != nil {
			wait = o.rec.begin("netsim.install_wait", -1)
		}
		ok := sys.waitInstalled(out)
		t3 := time.Now()
		if wait >= 0 {
			o.rec.end(wait)
		}
		if n := len(out.changed); n > 0 {
			t.op(n)
			if !ok {
				t.failf(n, "%d changed prefixes not installed within %v", n, installTimeout)
			} else {
				st.installMS = append(st.installMS, ms(t3.Sub(t1)))
				st.installWaitMS = append(st.installWaitMS, ms(t3.Sub(t2)))
			}
		}
		st.cycleMS = append(st.cycleMS, ms(t2.Sub(t1)))
		st.allocs = append(st.allocs, float64(a1-a0))
		st.routerOps = append(st.routerOps, float64(sys.routerOps()-ops0))
		st.churn = append(st.churn, float64(out.announced+out.withdrawn))
		st.sets = append(st.sets, float64(out.sets))
		if o.rec != nil {
			st.recomputed = append(st.recomputed, float64(out.recomputed))
			st.measured = append(st.measured, float64(out.measured))
			st.projectAllocs = append(st.projectAllocs, float64(out.projectAllocs))
			st.allocateAllocs = append(st.allocateAllocs, float64(out.allocateAllocs))
			st.multipathAllocs = append(st.multipathAllocs, float64(out.multipathAllocs))
			if out.fullSweep {
				st.fullSweeps++
			}
			if out.reused {
				st.reused++
			}
		}
		if o.explain {
			e0 := time.Now()
			sys.explain8()
			st.explainUS = append(st.explainUS, float64(time.Since(e0))/1e3)
		}
		if o.journal != nil {
			c, s, ok := o.journal.read()
			st.changedMS = append(st.changedMS, c)
			st.snapshotMS = append(st.snapshotMS, s)
			if !ok {
				st.overflows++
			}
		}
	}
	if o.rec != nil {
		st.lastCycle = o.rec.cycle
	}
	return st
}

func count(n int) func(int) bool { return func(i int) bool { return i < n } }

// atLeastFor runs n iterations and then on until d has passed.
func atLeastFor(n int, d time.Duration) func(int) bool {
	start := time.Now()
	return func(i int) bool { return i < n || time.Since(start) < d }
}

// warmUp runs the cold full cycle, collects the garbage the cold build
// leaves so its mark phase stays out of the measured loop, then runs the
// remaining warm-up cycles. It returns the cold cycle's stats.
func warmUp(sys *system, n int, o loopOpts, t *tally) *cycleStats {
	cold := drive(sys, count(1), o, t)
	runtime.GC()
	drive(sys, count(n-1), o, t)
	return cold
}

// ---------------------------------------------------------------------
// The two throughput legs
// ---------------------------------------------------------------------

// ingestLeg pushes blocks of datagrams through rig from one sender
// goroutine until budget has passed (closed loop: the next datagram goes
// in when the collector has taken the last). beside, when set, runs on
// the caller's goroutine for as long as the sender does. It returns each
// block's datagrams per second; ingest must be lossless.
func ingestLeg(rig *ingestRig, budget time.Duration, blockN, minBlocks int, beside func(), t *tally) []float64 {
	lost0 := rig.lost()
	var rates []float64
	var sent tally // the sender's own count, merged once it has stopped
	done := make(chan struct{})
	go func() {
		defer close(done)
		more := atLeastFor(minBlocks, budget)
		for i := 0; more(i); i++ {
			d, err := rig.block(blockN)
			sent.op(blockN)
			if err != nil {
				sent.failf(blockN, "ingest: %v", err)
				return
			}
			rates = append(rates, float64(blockN)/d.Seconds())
		}
	}()
	if beside == nil {
		<-done
	}
	for running := beside != nil; running; {
		select {
		case <-done:
			running = false
		default:
			beside()
		}
	}
	t.attempted += sent.attempted
	t.failed += sent.failed
	if lost := rig.lost() - lost0; lost > 0 {
		t.failf(int(lost), "ingest: %d datagrams malformed or records dropped", lost)
	}
	return rates
}

// routeLeg times full-table dump absorption: every peer down (the RIB
// empties), then the whole table as BMP bytes on the feed, timed until
// every route is present. It returns each replay's routes per second.
func routeLeg(feed *routeFeed, budget time.Duration, minReplays int, t *tally) []float64 {
	var rates []float64
	more := atLeastFor(minReplays, budget)
	for i := 0; more(i); i++ {
		if err := feed.flush(); err != nil {
			t.failf(1, "route leg: %v", err)
			break
		}
		d, err := feed.replay()
		t.op(feed.routes)
		if err != nil {
			t.failf(feed.routes, "route leg: %v", err)
			break
		}
		if got := feed.table().RouteCount(); got != feed.routes {
			t.failf(abs(got-feed.routes), "route leg: %d routes present after a %d-route dump", got, feed.routes)
		}
		rates = append(rates, float64(feed.routes)/d.Seconds())
	}
	return rates
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// runLegs runs the two throughput legs for the workloads whose cycles do
// not already contend with them, once, after the cycle loop, on rigs of
// their own: a collector that maps through sys's RIB, and a second
// controller absorbing sys's table over BMP. The caller reads the live
// heap first, so the rigs' memory is never counted as the program's.
func runLegs(c runConfig, sys *system, t *tally, m map[string]float64, info *notes) error {
	sh := c.shape()
	ingest := ingestLeg(sys.newIngestLeg(c.seed), c.share(0.1), sh.floodBlock, sh.minFloodBlock, nil, t)
	feed, closeFeed, err := sys.newRouteLeg()
	if err != nil {
		return err
	}
	defer closeFeed()
	dumps := routeLeg(feed, c.share(0.1), sh.minReplays, t)
	m["ingest_dgram_per_s"] = median(ingest)
	m["route_apply_per_s"] = median(dumps)
	info.addf("leg_samples: ingest_blocks=%d dump_replays=%d (%d routes each)", len(ingest), len(dumps), feed.routes)
	return nil
}

// cycleMetrics renders a single-lap loop's end-to-end numbers: timing
// percentiles are taken per stretch of the loop (up to five, each at
// least 40 cycles) and the median of the stretches reported.
func cycleMetrics(st *cycleStats, fixed int, m map[string]float64) {
	m["cycle_ms_p50"] = chunkedPercentile(st.cycleMS, 5, 0.5)
	m["cycle_ms_p90"] = chunkedPercentile(st.cycleMS, 5, 0.90)
	m["install_ms_p50"] = chunkedPercentile(st.installMS, 5, 0.5)
	m["cycle_allocs"] = midMean(st.allocs)
	// Churn is counted over a fixed number of cycles, so that it does
	// not depend on how many the host fitted into the run.
	m["churn_per_cycle"] = mean(st.churn[:min(fixed, len(st.churn))])
}

// ---------------------------------------------------------------------
// pop_overload / pop_multipath
// ---------------------------------------------------------------------

// runPop measures the PoP workloads in laps: each lap builds the closed
// loop afresh (one set-up sample), warms it, and runs the same fixed
// scenario, so every lap sees the same trajectory however fast the host
// is and the seed-determined numbers repeat lap to lap.
func runPop(c runConfig, multipath bool, t *tally, info *notes) (map[string]float64, error) {
	sh := c.shape()
	build := func(keepRTT bool) (*system, error) {
		return newPopSystem(c.seed, multipath, sh.pop, sh.popWarm, sh.popLap, keepRTT)
	}
	if c.traced {
		// The multipath harness measures alternate paths in Go map order
		// from one sequential noise source, so its decisions differ run to
		// run from the first cycle on: nothing to compare exactly.
		return tracedPair(c, build, sh.popWarm, sh.popLap, !multipath, nil, t, info)
	}

	m := make(map[string]float64)
	var setups, p50, p90, i50, allocs, churn, heap []float64
	var digests []string
	var last *system
	defer func() {
		if last != nil {
			last.close()
		}
	}()
	budget := c.share(0.8)
	var measured time.Duration
	samples := 0
	for lap := 0; lap < sh.popLaps || measured < budget; lap++ {
		if last != nil {
			last.close()
		}
		t0 := time.Now()
		sys, err := build(false)
		if err != nil {
			return nil, err
		}
		last = sys
		warmUp(sys, sh.popWarm, loopOpts{}, t)
		setups = append(setups, time.Since(t0).Seconds())

		t0 = time.Now()
		st := drive(sys, count(sh.popLap), loopOpts{}, t)
		measured += time.Since(t0)
		samples += len(st.cycleMS)
		p50 = append(p50, percentile(st.cycleMS, 0.5))
		p90 = append(p90, percentile(st.cycleMS, 0.90))
		i50 = append(i50, percentile(st.installMS, 0.5))
		allocs = append(allocs, midMean(st.allocs))
		churn = append(churn, mean(st.churn))
		heap = append(heap, heapLiveMB())
		digests = append(digests, sys.digestHex())
		// The decision-quality guard: a faster cycle that leaves overload
		// in place drops traffic in the simulated dataplane.
		t.op(1)
		if f := sys.qual.dropFrac(); f > maxDropFrac {
			t.failf(1, "dataplane dropped %.4f of offered load (limit %.4f)", f, maxDropFrac)
		}
	}
	m["setup_s"] = median(setups)
	m["cycle_ms_p50"], m["cycle_ms_p90"] = median(p50), median(p90)
	m["install_ms_p50"] = median(i50)
	m["cycle_allocs"] = median(allocs)
	m["churn_per_cycle"] = mean(churn)
	m["heap_live_mb"] = median(heap)
	info.addf("laps=%d cycle_samples=%d setup_samples=%d", len(setups), samples, len(setups))
	info.addf("digest=%s", digests[0])
	if !multipath {
		// Same seed, same inputs: every lap must decide identically.
		for lap, d := range digests[1:] {
			t.op(1)
			if d != digests[0] {
				t.failf(1, "lap %d decided differently from lap 0 on the same inputs", lap+1)
			}
		}
	}
	return m, runLegs(c, last, t, m, info)
}

// ---------------------------------------------------------------------
// table_500k
// ---------------------------------------------------------------------

func runTable(c runConfig, t *tally, info *notes) (map[string]float64, error) {
	sh := c.shape()
	build := func(bool) (*system, error) { return newTableSystem(c.seed, sh.tablePrefixes) }
	if c.traced {
		return tracedPair(c, build, sh.tableWarm, sh.tableCycles, true, nil, t, info)
	}
	m := make(map[string]float64)
	t0 := time.Now()
	sys, err := build(false)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	cold := warmUp(sys, sh.tableWarm, loopOpts{}, t)
	m["setup_s"] = time.Since(t0).Seconds()
	info.addf("setup: synth=%.2fs load=%.2fs cold_cycle=%.2fs routes=%d",
		sys.setupParts["synth"], sys.setupParts["load"], cold.cycleMS[0]/1e3, sys.ctrl.Store().Table().RouteCount())

	st := drive(sys, atLeastFor(sh.tableCycles, c.share(0.8)), loopOpts{}, t)
	cycleMetrics(st, sh.tableCycles, m)
	m["heap_live_mb"] = heapLiveMB()
	info.addf("cycle_samples=%d install_samples=%d digest=%s", len(st.cycleMS), len(st.installMS), sys.digestHex())
	return m, runLegs(c, sys, t, m, info)
}

// ---------------------------------------------------------------------
// ingest_flood
// ---------------------------------------------------------------------

// runIngest measures the telemetry path beside the cycle that reads it.
// Phase A: full-table BMP dumps into an emptied RIB. Phase C: cycles
// while the dump replays unpaced over the live RIB (these are the
// workload's cycle and install times). Phase B: a sFlow flood from one
// sender while the driver keeps cycling. B runs last because how much of
// the flood a cycle sees depends on timing, and nothing after it is
// compared exactly.
func runIngest(c runConfig, t *tally, info *notes) (map[string]float64, error) {
	sh := c.shape()
	build := func(bool) (*system, error) { return newIngestSystem(c.seed, sh.ingestPrefixes) }
	underReplay := func(sys *system, run func()) {
		stop := sys.replayLoop()
		run()
		routes, err := stop()
		if err != nil {
			t.failf(1, "replay loop: %v", err)
		}
		info.addf("routes_replayed_beside_cycles=%d", routes)
	}
	if c.traced {
		// The allocator picks between equal-tier detour targets by spare
		// capacity, the projector sums interface loads in Go map order, and
		// this PoP's two transit ports are twins: a last-bit difference in a
		// load sum flips which twin a detour lands on in about one run in
		// three. Both digests are printed; they are not compared.
		return tracedPair(c, build, sh.ingestWarm, sh.ingestCycles, false, underReplay, t, info)
	}

	m := make(map[string]float64)
	var setups []float64
	var sys *system
	for i := 0; i < sh.ingestSetups; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = build(false); err != nil {
			return nil, err
		}
		warmUp(sys, sh.ingestWarm, loopOpts{}, t)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	m["setup_s"] = median(setups)
	info.addf("setup: synth=%.2fs marshal=%.2fs load=%.2fs routes=%d setup_samples=%d",
		sys.setupParts["synth"], sys.setupParts["marshal"], sys.setupParts["load"], sys.feed.routes, len(setups))

	m["route_apply_per_s"] = median(routeLeg(sys.feed, c.share(0.25), sh.minReplays, t))
	drive(sys, count(2), loopOpts{}, t) // let decisions settle on the reloaded RIB

	// The live heap is read here, where its content is a function of the
	// seed: how much route churn the replay leaves behind depends on how
	// many dumps fitted beside the cycles.
	m["heap_live_mb"] = heapLiveMB()
	var st *cycleStats
	underReplay(sys, func() {
		st = drive(sys, atLeastFor(sh.ingestCycles, c.share(0.45)), loopOpts{}, t)
	})
	cycleMetrics(st, sh.ingestCycles, m)
	info.addf("cycle_samples=%d install_samples=%d heap_after_replay_mb=%.0f", len(st.cycleMS), len(st.installMS), heapLiveMB())

	beside := func() { drive(sys, count(1), loopOpts{}, t) }
	m["ingest_dgram_per_s"] = median(ingestLeg(sys.flood, c.share(0.3), sh.floodBlock, sh.minFloodBlock, beside, t))
	return m, nil
}

// ---------------------------------------------------------------------
// The traced run: per-layer numbers
// ---------------------------------------------------------------------

// tracedPair produces a workload's per-layer metrics. It runs the
// workload twice from the same seed at a fixed cycle count: once through
// Controller.RunCycle (the untraced reference: cycle median, decision
// digest, dataplane quality, explain cost) and once through the
// open-coded cycle with a span around every call into a layer. Layer
// time is span self time, median over the measured cycles. The decision
// digests of the two runs must be equal where the program decides
// deterministically (exact says so).
func tracedPair(c runConfig, build func(keepRTT bool) (*system, error), warm, cycles int, exact bool,
	around func(*system, func()), t *tally, info *notes) (map[string]float64, error) {
	if around == nil {
		around = func(_ *system, run func()) { run() }
	}
	m := make(map[string]float64)

	// Untraced reference.
	ref, err := build(true)
	if err != nil {
		return nil, err
	}
	warmUp(ref, warm, loopOpts{}, t)
	var stU *cycleStats
	around(ref, func() { stU = drive(ref, count(cycles), loopOpts{explain: true}, t) })
	digestU := ref.digestHex()
	m["netsim.drop_frac"] = ref.qual.dropFrac()
	m["netsim.rtt_ms_p90"] = ref.qual.rttP90()
	m["netsim.tick_ms"] = median(stU.stepMS)
	m["core.explain_us"] = median(stU.explainUS)
	ref.close()
	ref = nil
	runtime.GC()

	// Traced run.
	sys, err := build(false)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rec := newRecorder()
	cold := warmUp(sys, warm, loopOpts{rec: rec}, t)
	jr := sys.newJournalReader()
	var stT *cycleStats
	around(sys, func() { stT = drive(sys, count(cycles), loopOpts{rec: rec, journal: jr}, t) })
	digestT := sys.digestHex()
	info.addf("digest_untraced=%s digest_traced=%s compared=%v", digestU, digestT, exact)
	if exact {
		t.op(1)
		if digestU != digestT {
			t.failf(1, "traced and untraced runs decided differently (%s vs %s)", digestT, digestU)
		}
	}

	self := rec.selfMS(stT.firstCycle, stT.lastCycle)
	stage := func(name string) float64 { return median(self[name]) }
	m["sflow.rates_ms"] = stage("sflow.rates")
	m["core.project_ms"] = stage("core.project")
	m["core.allocate_ms"] = stage("core.allocate")
	m["altpath.measure_ms"] = stage("altpath.measure")
	m["altpath.reports_ms"] = stage("altpath.reports")
	m["core.multipath_ms"] = stage("core.multipath")
	m["core.merge_ms"] = stage("core.merge")
	m["core.inject_ms"] = stage("core.inject")
	m["netsim.install_wait_ms"] = median(stT.installWaitMS)
	var stages float64
	for _, n := range []string{"sflow.rates", "core.project", "core.allocate", "altpath.measure",
		"altpath.reports", "core.multipath", "core.merge", "core.inject"} {
		stages += stage(n)
	}
	untraced := median(stU.cycleMS)
	m["core.glue_ms"] = untraced - stages
	m["trace_overhead_frac"] = (median(stT.cycleMS) - untraced) / untraced
	info.addf("untraced_cycle_ms_p50=%.4f traced_cycle_ms_p50=%.4f stage_sum_ms=%.4f cycles=%d",
		untraced, median(stT.cycleMS), stages, cycles)

	coldSelf := rec.selfMS(cold.firstCycle, cold.firstCycle)
	m["core.project_cold_ms"] = median(coldSelf["core.project"])
	m["core.project_allocs"] = median(stT.projectAllocs)
	m["core.project_recomputed"] = mean(stT.recomputed)
	m["core.project_full_sweeps"] = float64(stT.fullSweeps)
	m["core.allocate_allocs"] = median(stT.allocateAllocs)
	m["core.allocate_reuse_frac"] = float64(stT.reused) / float64(cycles)
	m["altpath.measured_prefixes"] = mean(stT.measured)
	m["core.multipath_allocs"] = median(stT.multipathAllocs)
	m["core.multipath_sets"] = mean(stT.sets)
	m["core.inject_updates"] = mean(stT.routerOps)
	m["rib.changed_since_ms"] = median(stT.changedMS)
	m["rib.snapshot_ms"] = median(stT.snapshotMS)
	m["rib.journal_overflows"] = float64(stT.overflows)
	m["core.project_sweep_ms"] = sys.sweepMS()

	probes, err := sys.layerProbes(c.seed, c.shape().probeN)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	sh := c.shape()
	loss, late, err := sys.udpProbe(c.seed, sh.udpRate, sh.udpDur, true)
	if err != nil {
		return nil, fmt.Errorf("udp probe: %w", err)
	}
	m["sflow.udp_loss_frac"], m["sflow.udp_late_ms_p95"] = loss, late
	path := filepath.Join(c.outDir, c.workload+".trace.json")
	if err := rec.write(path, map[string]any{
		"workload": c.workload, "seed": c.seed, "cycles": cycles,
		"first_measured_cycle": stT.firstCycle, "last_measured_cycle": stT.lastCycle,
		"digest": digestT,
	}); err != nil {
		return nil, err
	}
	info.addf("trace=%s spans=%d", path, len(rec.spans))
	return m, nil
}
