package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/altpath"
	"edgefabric/internal/bmp"
	"edgefabric/internal/metrics"
	"edgefabric/internal/rib"
)

// Config configures a Controller.
type Config struct {
	// Inventory is the PoP's peer/interface inventory; required.
	Inventory *Inventory
	// Traffic supplies per-prefix demand; required. When it also
	// implements TrafficFreshness (sflow.Collector does), staleness
	// gates the control loop (see HealthConfig).
	Traffic TrafficSource
	// Allocator parameterizes the overload algorithm.
	Allocator AllocatorConfig
	// Trace switches decision provenance (see trace.go). The zero
	// value enables tracing; set Trace.Disable to turn per-prefix
	// tracing off.
	Trace TraceConfig
	// CycleInterval is the period at which the caller (fleet supervisor,
	// harness) drives RunCycle. Default 30 s (the paper's cadence). It
	// also derives the cycle deadline and the default health thresholds.
	CycleInterval time.Duration
	// Health parameterizes input-health thresholds; zero fields default
	// from CycleInterval.
	Health HealthConfig
	// LocalAS is the AS of the injector's iBGP speaker.
	LocalAS uint32
	// Now supplies time for reports; nil means time.Now (the simulator
	// injects its virtual clock).
	Now func() time.Time
	// Audit, when set, receives one JSON line per cycle (see
	// AuditLogger).
	Audit *AuditLogger
	// Optimizer, when its Source is set, adds the optimise stage to every
	// healthy cycle (see OptimizerConfig).
	Optimizer OptimizerConfig
	// ProjectionEpsilon is the relative per-prefix demand change below
	// which the cross-cycle plan cache reuses the previous cycle's plan
	// (and its demand figure) verbatim. Zero reuses plans only when a
	// prefix's routes and exact demand are unchanged. See Projector.
	ProjectionEpsilon float64
	// ProjectionWorkers caps projection fan-out; 0 uses GOMAXPROCS.
	ProjectionWorkers int
	// FullSweepEvery is the delta-cycle cadence of the projection's
	// full-rebuild safety pass. 0 uses the projector default (64);
	// negative disables the periodic sweep.
	FullSweepEvery int
	// HeavyHitterK enables heavy-hitter prioritization: the top-K
	// prefixes by rate always track demand exactly, while the tail may
	// reuse cached plans within TailEpsilon. 0 treats every prefix
	// exactly.
	HeavyHitterK int
	// TailEpsilon is the relative demand tolerance for tail (non-
	// heavy-hitter) prefixes when HeavyHitterK is set.
	TailEpsilon float64
	// TailStride, with HeavyHitterK set, visits each tail prefix's
	// demand only every TailStride-th delta cycle (rotating stripes);
	// see Projector.TailStride. Values <= 1 visit everything.
	TailStride int
	// MaxHistory bounds the retained cycle-summary ring. Default 4096.
	// The ring is per PoP and keeps no override set (only the newest
	// report does): an entry costs 136 bytes plus its per-interface
	// utilization map, ≈ 510 B on a 14-interface PoP, so ≈ 2 MB a PoP at
	// the default. A fleet host packing hundreds of PoPs into one
	// process may set it lower.
	MaxHistory int
	// Logf, when set, receives one-line log events.
	Logf func(format string, args ...any)
}

// controllerRouterID is the BGP identifier of the injector's iBGP
// speaker; every PoP router peers with it as an iBGP neighbor.
var controllerRouterID = netip.MustParseAddr("10.255.0.100")

// OptimizerConfig configures the cycle's optimise stage: an
// altpath.Measurer over the controller's route table measures the
// planned prefixes, then the multipath optimizer runs (see Decide) with
// the injector's installed set as its hysteresis base.
type OptimizerConfig struct {
	// Source measures sampled flows' RTT and retransmit rate per path;
	// nil leaves the stage off. One measurement round calls it from
	// several goroutines at once, so it must be safe for concurrent use.
	Source altpath.RTTSource
	// Seed keys the measurer's sampling noise.
	Seed int64
	// Multipath parameterizes the optimizer.
	Multipath MultipathConfig
}

// CycleReport records what one controller cycle saw and did.
type CycleReport struct {
	// Time is when the cycle ran.
	Time time.Time
	// Seq is the cycle sequence number.
	Seq uint64
	// Health is the cycle's input-health rollup; non-healthy cycles may
	// freeze (fail-static) or withdraw (fail-back) instead of
	// allocating.
	Health HealthState
	// HealthReasons explains a non-healthy state.
	HealthReasons []string
	// DemandBps is total measured demand (zero in frozen cycles, which
	// deliberately do not read the decayed demand window).
	DemandBps float64
	// Projection utilization per interface (load/capacity).
	IfUtil map[int]float64
	// Overrides is the desired override set this cycle.
	Overrides []Override
	// DetouredBps is demand steered off preferred routes.
	DetouredBps float64
	// ResidualOverloadBps is overload the allocator could not resolve.
	ResidualOverloadBps map[int]float64
	// Announced / Withdrawn are the injector's actions; Partial counts
	// prefixes that reached only a subset of the live routers.
	Announced, Withdrawn, Partial int
	// Elapsed is the cycle's computation time (wall clock).
	Elapsed time.Duration
}

// CycleSummary is what the controller's cycle history retains of one
// cycle: its CycleReport without the override set, whose size it keeps
// as a count. The maps and HealthReasons are shared with the report.
type CycleSummary struct {
	Time                          time.Time
	Seq                           uint64
	Health                        HealthState
	HealthReasons                 []string
	DemandBps                     float64
	IfUtil                        map[int]float64
	Overrides                     int // len(CycleReport.Overrides)
	DetouredBps                   float64
	ResidualOverloadBps           map[int]float64
	Announced, Withdrawn, Partial int
	Elapsed                       time.Duration
}

func summarize(r *CycleReport) CycleSummary {
	return CycleSummary{
		Time: r.Time, Seq: r.Seq, Health: r.Health, HealthReasons: r.HealthReasons,
		DemandBps: r.DemandBps, IfUtil: r.IfUtil, Overrides: len(r.Overrides),
		DetouredBps: r.DetouredBps, ResidualOverloadBps: r.ResidualOverloadBps,
		Announced: r.Announced, Withdrawn: r.Withdrawn, Partial: r.Partial, Elapsed: r.Elapsed,
	}
}

// Controller is the per-PoP Edge Fabric control loop, assembling the
// route store, traffic source, projection, allocator, injector, and the
// input-health tracker that gates it all.
type Controller struct {
	cfg      Config
	store    *RouteStore
	injector *Injector
	registry *metrics.Registry
	health   *HealthTracker
	decide   DecideState // Measurer nil unless Config.Optimizer is set

	collector *bmp.Collector
	bmpWG     sync.WaitGroup
	bmpCtx    context.Context
	bmpStop   context.CancelFunc

	panicArmed atomic.Bool // one-shot fault-injection hook (E11)

	// demandBuf is the reused per-cycle demand map when the traffic
	// source supports RatesInto (the sharded sFlow collector does);
	// only the cycle goroutine touches it, and the projector never
	// retains the map across calls.
	demandBuf map[netip.Prefix]float64

	// Cycle-phase instrumentation (latency + heap allocations per
	// phase, surfaced at /metrics as edgefabric_phase_*); Decide's own
	// stages time themselves through c.decide.
	phCollect, phInject *metrics.Phase

	mu        sync.Mutex
	closed    bool
	seq       uint64
	cfgGen    uint64 // config updates applied (see ApplyConfig)
	lastState HealthState
	last      CycleReport    // the newest report, whole (Seq 0 until a cycle ran)
	history   []CycleSummary // ring buffer once full
	histNext  int            // next overwrite index when len == maxHist
	maxHist   int
	traces    []*CycleTrace // decision-provenance ring, bounded by traceCycles
	traceNext int
}

// New builds a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Inventory == nil {
		return nil, fmt.Errorf("core: Config.Inventory required")
	}
	if cfg.Traffic == nil {
		return nil, fmt.Errorf("core: Config.Traffic required")
	}
	if cfg.CycleInterval == 0 {
		cfg.CycleInterval = 30 * time.Second
	}
	cfg.Health.setDefaults(cfg.CycleInterval)
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.LocalAS == 0 {
		return nil, fmt.Errorf("core: Config.LocalAS required")
	}
	store := NewRouteStore(cfg.Inventory)
	var meas *altpath.Measurer
	if src := cfg.Optimizer.Source; src != nil {
		var err error
		if meas, err = altpath.NewMeasurer(altpath.Config{Routes: store.Table(), Source: src, Seed: cfg.Optimizer.Seed}); err != nil {
			return nil, err
		}
	}
	health := NewHealthTracker(cfg.Health, cfg.Now, cfg.Traffic)
	registry := metrics.NewRegistry()
	inj, err := NewInjector(InjectorConfig{
		LocalAS:       cfg.LocalAS,
		RouterID:      controllerRouterID,
		Metrics:       registry,
		OnSessionUp:   health.SessionUp,
		OnSessionDown: func(r netip.Addr, _ error) { health.SessionDown(r) },
		Logf:          cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:      cfg,
		store:    store,
		injector: inj,
		registry: registry,
		health:   health,
		decide: DecideState{
			Projector: Projector{
				Epsilon:        cfg.ProjectionEpsilon,
				Workers:        cfg.ProjectionWorkers,
				FullSweepEvery: cfg.FullSweepEvery,
				HeavyK:         cfg.HeavyHitterK,
				TailEpsilon:    cfg.TailEpsilon,
				TailStride:     cfg.TailStride,
			},
			Measurer:   meas,
			phProject:  registry.Phase("edgefabric_phase_project"),
			phAllocate: registry.Phase("edgefabric_phase_allocate"),
			phOptimise: registry.Phase("edgefabric_phase_perf"),
		},
		bmpCtx:  ctx,
		bmpStop: cancel,
		maxHist: 4096,
	}
	if cfg.MaxHistory > 0 {
		c.maxHist = cfg.MaxHistory
	}
	if meas != nil {
		c.decide.gWindows = registry.Gauge("edgefabric_altpath_windows")
		c.decide.gLossyWindows = registry.Gauge("edgefabric_altpath_lossy_windows")
	}
	c.phCollect = registry.Phase("edgefabric_phase_collect")
	c.phInject = registry.Phase("edgefabric_phase_inject")
	c.collector = &bmp.Collector{
		Handler: &healthHandler{inner: store, health: health},
		Logf:    cfg.Logf,
	}
	return c, nil
}

// healthHandler wraps the route store's BMP handler to stamp per-feed
// event freshness into the health tracker.
type healthHandler struct {
	inner  bmp.Handler
	health *HealthTracker
}

func (h *healthHandler) OnInitiation(router string, m *bmp.Initiation) {
	h.health.TouchFeed(router)
	h.inner.OnInitiation(router, m)
}
func (h *healthHandler) OnPeerUp(router string, m *bmp.PeerUp) {
	h.health.TouchFeed(router)
	h.inner.OnPeerUp(router, m)
}
func (h *healthHandler) OnPeerDown(router string, m *bmp.PeerDown) {
	h.health.TouchFeed(router)
	h.inner.OnPeerDown(router, m)
}
func (h *healthHandler) OnRoute(router string, m *bmp.RouteMonitoring) {
	h.health.TouchFeed(router)
	h.inner.OnRoute(router, m)
}
func (h *healthHandler) OnStats(router string, m *bmp.StatsReport) {
	h.health.TouchFeed(router)
	h.inner.OnStats(router, m)
}
func (h *healthHandler) OnTermination(router string) {
	h.health.TouchFeed(router)
	h.inner.OnTermination(router)
}

// FlushRoutes implements bmp.BatchFlusher by delegating to the wrapped
// handler, so the collector's drain-point flushes reach the store
// through this wrapper.
func (h *healthHandler) FlushRoutes() {
	if f, ok := h.inner.(bmp.BatchFlusher); ok {
		f.FlushRoutes()
	}
}

// Store exposes the controller's route store (e.g. to use as the sFlow
// collector's prefix mapper).
func (c *Controller) Store() *RouteStore { return c.store }

// Measurer exposes the optimise stage's alternate-path measurer (nil
// when Config.Optimizer is unset), e.g. for gap CDFs and reports.
func (c *Controller) Measurer() *altpath.Measurer { return c.decide.Measurer }

// Inventory exposes the controller's peer/interface inventory (e.g. for
// interface naming in the status API).
func (c *Controller) Inventory() *Inventory { return c.cfg.Inventory }

// Now returns the controller's current time in its own time base (the
// simulator's virtual clock, wall clock in production).
func (c *Controller) Now() time.Time { return c.cfg.Now() }

// LastSeq returns the sequence number of the most recent completed
// cycle (zero before the first cycle).
func (c *Controller) LastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Metrics exposes the controller's metrics registry.
func (c *Controller) Metrics() *metrics.Registry { return c.registry }

// Health exposes the controller's input-health tracker.
func (c *Controller) Health() *HealthTracker { return c.health }

// goFeed registers a feed goroutine, refusing after Close (this closes
// the old AddBMPFeed-after-Close WaitGroup race: Add no longer races
// Wait).
func (c *Controller) goFeed(fn func()) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.bmpWG.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.bmpWG.Done()
		fn()
	}()
	return true
}

// AddBMPFeed starts consuming a router's BMP stream from an established
// connection. The feed does not self-heal: when conn fails the feed
// stays down (and health reflects it). Use AddBMPFeedDialer for
// supervised, reconnecting feeds.
func (c *Controller) AddBMPFeed(router string, conn net.Conn) {
	c.health.RegisterFeed(router)
	ok := c.goFeed(func() {
		c.health.FeedUp(router)
		err := c.collector.HandleConn(c.bmpCtx, router, conn)
		c.health.FeedDown(router)
		if err != nil && c.cfg.Logf != nil {
			c.cfg.Logf("bmp feed %s: %v", router, err)
		}
	})
	if !ok {
		conn.Close()
	}
}

// Supervised BMP feed redial backoff bounds (wall clock).
const (
	bmpBackoffMin = 100 * time.Millisecond
	bmpBackoffMax = 2 * time.Second
)

// readConn records whether a BMP stream delivered any bytes.
type readConn struct {
	net.Conn
	read bool
}

func (c *readConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read = c.read || n > 0
	return n, err
}

// AddBMPFeedDialer starts a supervised BMP feed: dial connects to the
// router's BMP endpoint, the stream is consumed until it fails, and the
// supervisor redials with exponential backoff plus jitter. While the
// feed is down its routes stay in the store until the configured grace
// period (HealthConfig.BMPFlushAfter) expires, at which point the next
// controller cycle flushes them; on reconnect the router's BMP table
// dump re-syncs the store.
func (c *Controller) AddBMPFeedDialer(router string, dial func(ctx context.Context) (net.Conn, error)) {
	c.health.RegisterFeed(router)
	c.goFeed(func() {
		backoff := bmpBackoffMin
		sleep := func() bool {
			// ±25% jitter decorrelates redial storms across feeds.
			d := backoff + time.Duration((rand.Float64()-0.5)*0.5*float64(backoff))
			select {
			case <-c.bmpCtx.Done():
				return false
			case <-time.After(d):
			}
			backoff = min(backoff*2, bmpBackoffMax)
			return true
		}
		for {
			conn, err := dial(c.bmpCtx)
			if err != nil {
				if c.bmpCtx.Err() != nil {
					return
				}
				if c.cfg.Logf != nil {
					c.cfg.Logf("bmp feed %s: dial: %v (retry in ~%v)", router, err, backoff)
				}
				if !sleep() {
					return
				}
				continue
			}
			c.health.FeedUp(router)
			c.registry.Counter("edgefabric_bmp_connects_total").Inc()
			rc := &readConn{Conn: conn}
			err = c.collector.HandleConn(c.bmpCtx, router, rc)
			c.health.FeedDown(router)
			if rc.read {
				// Only a stream that carried data resets the backoff: a
				// speaker that accepts and hangs up is redialed ever
				// more slowly.
				backoff = bmpBackoffMin
			}
			if c.bmpCtx.Err() != nil {
				return
			}
			if c.cfg.Logf != nil {
				c.cfg.Logf("bmp feed %s: stream ended: %v", router, err)
			}
			if !sleep() {
				return
			}
		}
	})
}

// AddInjectionSession registers the iBGP session toward a peering
// router over an established connection (no self-healing; see
// AddInjectionSessionDialer).
func (c *Controller) AddInjectionSession(routerAddr netip.Addr, conn net.Conn) error {
	c.health.RegisterSession(routerAddr)
	return c.injector.AddRouter(routerAddr, conn)
}

// AddInjectionSessionDialer registers a self-healing iBGP session: the
// injector redials whenever the session drops and re-announces the
// installed override set once it re-establishes.
func (c *Controller) AddInjectionSessionDialer(routerAddr netip.Addr, dial func(ctx context.Context) (net.Conn, error)) error {
	c.health.RegisterSession(routerAddr)
	return c.injector.AddRouterDialer(routerAddr, dial)
}

// WaitReady blocks until all injection sessions are established and the
// route store holds at least minRoutes routes. The route wait is
// event-driven (woken by table mutations), not a poll.
func (c *Controller) WaitReady(ctx context.Context, minRoutes int) error {
	if err := c.injector.WaitEstablished(ctx); err != nil {
		return err
	}
	if err := c.store.Table().WaitRouteCount(ctx, minRoutes); err != nil {
		return fmt.Errorf("core: %d/%d routes collected: %w",
			c.store.Table().RouteCount(), minRoutes, err)
	}
	return nil
}

// PanicNextCycle arms a one-shot injected fault: the next RunCycle
// panics mid-cycle. It exists for the fault-injection harness (E11
// verifies the watchdog recovery path); production code never calls it.
func (c *Controller) PanicNextCycle() { c.panicArmed.Store(true) }

// flushDeadFeeds removes from the store all routes learned via feeds
// that have exceeded the down grace period.
func (c *Controller) flushDeadFeeds() {
	for _, router := range c.health.FeedsToFlush() {
		removed := 0
		for _, addr := range c.cfg.Inventory.PeerAddrsOnRouter(router) {
			removed += c.store.Table().RemovePeer(addr)
		}
		c.registry.Counter("edgefabric_bmp_flushes_total").Inc()
		if c.cfg.Logf != nil {
			c.cfg.Logf("bmp feed %s: down past grace, flushed %d routes", router, removed)
		}
	}
}

// exportHealth publishes the health evaluation to the metrics registry.
func (c *Controller) exportHealth(ih InputHealth) {
	m := c.registry
	m.Gauge("edgefabric_health_state").Set(float64(ih.State))
	m.Gauge("edgefabric_traffic_age_seconds").Set(ih.TrafficAge.Seconds())
	m.Gauge("edgefabric_routes_age_seconds").Set(ih.RoutesAge.Seconds())
	m.Gauge("edgefabric_bmp_feeds_up").Set(float64(ih.FeedsUp))
	m.Gauge("edgefabric_bmp_feeds_total").Set(float64(ih.FeedsTotal))
	m.Gauge("edgefabric_injection_sessions_up").Set(float64(ih.SessionsUp))
	m.Gauge("edgefabric_injection_sessions_total").Set(float64(ih.SessionsTotal))

	c.mu.Lock()
	prev := c.lastState
	c.lastState = ih.State
	c.mu.Unlock()
	if ih.State == HealthFailBack && prev != HealthFailBack {
		m.Counter("edgefabric_failback_total").Inc()
	}
	if ih.State == HealthFailStatic {
		m.Counter("edgefabric_failstatic_cycles_total").Inc()
	}
}

// exportDeltaStats publishes the delta-projection cycle accounting.
func (c *Controller) exportDeltaStats(ds DeltaStats) {
	m := c.registry
	if ds.Full {
		m.Counter("edgefabric_delta_full_sweeps_total").Inc()
	}
	if ds.Unchanged {
		m.Counter("edgefabric_delta_unchanged_cycles_total").Inc()
	}
	m.Counter("edgefabric_delta_recomputed_total").Add(uint64(ds.Recomputed))
	m.Counter("edgefabric_delta_rate_refresh_total").Add(uint64(ds.RateOnly))
	m.Counter("edgefabric_delta_removed_total").Add(uint64(ds.Removed))
	m.Gauge("edgefabric_delta_live_prefixes").Set(float64(ds.Live))
	m.Gauge("edgefabric_delta_heavy_threshold_bps").Set(ds.HeavyThr)
}

// frozenReport is a fail-static cycle's report: a copy of the injector's
// installed set as the desired set, and the demand it detours. It
// deliberately does not read the demand window, which is decaying
// toward zero while inputs are stale: acting on it would withdraw
// detours while blind.
func (c *Controller) frozenReport(now time.Time, reasons []string) *CycleReport {
	frozen := slices.Clone(c.injector.Installed())
	rep := &CycleReport{Time: now, Health: HealthFailStatic, HealthReasons: reasons, IfUtil: map[int]float64{}, Overrides: frozen}
	for _, o := range frozen {
		rep.DetouredBps += o.RateBps
	}
	return rep
}

// finishReport numbers, retains, audits, and meters a cycle report.
func (c *Controller) finishReport(report *CycleReport, started time.Time) {
	report.Elapsed = time.Since(started)

	c.mu.Lock()
	c.seq++
	report.Seq = c.seq
	// The newest report is kept whole; the ring keeps summaries, so no
	// override set outlives the cycle that superseded it. Once full, the
	// ring overwrites in place instead of re-slicing (an append+reslice
	// would pin an ever-growing backing array).
	c.last = *report
	if len(c.history) < c.maxHist {
		c.history = append(c.history, summarize(report))
	} else {
		c.history[c.histNext] = summarize(report)
		c.histNext = (c.histNext + 1) % c.maxHist
	}
	c.mu.Unlock()

	if c.cfg.Audit != nil {
		if aerr := c.cfg.Audit.Log(report); aerr != nil && c.cfg.Logf != nil {
			c.cfg.Logf("audit log: %v", aerr)
		}
	}

	m := c.registry
	m.Counter("edgefabric_cycles_total").Inc()
	m.Gauge("edgefabric_overrides_active").Set(float64(len(report.Overrides)))
	m.Gauge("edgefabric_detoured_bps").Set(report.DetouredBps)
	m.Gauge("edgefabric_demand_bps").Set(report.DemandBps)
	m.Counter("edgefabric_announcements_total").Add(uint64(report.Announced))
	m.Counter("edgefabric_withdrawals_total").Add(uint64(report.Withdrawn))
	m.Histogram("edgefabric_cycle_seconds", 0.0001, 0.001, 0.01, 0.1, 1, 10).
		Observe(report.Elapsed.Seconds())
	if len(report.ResidualOverloadBps) > 0 {
		m.Counter("edgefabric_residual_overload_cycles_total").Inc()
	}
	// Announcements the RIB absorbed as no-ops (a BMP re-sync of routes
	// it already held), brought up to the table's running count.
	dups := m.Counter("edgefabric_rib_duplicate_announcements_total")
	dups.Add(c.store.Table().Duplicates() - dups.Value())

	// Cycle watchdog: a cycle that blows its interval budget starves
	// the loop; count it and let consecutive overruns degrade health.
	if report.Elapsed > c.cfg.CycleInterval {
		m.Counter("edgefabric_cycle_overruns_total").Inc()
		c.health.NoteOverrun()
	} else {
		c.health.NoteOnTime()
	}
}

// RunCycle executes one full control cycle: evaluate input health, then
// collect the demand, Decide, inject — or, when inputs are stale,
// freeze (fail-static) or withdraw everything (fail-back). It returns
// the cycle's report. A panicking cycle is recovered, counted, and
// triggers the fail-static hold rather than killing the caller.
// RunCycle must not be invoked concurrently with itself (Decide's state
// is unguarded); the fleet supervisor and the simulation harnesses drive
// it from one goroutine.
func (c *Controller) RunCycle() (report *CycleReport, err error) {
	started := time.Now()
	now := c.cfg.Now()

	defer func() {
		if r := recover(); r == nil {
			return
		} else {
			c.health.NotePanic()
			// A panic mid-projection can leave the incremental
			// projection state half-edited; force the next cycle to
			// rebuild from scratch rather than trust it.
			c.decide.Projector.ResetDelta()
			c.decide.Alloc = AllocState{}
			c.registry.Counter("edgefabric_cycle_panics_total").Inc()
			if c.cfg.Logf != nil {
				c.cfg.Logf("cycle panic recovered: %v", r)
			}
			report = c.frozenReport(now, []string{fmt.Sprintf("cycle panic: %v", r)})
			c.finishReport(report, started)
			c.exportHealth(c.health.Evaluate())
			err = fmt.Errorf("core: cycle panic recovered: %v", r)
		}
	}()

	ih := c.health.BeginCycle()
	c.flushDeadFeeds()
	c.exportHealth(ih)

	if c.panicArmed.CompareAndSwap(true, false) {
		panic("injected cycle fault (PanicNextCycle)")
	}

	switch ih.State {
	case HealthFailBack:
		// Inputs are gone past the point where holding detours is
		// defensible: withdraw everything; the PoP runs on default BGP
		// policy until inputs return.
		res, serr := c.injector.Sync(nil)
		report = &CycleReport{
			Time:          now,
			Health:        ih.State,
			HealthReasons: ih.Reasons,
			IfUtil:        map[int]float64{},
			Withdrawn:     res.Withdrawn,
			Partial:       res.Partial,
		}
		c.finishReport(report, started)
		if c.cfg.Logf != nil && res.Withdrawn > 0 {
			c.cfg.Logf("cycle %d: FAIL-BACK, withdrew %d overrides (%s)", report.Seq, res.Withdrawn, ih)
		}
		return report, serr
	case HealthFailStatic:
		// Freeze: keep the installed set exactly as is.
		report = c.frozenReport(now, ih.Reasons)
		c.finishReport(report, started)
		return report, nil
	}

	var tr *CycleTrace
	if !c.cfg.Trace.Disable {
		tr = NewCycleTrace(traceMaxPrefixes)
		tr.Time = now
	}

	span := c.phCollect.Start()
	var demand map[netip.Prefix]float64
	if ri, ok := c.cfg.Traffic.(trafficRatesInto); ok {
		c.demandBuf = ri.RatesInto(c.demandBuf)
		demand = c.demandBuf
	} else {
		demand = c.cfg.Traffic.Rates()
	}
	span.End()

	// The allocator config is a snapshot: ApplyConfig may mutate it
	// concurrently (HTTP-driven), and a cycle must run under one
	// coherent parameter set.
	report, ds := Decide(CycleInput{
		Routes:    c.store.Table(),
		Demand:    demand,
		Inventory: c.cfg.Inventory,
		Allocator: c.allocatorCfg(),
		Multipath: c.cfg.Optimizer.Multipath,
		Installed: c.injector.Installed(),
		Trace:     tr,
	}, &c.decide)
	c.exportDeltaStats(ds)

	span = c.phInject.Start()
	res, serr := c.injector.Sync(report.Overrides)
	span.End()

	report.Time, report.Health, report.HealthReasons = now, ih.State, ih.Reasons
	report.Announced, report.Withdrawn, report.Partial = res.Announced, res.Withdrawn, res.Partial
	c.finishReport(report, started)
	c.pushTrace(tr, report.Seq)

	if serr != nil {
		c.registry.Counter("edgefabric_injection_errors_total").Inc()
		return report, serr
	}
	if c.cfg.Logf != nil && len(report.Overrides) > 0 {
		c.cfg.Logf("cycle %d: demand %.1fG, %d overrides (%.1fG detoured), +%d/-%d",
			report.Seq, report.DemandBps/1e9, len(report.Overrides),
			report.DetouredBps/1e9, res.Announced, res.Withdrawn)
	}
	return report, nil
}

// History returns a copy of the retained cycle summaries, oldest first.
func (c *Controller) History() []CycleSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.historyLocked()
}

// historyLocked returns a copy of the summary ring, oldest first
// (histNext is 0 until the ring fills). Caller holds c.mu.
func (c *Controller) historyLocked() []CycleSummary {
	lin := make([]CycleSummary, 0, len(c.history))
	return append(append(lin, c.history[c.histNext:]...), c.history[:c.histNext]...)
}

// pushTrace publishes a completed cycle trace into the bounded ring.
func (c *Controller) pushTrace(tr *CycleTrace, seq uint64) {
	if tr == nil {
		return
	}
	tr.Seq = seq
	tr.compact()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.traces) < traceCycles {
		c.traces = append(c.traces, tr)
		return
	}
	c.traces[c.traceNext] = tr
	c.traceNext = (c.traceNext + 1) % len(c.traces)
}

// latestTraceLocked returns the most recent cycle trace, or nil.
// Caller holds c.mu.
func (c *Controller) latestTraceLocked() *CycleTrace {
	var latest *CycleTrace
	for _, t := range c.traces {
		if latest == nil || t.Seq > latest.Seq {
			latest = t
		}
	}
	return latest
}

// Explain renders the decision trace for a prefix: the most recent
// retained cycle in which the allocator considered it, with every
// candidate alternate and its concrete rejection reason. A prefix no
// retained cycle traced gets a synthesized explanation instead: the
// optimizer's no-op from the prefix's current measurements when neither
// of its triggers fires, else the current table and demand.
func (c *Controller) Explain(p netip.Prefix) string {
	p = p.Masked()
	c.mu.Lock()
	var best *CycleTrace
	var pt *PrefixTrace
	for _, t := range c.traces {
		if cand := t.Lookup(p); cand != nil && (best == nil || t.Seq > best.Seq) {
			best, pt = t, cand
		}
	}
	latest := c.latestTraceLocked()
	c.mu.Unlock()

	if pt == nil {
		if s := c.explainMeasured(p, latest); s != "" {
			return s
		}
		return c.explainUnconsidered(p, latest)
	}
	s := fmt.Sprintf("cycle %d @ %s\n%s", best.Seq, best.Time.Format(time.RFC3339), pt.Format(c.cfg.Inventory))
	if latest != nil && latest.Seq != best.Seq {
		s += fmt.Sprintf("note: not considered in the latest cycle (%d); showing cycle %d\n",
			latest.Seq, best.Seq)
	}
	return s
}

// explainMeasured renders the optimizer's most common outcome, which
// it does not record: a measured prefix whose best alternate's gap is
// below multipathMinGainMS while its preferred interface sat below
// multipathSpreadUtil last cycle. It returns "" when the optimize stage
// is off or the prefix's measurements and last cycle do not show that
// outcome.
func (c *Controller) explainMeasured(p netip.Prefix, latest *CycleTrace) string {
	if c.decide.Measurer == nil {
		return ""
	}
	rep := c.decide.Measurer.Report(p)
	if rep == nil || rep.BestAlt == nil || rep.BestAlt.Route == nil {
		return ""
	}
	primary := rep.Paths[0].Route
	last, _ := c.LastReport()
	util := last.IfUtil[primary.EgressIF]
	if rep.GapMS >= multipathMinGainMS || util >= multipathSpreadUtil {
		return ""
	}
	pt := &PrefixTrace{Prefix: p, Preferred: primary, RateBps: c.demandRate(p)}
	pt.Candidates = append(pt.Candidates, CandidateTrace{
		Phase: "multipath", Via: rep.BestAlt.Route, Reason: RejectGapBelowThreshold,
		GapMS: rep.GapMS, NeedGapMS: multipathMinGainMS,
	})
	pt.outcome(OutcomeNone, nil, "gap below threshold and preferred interface uncongested")
	var b strings.Builder
	if latest != nil {
		fmt.Fprintf(&b, "latest cycle %d, rendered from current measurements (no-op outcomes are not traced)\n", latest.Seq)
	} else {
		b.WriteString("rendered from current measurements (no decision traces retained)\n")
	}
	b.WriteString(pt.Format(c.cfg.Inventory))
	fmt.Fprintf(&b, "  preferred interface projected %.1f%% last cycle (multipath spread trigger %.0f%%)\n",
		util*100, multipathSpreadUtil*100)
	return b.String()
}

// demandRate reads one prefix's current demand from the traffic source.
func (c *Controller) demandRate(p netip.Prefix) float64 {
	if tr, ok := c.cfg.Traffic.(trafficRate); ok {
		return tr.Rate(p)
	}
	return c.cfg.Traffic.Rates()[p]
}

// explainUnconsidered synthesizes an explanation for a prefix no
// retained cycle traced: the allocators only look at prefixes on
// overloaded interfaces (or with qualifying perf reports), so "no
// record" itself carries information.
func (c *Controller) explainUnconsidered(p netip.Prefix, latest *CycleTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefix %s\n", p)
	if latest != nil {
		fmt.Fprintf(&b, "  not considered by the allocator in any retained cycle (latest cycle %d)\n", latest.Seq)
	} else {
		b.WriteString("  no decision traces retained (tracing disabled or no cycle has run)\n")
	}
	routes := c.store.Table().Routes(p)
	organic := 0
	var preferred *rib.Route
	for _, r := range routes {
		if r.PeerClass == rib.ClassController {
			continue
		}
		if organic == 0 {
			preferred = r
		}
		organic++
	}
	if organic == 0 {
		b.WriteString("  no organic routes for the prefix in the table\n")
		return b.String()
	}
	rate := c.demandRate(p)
	fmt.Fprintf(&b, "  demand %.2f Gbps, preferred %s via %s (%s), %d organic route(s)\n",
		rate/1e9, ifName(c.cfg.Inventory, preferred.EgressIF), preferred.PeerAddr,
		preferred.PeerClass, organic)
	threshold := c.EffectiveConfig().Threshold
	last, _ := c.LastReport()
	if u, ok := last.IfUtil[preferred.EgressIF]; ok {
		fmt.Fprintf(&b, "  preferred interface projected %.1f%% last cycle (threshold %.0f%%): %s\n",
			u*100, threshold*100, map[bool]string{
				true:  "overloaded",
				false: "below threshold, so the overload allocator had no reason to look",
			}[u > threshold])
	}
	return b.String()
}

// ExplainSummary renders a one-line-per-prefix digest of the most recent
// cycle trace (for GET /explain without a prefix argument).
func (c *Controller) ExplainSummary() string {
	c.mu.Lock()
	latest := c.latestTraceLocked()
	c.mu.Unlock()
	if latest == nil {
		return "no decision traces retained (tracing disabled or no cycle has run)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d @ %s: %d prefix(es) considered",
		latest.Seq, latest.Time.Format(time.RFC3339), latest.Len())
	if latest.Truncated > 0 {
		fmt.Fprintf(&b, " (+%d beyond trace bound)", latest.Truncated)
	}
	b.WriteString("\n")
	for _, p := range latest.Prefixes() {
		pt := latest.Lookup(p)
		fmt.Fprintf(&b, "  %-22s %-24s %s\n", p, pt.Outcome, pt.Detail)
	}
	return b.String()
}

// Installed returns the injector's currently-announced override set.
func (c *Controller) Installed() OverrideSet {
	return c.injector.Installed()
}

// Injector exposes the controller's injector (e.g. for per-router
// delivery introspection in the status API).
func (c *Controller) Injector() *Injector { return c.injector }

// Close tears the controller down: BMP feeds stop and the injection
// sessions drop, which withdraws every override on the routers.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.bmpStop()
	c.injector.Close()
	c.bmpWG.Wait()
}

// FormatReport renders a cycle report as a compact human-readable
// summary (used by edgefabricd and the examples).
func FormatReport(r *CycleReport, inv *Inventory) string {
	s := fmt.Sprintf("cycle %d @ %s: demand %.1f Gbps, overrides %d (%.1f Gbps detoured)",
		r.Seq, r.Time.Format("15:04:05"), r.DemandBps/1e9, len(r.Overrides), r.DetouredBps/1e9)
	if r.Health != HealthHealthy {
		s += fmt.Sprintf(" [%s]", r.Health)
		if len(r.HealthReasons) > 0 {
			s += " " + r.HealthReasons[0]
		}
	}
	ids := make([]int, 0, len(r.IfUtil))
	for id := range r.IfUtil {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		u := r.IfUtil[id]
		if u < 0.5 {
			continue
		}
		name := fmt.Sprintf("if%d", id)
		if info, ok := inv.InterfaceByID(id); ok {
			name = info.Name
		}
		s += fmt.Sprintf("\n  %-24s %5.1f%% projected", name, u*100)
		if res, ok := r.ResidualOverloadBps[id]; ok {
			s += fmt.Sprintf("  (UNRESOLVED +%.1fG)", res/1e9)
		}
	}
	return s
}
