package exp

import (
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// ---------------------------------------------------------------------
// E16: chaos soak
// ---------------------------------------------------------------------
//
// E16 is the regression net over everything the controller claims: it
// runs a controller-enabled PoP through hundreds of cycles of seeded,
// composed chaos — flash crowds and surges stacking on depeerings,
// drains, brownouts, BMP kills, iBGP flaps, and sFlow loss — and checks
// the paper's operational invariants *on every cycle*, not at arm end:
//
//	overload-headroom   no interface stays above threshold for more
//	                    than a grace window while the controller is
//	                    healthy and its own store holds an alternate
//	                    route with headroom
//	fail-static-frozen  while frozen, the installed decision (next hops,
//	                    interfaces, members and weights) never moves
//	                    (acting on a decayed demand window would
//	                    withdraw detours exactly while blind)
//	fail-back-withdraw  past the second staleness threshold every
//	                    override is withdrawn
//	churn-budget        announced+withdrawn per cycle stays within
//	                    budget outside event/health transition windows
//	multipath-weights   every installed weighted member set is
//	                    well-formed: at most MaxPaths members, every
//	                    weight at or above the floor, weights summing
//	                    to exactly 100
//	lossy-path-quarantine
//	                    while a scripted lossy-path event holds a peer
//	                    above the optimizer's loss bound, converged
//	                    member sets no longer steer demand via it
//	shift-absorption    while an inbound demand-shift (anycast re-homing,
//	                    magnitude > 1) holds, a healthy controller must
//	                    not let the PoP shed re-homed load: sustained
//	                    drops with an addressable alternate still open
//	                    mean the shift was dropped instead of detoured
//	recovery            after the last event ends the controller
//	                    returns to healthy within a bounded number of
//	                    cycles
//
// Any violation is reported with the run seed and the full event
// timeline, so the exact failing run replays deterministically.

// SoakConfig parameterizes an E16 run.
type SoakConfig struct {
	// Base is the harness configuration; ControllerEnabled is forced on.
	Base HarnessConfig
	// Seed drives the scenario AND the chaos scheduler; it is the one
	// number a red run needs to replay.
	Seed int64
	// Events, when non-nil, is a scripted timeline; nil composes one
	// with ChaosSchedule(seed).
	Events []netsim.Event
	// Logf, when set, receives progress lines (the seed is always
	// logged at start).
	Logf func(format string, args ...any)
}

// The invariant checker's fixed tolerances.
const (
	// soakOverloadMargin is added to the allocator threshold to give
	// the overload invariant's bound: the controller steers on sampled
	// demand, so the ground-truth check allows a small measurement
	// margin before calling overload addressable.
	soakOverloadMargin = 0.03
	// soakOverloadGrace is how many consecutive addressable-overload
	// cycles are tolerated before a violation (reaction lag: sFlow
	// windows plus one cycle of control lag).
	soakOverloadGrace = 6
	// soakBoundaryGrace exempts cycles this close after an event
	// transition or a health-state change from the churn check (events
	// legitimately re-shuffle the override set).
	soakBoundaryGrace = 3
	// soakLossyGrace is how many consecutive cycles a lossy-path event
	// above the optimizer's loss bound may stay active before every
	// installed member set must have evicted the peer (EWMA loss
	// measurement converges from below, plus a cycle of control lag).
	soakLossyGrace = 12
	// soakShiftDropFrac is the per-tick ground-truth drop fraction an
	// inbound demand-shift window tolerates before the absorption
	// invariant starts counting.
	soakShiftDropFrac = 0.01
	// soakShiftGrace is how many consecutive dropping-with-headroom
	// cycles inside a shift window are tolerated before a violation
	// (the re-homed load lands all at once; measurement plus control
	// lag need a few cycles to chase it).
	soakShiftGrace = 8
	// soakRecoverySettleWall bounds the wall-clock wait for feeds and
	// sessions to re-establish after the last event (BMP/iBGP redial
	// backoff is wall-clock, not virtual).
	soakRecoverySettleWall = 15 * time.Second
	// soakRecoveryCycles bounds how many cycles after settling the
	// controller has to produce a healthy cycle.
	soakRecoveryCycles = 10
)

// SoakViolation is one invariant breach, timestamped in cycles and
// virtual time.
type SoakViolation struct {
	Cycle     int
	Time      time.Time
	Invariant string
	Detail    string
}

func (v SoakViolation) String() string {
	return fmt.Sprintf("cycle %d (%s) %s: %s",
		v.Cycle, v.Time.Format("15:04:05"), v.Invariant, v.Detail)
}

// SoakResult records one E16 run.
type SoakResult struct {
	// Seed replays the run.
	Seed int64
	// Cycles actually soaked.
	Cycles int
	// Events is the (scheduled) timeline the run composed.
	Events []netsim.Event
	// Violations lists every invariant breach; empty is a green run.
	Violations []SoakViolation

	// MaxUtil is the worst ground-truth interface utilization observed.
	MaxUtil float64
	// HealthCycles counts cycles per health state.
	HealthCycles map[core.HealthState]int
	// TotalChurn sums announced+withdrawn over the run.
	TotalChurn int
	// PeakOverrides is the largest installed override set seen.
	PeakOverrides int
	// LossyWindows is how many scripted lossy-path events were hot
	// enough (above the optimizer's loss bound) to arm the
	// lossy-path-quarantine invariant.
	LossyWindows int
	// ShiftWindows is how many scripted demand-shift events were
	// inbound (magnitude > 1) and so armed the shift-absorption
	// invariant.
	ShiftWindows int
	// Recovered reports the post-event recovery check passed (true when
	// the timeline ended in time to check it).
	Recovered bool
	// RecoverCycles is how many cycles recovery took.
	RecoverCycles int
}

// String renders the result; a red run carries the seed and the full
// timeline for deterministic replay.
func (r *SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16 chaos soak: seed=%d cycles=%d events=%d\n", r.Seed, r.Cycles, len(r.Events))
	fmt.Fprintf(&b, "  health cycles: healthy=%d degraded=%d fail-static=%d fail-back=%d\n",
		r.HealthCycles[core.HealthHealthy], r.HealthCycles[core.HealthDegraded],
		r.HealthCycles[core.HealthFailStatic], r.HealthCycles[core.HealthFailBack])
	fmt.Fprintf(&b, "  max ground-truth util %.2f, total churn %d, peak overrides %d\n",
		r.MaxUtil, r.TotalChurn, r.PeakOverrides)
	if r.Recovered {
		fmt.Fprintf(&b, "  recovered to healthy %d cycles after last event\n", r.RecoverCycles)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "  invariants: 0 violations\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  invariants: %d VIOLATIONS (replay with seed=%d):\n", len(r.Violations), r.Seed)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    %s\n", v)
	}
	fmt.Fprintf(&b, "  event timeline:\n%s", netsim.FormatTimeline(r.Events))
	return b.String()
}

// invariantChecker holds the per-cycle checking state.
type invariantChecker struct {
	h           *Harness
	threshold   float64 // overload bound: allocator threshold + soakOverloadMargin
	churnBudget int     // per-cycle announced+withdrawn bound
	maxPaths    int     // multipath member-set bound (config or default)

	overStreak map[int]int // interface -> consecutive addressable-overload cycles
	overFired  map[int]bool
	frozen     map[netip.Prefix]core.Override
	inFreeze   bool
	lastHealth core.HealthState
	haveHealth bool
	graceLeft  int

	lossyEvents []*lossyWindow
	shiftEvents []*shiftWindow
	mpFired     map[netip.Prefix]bool

	cycle      int
	violations []SoakViolation
}

// lossyWindow tracks one scripted lossy-path event hot enough that the
// optimizer is obligated to evict the peer from weighted member sets.
type lossyWindow struct {
	peer     string
	addr     netip.Addr
	mag      float64
	from, to time.Time
	streak   int // consecutive healthy cycles inside the window
	fired    bool
}

// shiftWindow tracks one inbound demand-shift event (a neighbor PoP's
// users re-homed here) during which the controller must absorb the
// landed load rather than shed it.
type shiftWindow struct {
	mag      float64
	from, to time.Time
	streak   int // consecutive dropping-with-headroom healthy cycles
	fired    bool
}

func newInvariantChecker(h *Harness, cfg *SoakConfig) *invariantChecker {
	threshold := cfg.Base.Allocator.Threshold
	if threshold == 0 {
		threshold = 0.95
	}
	// Mirror the optimizer's defaulting: the checker must judge by the
	// bounds the optimizer actually ran with.
	maxPaths := cfg.Base.MultipathCfg.MaxPaths
	if maxPaths == 0 {
		maxPaths = 3
	}
	return &invariantChecker{
		h:           h,
		threshold:   threshold + soakOverloadMargin,
		churnBudget: max(25, len(h.Scenario.Prefixes)/20),
		maxPaths:    maxPaths,
		overStreak:  make(map[int]int),
		overFired:   make(map[int]bool),
		mpFired:     make(map[netip.Prefix]bool),
	}
}

// armPerfInvariants extracts the lossy-path events hot enough to
// obligate eviction (scripted loss strictly above the optimizer's
// core.MultipathMaxLossFrac, with margin for congestion noise in the
// measurement) and anchors their windows at the timeline start.
func (c *invariantChecker) armPerfInvariants(events []netsim.Event, start time.Time) {
	bound := float64(core.MultipathMaxLossFrac) // a variable: bound+0.02 rounds at run time
	addrOf := make(map[string]netip.Addr, len(c.h.PoP.Topo.Peers))
	for i := range c.h.PoP.Topo.Peers {
		p := &c.h.PoP.Topo.Peers[i]
		addrOf[p.Name] = p.Addr
	}
	for _, ev := range events {
		if ev.Kind != netsim.EventLossyPath || ev.Duration <= 0 {
			continue
		}
		if ev.Magnitude <= bound+0.02 {
			continue // below or too near the bound: eviction not obligatory
		}
		addr, ok := addrOf[ev.Peer]
		if !ok {
			continue
		}
		c.lossyEvents = append(c.lossyEvents, &lossyWindow{
			peer: ev.Peer,
			addr: addr,
			mag:  ev.Magnitude,
			from: start.Add(ev.At),
			to:   start.Add(ev.At + ev.Duration),
		})
	}
}

// armShiftInvariants extracts the inbound demand-shift events — anycast
// re-homings that dump another PoP's users here, magnitude comfortably
// above 1 — and anchors their absorption windows at the timeline start.
// Outbound shifts (magnitude < 1) only remove load and need no check.
func (c *invariantChecker) armShiftInvariants(events []netsim.Event, start time.Time) {
	for _, ev := range events {
		if ev.Kind != netsim.EventDemandShift || ev.Duration <= 0 || ev.Magnitude < 1.15 {
			continue
		}
		c.shiftEvents = append(c.shiftEvents, &shiftWindow{
			mag:  ev.Magnitude,
			from: start.Add(ev.At),
			to:   start.Add(ev.At + ev.Duration),
		})
	}
}

func (c *invariantChecker) violate(t time.Time, invariant, format string, args ...any) {
	c.violations = append(c.violations, SoakViolation{
		Cycle:     c.cycle,
		Time:      t,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// groundCap reads the live (event-degraded) capacity from the PoP
// topology; stats carry loads, the topology carries truth.
func (c *invariantChecker) groundCap(id int) float64 {
	if ifc := c.h.PoP.Topo.InterfaceByID(id); ifc != nil {
		return ifc.CapacityBps
	}
	return 0
}

// observe runs every invariant against one cycle. boundaries is how
// many event transitions fired since the previous cycle.
func (c *invariantChecker) observe(stats *netsim.TickStats, r *core.CycleReport, boundaries int) {
	if r == nil {
		return
	}
	c.cycle++

	healthChanged := c.haveHealth && r.Health != c.lastHealth
	c.lastHealth, c.haveHealth = r.Health, true
	if boundaries > 0 || healthChanged {
		c.graceLeft = soakBoundaryGrace
	}

	// --- churn budget, outside transition windows.
	churn := r.Announced + r.Withdrawn
	if c.graceLeft == 0 && churn > c.churnBudget {
		c.violate(r.Time, "churn-budget",
			"announced=%d withdrawn=%d exceeds budget %d with no event or health transition in the last %d cycles",
			r.Announced, r.Withdrawn, c.churnBudget, soakBoundaryGrace)
	}

	installed := c.h.Controller.Installed()
	// Maps are walked in a fixed order (prefixes in rib.ComparePrefixes
	// order, interfaces by ID), so one cycle's violations, and the
	// prefix or interface each names, repeat run to run.
	installedPrefixes := sortedKeys(installed, rib.ComparePrefixes)

	// --- multipath structure: every installed weighted member set is
	// well-formed, whatever the health state (a frozen set was once
	// installed by a healthy controller and must still be sound).
	for _, p := range installedPrefixes {
		o := installed[p]
		if len(o.Multipath) == 0 || c.mpFired[p] {
			continue
		}
		bad := ""
		if len(o.Multipath) > c.maxPaths {
			bad = fmt.Sprintf("%d members exceeds MaxPaths %d", len(o.Multipath), c.maxPaths)
		}
		sum := 0
		for _, pw := range o.Multipath {
			sum += pw.WeightPct
			if bad == "" && pw.WeightPct < core.MultipathMinWeightPct {
				bad = fmt.Sprintf("member weight %d%% below the %d%% floor", pw.WeightPct, core.MultipathMinWeightPct)
			}
		}
		if bad == "" && sum != 100 {
			bad = fmt.Sprintf("weights sum to %d, want 100", sum)
		}
		if bad != "" {
			c.mpFired[p] = true // once per prefix, not per cycle
			c.violate(r.Time, "multipath-weights", "%s: %s", p, bad)
		}
	}

	// --- lossy-path quarantine: while a scripted event holds a peer's
	// loss above the optimizer's bound, a healthy controller must have
	// evicted the peer from every weighted member set once measurement
	// converges. A frozen controller is deliberately not acting, so the
	// streak only advances on healthy cycles.
	for _, lw := range c.lossyEvents {
		if r.Health != core.HealthHealthy || r.Time.Before(lw.from) || !r.Time.Before(lw.to) {
			lw.streak = 0
			continue
		}
		lw.streak++
		if lw.streak <= soakLossyGrace || lw.fired {
			continue
		}
		for _, p := range installedPrefixes {
			for _, pw := range installed[p].Multipath {
				if pw.Via != nil && pw.Via.PeerAddr == lw.addr {
					lw.fired = true // once per episode
					c.violate(r.Time, "lossy-path-quarantine",
						"%s still steers %d%% via %s %d healthy cycles into a %.0f%% scripted loss event",
						p, pw.WeightPct, lw.peer, lw.streak, 100*lw.mag)
					break
				}
			}
			if lw.fired {
				break
			}
		}
	}

	// --- shift absorption: while an inbound demand-shift holds, a
	// healthy controller must not shed the re-homed load. Dropping more
	// than the bound with an addressable alternate still open — some hot
	// interface whose demand could move to an interface with headroom the
	// controller's own store has a route for — counts against the grace;
	// unaddressable drops (everything genuinely full) are the residual
	// overload the paper accepts.
	for _, sw := range c.shiftEvents {
		if r.Health != core.HealthHealthy || stats == nil ||
			r.Time.Before(sw.from) || !r.Time.Before(sw.to) {
			sw.streak = 0
			continue
		}
		demand := stats.TotalDemandBps()
		if demand <= 0 || stats.TotalDropsBps()/demand <= soakShiftDropFrac {
			sw.streak = 0
			continue
		}
		var hotPrefix netip.Prefix
		hotIf, altIf, addressable := 0, 0, false
		for _, id := range sortedKeys(stats.IfLoadBps, cmp.Compare[int]) {
			load := stats.IfLoadBps[id]
			capBps := c.groundCap(id)
			if capBps <= 0 || load/capBps <= c.threshold {
				continue
			}
			if p, alt, ok := c.findAlternate(stats, id); ok {
				hotPrefix, hotIf, altIf, addressable = p, id, alt, true
				break
			}
		}
		if !addressable {
			sw.streak = 0
			continue
		}
		sw.streak++
		if sw.streak > soakShiftGrace && !sw.fired {
			sw.fired = true // once per window
			c.violate(r.Time, "shift-absorption",
				"dropping %.2f%% of demand %d healthy cycles into a ×%.2f inbound shift; e.g. %s could move from if%d to if%d",
				100*stats.TotalDropsBps()/demand, sw.streak, sw.mag, hotPrefix, hotIf, altIf)
		}
	}

	// --- fail-static / fail-back correctness.
	switch r.Health {
	case core.HealthFailStatic:
		if !c.inFreeze {
			c.inFreeze = true
			c.frozen = installed
		} else if installedDecision(installed) != installedDecision(c.frozen) {
			c.violate(r.Time, "fail-static-frozen",
				"installed decision changed while frozen: %d -> %d overrides",
				len(c.frozen), len(installed))
			c.frozen = installed
		}
	case core.HealthFailBack:
		c.inFreeze = false
		if n := len(installed); n != 0 {
			c.violate(r.Time, "fail-back-withdraw",
				"%d overrides still installed past the fail-back threshold", n)
		}
	default:
		c.inFreeze = false
	}

	// --- overload with headroom: only while the controller is healthy
	// (a frozen or failed-back controller is deliberately not acting,
	// and a degraded one may have flushed the routes it would need).
	if r.Health != core.HealthHealthy || c.graceLeft > 0 {
		for id := range c.overStreak {
			c.overStreak[id] = 0
		}
	} else {
		for _, id := range sortedKeys(stats.IfLoadBps, cmp.Compare[int]) {
			load := stats.IfLoadBps[id]
			capBps := c.groundCap(id)
			if capBps <= 0 || load/capBps <= c.threshold {
				c.overStreak[id] = 0
				c.overFired[id] = false
				continue
			}
			prefix, alt, ok := c.findAlternate(stats, id)
			if !ok {
				// Hot but unaddressable: residual overload the paper
				// accepts (e.g. every alternate is also full).
				c.overStreak[id] = 0
				continue
			}
			c.overStreak[id]++
			if c.overStreak[id] > soakOverloadGrace && !c.overFired[id] {
				c.overFired[id] = true // once per episode, not per cycle
				ifName := ""
				if ifc := c.h.PoP.Topo.InterfaceByID(id); ifc != nil {
					ifName = ifc.Name
				}
				c.violate(r.Time, "overload-headroom",
					"interface %d (%s) at %.0f%% for %d cycles while healthy; e.g. %s could move to if%d with headroom",
					id, ifName, 100*load/capBps, c.overStreak[id], prefix, alt)
			}
		}
	}
	if c.graceLeft > 0 {
		c.graceLeft--
	}
}

// sortedKeys returns m's keys in cmp order.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

// findAlternate looks for evidence the overload on hot was addressable:
// a prefix currently egressing hot whose demand fits under the
// threshold on another interface the controller's own store has a route
// for. Checks the heaviest prefixes first (ties in prefix order);
// bounded to keep the checker cheap.
func (c *invariantChecker) findAlternate(stats *netsim.TickStats, hot int) (netip.Prefix, int, bool) {
	type cand struct {
		p   netip.Prefix
		bps float64
	}
	var cands []cand
	for p, pt := range stats.Prefix {
		if pt.EgressIF == hot {
			cands = append(cands, cand{p, pt.DemandBps})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if o := cmp.Compare(b.bps, a.bps); o != 0 {
			return o
		}
		return rib.ComparePrefixes(a.p, b.p)
	})
	if len(cands) > 20 {
		cands = cands[:20]
	}
	table := c.h.Controller.Store().Table()
	for _, cd := range cands {
		for _, rt := range table.Routes(cd.p) {
			if rt.PeerClass == rib.ClassController || rt.EgressIF == hot {
				continue
			}
			altCap := c.groundCap(rt.EgressIF)
			if altCap <= 0 {
				continue
			}
			if stats.IfLoadBps[rt.EgressIF]+cd.bps <= c.threshold*altCap {
				return cd.p, rt.EgressIF, true
			}
		}
	}
	return netip.Prefix{}, 0, false
}

// E16ChaosSoak builds a controller-enabled harness, attaches a chaos (or
// scripted) event timeline, soaks for cycles cycles with the invariant
// checker on every one, then checks bounded recovery. chaosEvents is
// how many events ChaosSchedule composes when cfg.Events is nil (0 for
// its default). The returned result is green iff Violations is empty.
func E16ChaosSoak(ctx context.Context, cfg SoakConfig, cycles, chaosEvents int) (*SoakResult, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	base := cfg.Base
	base.ControllerEnabled = true
	// The soak covers the full controller, weighted multipath included:
	// the perf chaos vocabulary (path-rtt, lossy-path) is meaningless
	// against a capacity-only controller.
	base.PerfAware = true
	base.Multipath = true
	if base.MultipathCfg.MaxMoves == 0 {
		// Unbounded, the optimizer installs every converged split in one
		// cycle the moment measurements reach the optimizer's sample
		// floor — a cold-start burst no operator would ship. Budget it
		// so convergence spreads over a few cycles and stays inside the
		// churn invariant; re-affirmations of installed sets remain
		// free.
		base.MultipathCfg.MaxMoves = 10
	}
	if base.Synth.Seed == 0 {
		base.Synth.Seed = cfg.Seed
	}
	if (base.Health == core.HealthConfig{}) {
		// The E11 reference ladder: staleness observable within cycles,
		// fail-back within a blackout's reach.
		base.Health = core.HealthConfig{
			TrafficStaleAfter: 45 * time.Second,
			TrafficFailAfter:  150 * time.Second,
			BMPFlushAfter:     90 * time.Second,
		}
	}
	h, err := NewHarness(ctx, base)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	events := cfg.Events
	if events == nil {
		horizon := time.Duration(cycles) * h.Cfg.TickLen
		// Leave the tail of the run event-free so recovery is checkable.
		if horizon > time.Hour {
			horizon -= 30 * time.Minute
		}
		events, err = netsim.ChaosSchedule(h.Scenario, netsim.ChaosConfig{
			Seed:    cfg.Seed,
			Horizon: horizon,
			Events:  chaosEvents,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := h.AttachEvents(events); err != nil {
		return nil, err
	}

	res := &SoakResult{
		Seed:         cfg.Seed,
		Events:       events,
		HealthCycles: make(map[core.HealthState]int),
	}
	logf("E16 soak start: seed=%d cycles=%d events=%d (replay: -seed %d)",
		cfg.Seed, cycles, len(events), cfg.Seed)

	chk := newInvariantChecker(h, &cfg)
	chk.armPerfInvariants(events, h.Clock.Now())
	chk.armShiftInvariants(events, h.Clock.Now())
	res.LossyWindows = len(chk.lossyEvents)
	res.ShiftWindows = len(chk.shiftEvents)
	lastBoundaries := 0
	for chk.cycle < cycles {
		stats, r := h.Step()
		fired := h.EventBoundaries() - lastBoundaries
		lastBoundaries = h.EventBoundaries()
		if stats != nil {
			for id, load := range stats.IfLoadBps {
				if capBps := chk.groundCap(id); capBps > 0 && load/capBps > res.MaxUtil {
					res.MaxUtil = load / capBps
				}
			}
		}
		chk.observe(stats, r, fired)
		if r != nil {
			res.HealthCycles[r.Health]++
			res.TotalChurn += r.Announced + r.Withdrawn
			if n := len(r.Overrides); n > res.PeakOverrides {
				res.PeakOverrides = n
			}
		}
	}
	res.Cycles = chk.cycle

	// --- bounded recovery after the last event.
	if h.Events.Done() {
		health := h.Controller.Health()
		settled := waitWall(soakRecoverySettleWall, func() bool {
			ih := health.Evaluate()
			return ih.FeedsUp == ih.FeedsTotal && ih.SessionsUp == ih.SessionsTotal
		})
		if !settled {
			chk.cycle++
			chk.violate(h.Clock.Now(), "recovery",
				"feeds/sessions not re-established within %s wall after last event", soakRecoverySettleWall)
		} else {
			n, ok := stepUntil(h, soakRecoveryCycles, func(r *core.CycleReport) bool {
				return r.Health == core.HealthHealthy
			})
			chk.cycle += n
			if !ok {
				chk.violate(h.Clock.Now(), "recovery",
					"no healthy cycle within %d cycles after last event", soakRecoveryCycles)
			} else {
				res.Recovered, res.RecoverCycles = true, n
			}
		}
	}

	res.Violations = chk.violations
	if len(res.Violations) > 0 {
		logf("E16 soak FAILED: seed=%d violations=%d\n%s",
			cfg.Seed, len(res.Violations), netsim.FormatTimeline(events))
	} else {
		logf("E16 soak green: seed=%d cycles=%d", cfg.Seed, res.Cycles)
	}
	return res, nil
}

// E16ControlArm is the intentionally-broken arm: the same checker
// pointed at a controller with fail-static effectively disabled
// (staleness thresholds pushed out to a day). A scripted total sFlow
// blackout then leaves the controller nominally healthy while blind —
// it withdraws its overrides as the demand window decays, ground-truth
// overload returns with transit headroom available, and the
// overload-headroom invariant must fire. A green control arm means the
// checker can't detect the regression the soak exists to catch.
func E16ControlArm(ctx context.Context, seed int64) (*SoakResult, error) {
	base := HarnessConfig{
		Synth: netsim.SynthConfig{
			Seed:               seed,
			Prefixes:           250,
			EdgeASes:           40,
			PrivatePeers:       4,
			PublicPeers:        8,
			RouteServerMembers: 10,
			Transits:           2,
			Routers:            2,
			PeakBps:            100e9,
			// Every PNI under peak demand: sustained overload the
			// controller must keep detouring around.
			PNIHeadroomMin: 0.6,
			PNIHeadroomMax: 0.9,
		},
		Demand:    netsim.DemandConfig{NoiseSigma: 0.05},
		Allocator: core.AllocatorConfig{Threshold: 0.95},
		// Peak hour: the PNIs are hot from the first cycle.
		Start: time.Date(2017, 3, 1, 20, 0, 0, 0, time.UTC),
		// Fail-static disabled: staleness thresholds a day out, so the
		// blackout never freezes or fails back the controller.
		Health: core.HealthConfig{
			TrafficStaleAfter: 24 * time.Hour,
			TrafficFailAfter:  48 * time.Hour,
			BMPFlushAfter:     48 * time.Hour,
		},
	}
	cfg := SoakConfig{
		Base: base,
		Seed: seed,
		Events: []netsim.Event{
			// Total blackout from 3 minutes in through the end of the
			// run: the demand window decays under a "healthy"
			// controller.
			{Kind: netsim.EventSFlowLoss, At: 3 * time.Minute, Duration: 2 * time.Hour, Magnitude: 1},
		},
	}
	return E16ChaosSoak(ctx, cfg, 30, 0)
}
