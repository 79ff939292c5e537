package core

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"
)

// HealthState is the controller's rolled-up input-health verdict, the
// failure-domain counterpart of the paper's central safety argument: the
// controller is stateless and must *fail back to default BGP policy*
// rather than act on inputs it no longer has.
type HealthState int

const (
	// HealthHealthy: all inputs fresh; the controller allocates normally.
	HealthHealthy HealthState = iota
	// HealthDegraded: some redundancy lost (a BMP feed or injection
	// session down, cycles overrunning) but the controller still has
	// fresh traffic and route inputs, so it keeps allocating.
	HealthDegraded
	// HealthFailStatic: a required input is stale beyond its threshold
	// (or a cycle recently panicked). The controller freezes the
	// installed override set: no new detours, and — critically — no
	// withdrawals driven by a decayed demand window. Frozen state is
	// still safe: a controller death from here degrades to plain BGP.
	HealthFailStatic
	// HealthFailBack: the input has been stale past the second
	// threshold; holding possibly-wrong detours is now riskier than
	// BGP's defaults, so the controller withdraws every override and
	// the PoP fails back to default BGP policy, per the paper.
	HealthFailBack
)

// String returns the state name.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthFailStatic:
		return "fail-static"
	case HealthFailBack:
		return "fail-back"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// HealthConfig parameterizes input-health thresholds. All durations are
// in the controller's time base (the simulator's virtual clock, wall
// clock in production).
type HealthConfig struct {
	// TrafficStaleAfter is the sFlow last-datagram age beyond which the
	// controller goes fail-static (the demand window is decaying toward
	// zero, so acting on it would withdraw detours exactly when the
	// controller is blind). Default 2 cycle intervals.
	TrafficStaleAfter time.Duration
	// TrafficFailAfter is the traffic age beyond which the controller
	// fails back to BGP entirely. Default 10 cycle intervals.
	TrafficFailAfter time.Duration
	// RoutesStaleAfter is how long the controller tolerates *all* BMP
	// feeds being down before going fail-static (blind to route
	// alternatives). Default 4 cycle intervals.
	RoutesStaleAfter time.Duration
	// RoutesFailAfter is the all-feeds-down age beyond which the
	// controller fails back to BGP. Default 20 cycle intervals.
	RoutesFailAfter time.Duration
	// BMPFlushAfter is the per-feed grace period: a single dead feed's
	// routes are flushed from the store once it has been down this
	// long (they can no longer be trusted), and restored by the BMP
	// table dump on reconnect. Default 4 cycle intervals.
	BMPFlushAfter time.Duration
}

const (
	// panicHoldCycles is how many cycles the controller stays
	// fail-static after a recovered cycle panic.
	panicHoldCycles = 3
	// overrunsForDegraded is the number of consecutive cycle-deadline
	// overruns after which health reports degraded.
	overrunsForDegraded = 2
)

// setDefaults fills zero fields from the cycle interval.
func (c *HealthConfig) setDefaults(cycle time.Duration) {
	if cycle <= 0 {
		cycle = 30 * time.Second
	}
	if c.TrafficStaleAfter == 0 {
		c.TrafficStaleAfter = 2 * cycle
	}
	if c.TrafficFailAfter == 0 {
		c.TrafficFailAfter = 10 * cycle
	}
	if c.RoutesStaleAfter == 0 {
		c.RoutesStaleAfter = 4 * cycle
	}
	if c.RoutesFailAfter == 0 {
		c.RoutesFailAfter = 20 * cycle
	}
	if c.BMPFlushAfter == 0 {
		c.BMPFlushAfter = 4 * cycle
	}
}

// TrafficFreshness is optionally implemented by a TrafficSource that can
// report when it last ingested a sample (sflow.Collector does). Sources
// without it are treated as always fresh.
type TrafficFreshness interface {
	// LastIngest returns the time of the most recent ingested datagram,
	// or the zero time if none was ever ingested.
	LastIngest() time.Time
}

// FeedStatus is one BMP feed's health record.
type FeedStatus struct {
	// Router is the feed's router name.
	Router string
	// Up reports whether the stream is currently connected.
	Up bool
	// Since is the time of the last up/down transition.
	Since time.Time
	// LastEvent is the time of the last decoded BMP event.
	LastEvent time.Time
	// Reconnects counts successful re-establishments after the first.
	Reconnects uint64
	// Flushed reports that the feed's routes were flushed from the
	// store after the grace period (cleared on reconnect).
	Flushed bool
}

// SessionStatus is one injection session's health record.
type SessionStatus struct {
	// Router is the session's peering-router address.
	Router netip.Addr
	// Up reports whether the iBGP session is established.
	Up bool
	// Since is the time of the last up/down transition.
	Since time.Time
	// Flaps counts transitions out of established.
	Flaps uint64
}

// InputHealth is one cycle's health evaluation.
type InputHealth struct {
	// State is the rollup.
	State HealthState
	// Reasons explains non-healthy states, one clause per cause.
	Reasons []string
	// TrafficAge is the age of the newest traffic sample (0 when the
	// source does not report freshness).
	TrafficAge time.Duration
	// RoutesAge is how long *all* BMP feeds have been down (0 while any
	// feed is up, or when no feed is registered).
	RoutesAge time.Duration
	// FeedsUp / FeedsTotal count BMP feeds.
	FeedsUp, FeedsTotal int
	// SessionsUp / SessionsTotal count injection sessions.
	SessionsUp, SessionsTotal int
	// Panics counts recovered cycle panics since start.
	Panics uint64
	// PanicHold is the number of fail-static cycles remaining from the
	// most recent panic.
	PanicHold int
}

// HealthTracker aggregates liveness and freshness of every controller
// input — BMP feeds, the sFlow traffic source, injection sessions, and
// the cycle loop itself — into the fail-static state machine. Safe for
// concurrent use; feed and session callbacks arrive from their
// respective session goroutines.
type HealthTracker struct {
	cfg     HealthConfig
	now     func() time.Time
	traffic TrafficFreshness // nil: treated as always fresh

	mu           sync.Mutex
	started      time.Time
	feeds        map[string]*FeedStatus
	sessions     map[netip.Addr]*SessionStatus
	allDownSince time.Time // set while every registered feed is down
	panics       uint64
	panicHold    int
	overruns     uint64
	consecOver   int
}

// NewHealthTracker returns a tracker using now as its time base. traffic
// may be nil or a TrafficSource; freshness is used when implemented.
func NewHealthTracker(cfg HealthConfig, now func() time.Time, traffic any) *HealthTracker {
	if now == nil {
		now = time.Now
	}
	t := &HealthTracker{
		cfg:      cfg,
		now:      now,
		started:  now(),
		feeds:    make(map[string]*FeedStatus),
		sessions: make(map[netip.Addr]*SessionStatus),
	}
	if f, ok := traffic.(TrafficFreshness); ok {
		t.traffic = f
	}
	return t
}

// RegisterFeed records a BMP feed before its first connection.
func (t *HealthTracker) RegisterFeed(router string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.feeds[router]; ok {
		return
	}
	t.feeds[router] = &FeedStatus{Router: router, Since: t.now()}
	t.recomputeAllDownLocked()
}

// FeedUp marks a feed connected.
func (t *HealthTracker) FeedUp(router string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.feedLocked(router)
	if !f.Up {
		if !f.Since.IsZero() && f.LastEvent != (time.Time{}) {
			// A previous session existed: this is a reconnect.
			f.Reconnects++
		}
		f.Up = true
		f.Since = t.now()
		f.Flushed = false
	}
	f.LastEvent = t.now()
	t.allDownSince = time.Time{}
}

// FeedDown marks a feed disconnected.
func (t *HealthTracker) FeedDown(router string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.feedLocked(router)
	if f.Up {
		f.Up = false
		f.Since = t.now()
	}
	t.recomputeAllDownLocked()
}

// TouchFeed records BMP event arrival on a feed.
func (t *HealthTracker) TouchFeed(router string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.feedLocked(router).LastEvent = t.now()
}

func (t *HealthTracker) feedLocked(router string) *FeedStatus {
	f, ok := t.feeds[router]
	if !ok {
		f = &FeedStatus{Router: router, Since: t.now()}
		t.feeds[router] = f
	}
	return f
}

// recomputeAllDownLocked stamps allDownSince when the last live feed
// died (or feeds exist but none ever connected).
func (t *HealthTracker) recomputeAllDownLocked() {
	if len(t.feeds) == 0 {
		t.allDownSince = time.Time{}
		return
	}
	for _, f := range t.feeds {
		if f.Up {
			t.allDownSince = time.Time{}
			return
		}
	}
	if t.allDownSince.IsZero() {
		t.allDownSince = t.now()
	}
}

// RegisterSession records an injection session before establishment.
func (t *HealthTracker) RegisterSession(router netip.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[router]; !ok {
		t.sessions[router] = &SessionStatus{Router: router, Since: t.now()}
	}
}

// SessionUp marks an injection session established.
func (t *HealthTracker) SessionUp(router netip.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[router]
	if !ok {
		s = &SessionStatus{Router: router}
		t.sessions[router] = s
	}
	if !s.Up {
		s.Up = true
		s.Since = t.now()
	}
}

// SessionDown marks an injection session lost.
func (t *HealthTracker) SessionDown(router netip.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[router]
	if !ok {
		s = &SessionStatus{Router: router}
		t.sessions[router] = s
	}
	if s.Up {
		s.Up = false
		s.Since = t.now()
		s.Flaps++
	}
}

// NotePanic records a recovered cycle panic and arms the fail-static
// hold.
func (t *HealthTracker) NotePanic() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.panics++
	t.panicHold = panicHoldCycles
}

// NoteOverrun records a cycle that exceeded its deadline.
func (t *HealthTracker) NoteOverrun() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.overruns++
	t.consecOver++
}

// NoteOnTime records a cycle that met its deadline.
func (t *HealthTracker) NoteOnTime() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.consecOver = 0
}

// FeedsToFlush returns feeds that have been down longer than the grace
// period and not yet flushed, marking them flushed. The caller (the
// controller cycle) removes their routes from the store.
func (t *HealthTracker) FeedsToFlush() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []string
	for _, f := range t.feeds {
		if !f.Up && !f.Flushed && !f.Since.IsZero() && now.Sub(f.Since) >= t.cfg.BMPFlushAfter {
			f.Flushed = true
			out = append(out, f.Router)
		}
	}
	sort.Strings(out)
	return out
}

// Feeds returns a sorted snapshot of feed records.
func (t *HealthTracker) Feeds() []FeedStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FeedStatus, 0, len(t.feeds))
	for _, f := range t.feeds {
		out = append(out, *f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Router < out[b].Router })
	return out
}

// Sessions returns a sorted snapshot of injection-session records.
func (t *HealthTracker) Sessions() []SessionStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SessionStatus, 0, len(t.sessions))
	for _, s := range t.sessions {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Router.Less(out[b].Router) })
	return out
}

// BeginCycle consumes one cycle of the post-panic hold and evaluates
// health; RunCycle calls it exactly once per cycle.
func (t *HealthTracker) BeginCycle() InputHealth {
	t.mu.Lock()
	if t.panicHold > 0 {
		t.panicHold--
	}
	t.mu.Unlock()
	return t.Evaluate()
}

// Evaluate computes the current input health without consuming hold
// cycles (used by the status API between cycles).
func (t *HealthTracker) Evaluate() InputHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	h := InputHealth{
		FeedsTotal:    len(t.feeds),
		SessionsTotal: len(t.sessions),
		Panics:        t.panics,
		PanicHold:     t.panicHold,
	}
	for _, f := range t.feeds {
		if f.Up {
			h.FeedsUp++
		}
	}
	for _, s := range t.sessions {
		if s.Up {
			h.SessionsUp++
		}
	}
	if t.traffic != nil {
		last := t.traffic.LastIngest()
		if last.IsZero() {
			last = t.started
		}
		if age := now.Sub(last); age > 0 {
			h.TrafficAge = age
		}
	}
	if !t.allDownSince.IsZero() {
		if age := now.Sub(t.allDownSince); age > 0 {
			h.RoutesAge = age
		}
	}

	// Rollup, worst cause wins.
	switch {
	case h.TrafficAge >= t.cfg.TrafficFailAfter:
		h.State = HealthFailBack
		h.Reasons = append(h.Reasons, fmt.Sprintf("traffic stale %v >= fail-back threshold %v", h.TrafficAge, t.cfg.TrafficFailAfter))
	case h.RoutesAge >= t.cfg.RoutesFailAfter:
		h.State = HealthFailBack
		h.Reasons = append(h.Reasons, fmt.Sprintf("all BMP feeds down %v >= fail-back threshold %v", h.RoutesAge, t.cfg.RoutesFailAfter))
	case h.TrafficAge >= t.cfg.TrafficStaleAfter:
		h.State = HealthFailStatic
		h.Reasons = append(h.Reasons, fmt.Sprintf("traffic stale %v >= threshold %v", h.TrafficAge, t.cfg.TrafficStaleAfter))
	case h.RoutesAge >= t.cfg.RoutesStaleAfter:
		h.State = HealthFailStatic
		h.Reasons = append(h.Reasons, fmt.Sprintf("all BMP feeds down %v >= threshold %v", h.RoutesAge, t.cfg.RoutesStaleAfter))
	case t.panicHold > 0:
		h.State = HealthFailStatic
		h.Reasons = append(h.Reasons, fmt.Sprintf("cycle panic hold (%d cycles remaining)", t.panicHold))
	default:
		h.State = HealthHealthy
		if h.FeedsUp < h.FeedsTotal {
			h.State = HealthDegraded
			h.Reasons = append(h.Reasons, fmt.Sprintf("%d/%d BMP feeds down", h.FeedsTotal-h.FeedsUp, h.FeedsTotal))
		}
		if h.SessionsUp < h.SessionsTotal {
			h.State = HealthDegraded
			h.Reasons = append(h.Reasons, fmt.Sprintf("%d/%d injection sessions down", h.SessionsTotal-h.SessionsUp, h.SessionsTotal))
		}
		if t.consecOver >= overrunsForDegraded {
			h.State = HealthDegraded
			h.Reasons = append(h.Reasons, fmt.Sprintf("%d consecutive cycle overruns", t.consecOver))
		}
	}
	return h
}

// String renders a compact one-line health summary.
func (h InputHealth) String() string {
	s := fmt.Sprintf("%s: feeds %d/%d, sessions %d/%d, traffic age %v, routes age %v",
		h.State, h.FeedsUp, h.FeedsTotal, h.SessionsUp, h.SessionsTotal,
		h.TrafficAge.Round(time.Millisecond), h.RoutesAge.Round(time.Millisecond))
	if len(h.Reasons) > 0 {
		s += " (" + h.Reasons[0]
		for _, r := range h.Reasons[1:] {
			s += "; " + r
		}
		s += ")"
	}
	return s
}
