package core

import (
	"net/netip"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time base for health tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2017, 8, 21, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeTraffic implements TrafficFreshness with a settable ingest time.
type fakeTraffic struct{ last time.Time }

func (f *fakeTraffic) LastIngest() time.Time { return f.last }

func healthCfg() HealthConfig {
	cfg := HealthConfig{}
	cfg.setDefaults(30 * time.Second)
	return cfg
}

// TestHealthTrafficStaleness walks the two-threshold traffic state
// machine: fresh → fail-static at TrafficStaleAfter → fail-back at
// TrafficFailAfter → healthy again once samples resume.
func TestHealthTrafficStaleness(t *testing.T) {
	clk := newFakeClock()
	tr := &fakeTraffic{last: clk.now()}
	h := NewHealthTracker(healthCfg(), clk.now, tr)

	if got := h.Evaluate(); got.State != HealthHealthy {
		t.Fatalf("fresh traffic: state = %v, want healthy", got.State)
	}

	clk.advance(59 * time.Second) // under the 60 s (2-cycle) threshold
	if got := h.Evaluate(); got.State != HealthHealthy {
		t.Fatalf("age 59s: state = %v, want healthy", got.State)
	}

	clk.advance(1 * time.Second) // exactly at the threshold
	got := h.Evaluate()
	if got.State != HealthFailStatic {
		t.Fatalf("age 60s: state = %v, want fail-static", got.State)
	}
	if len(got.Reasons) == 0 {
		t.Error("fail-static carried no reason")
	}

	clk.advance(240 * time.Second) // age 300 s = 10 cycles
	if got := h.Evaluate(); got.State != HealthFailBack {
		t.Fatalf("age 300s: state = %v, want fail-back", got.State)
	}

	tr.last = clk.now() // samples resume
	if got := h.Evaluate(); got.State != HealthHealthy {
		t.Fatalf("after resume: state = %v, want healthy", got.State)
	}
}

// TestHealthRoutesAllDown: RoutesAge runs only while *every* feed is
// down, and drives the same two-threshold ladder.
func TestHealthRoutesAllDown(t *testing.T) {
	clk := newFakeClock()
	h := NewHealthTracker(healthCfg(), clk.now, nil)
	h.RegisterFeed("pr1")
	h.RegisterFeed("pr2")
	h.FeedUp("pr1")
	h.FeedUp("pr2")

	h.FeedDown("pr1")
	clk.advance(10 * time.Minute)
	got := h.Evaluate()
	if got.State != HealthDegraded {
		t.Fatalf("one feed down: state = %v, want degraded", got.State)
	}
	if got.RoutesAge != 0 {
		t.Fatalf("one feed still up: RoutesAge = %v, want 0", got.RoutesAge)
	}

	h.FeedDown("pr2")
	clk.advance(120 * time.Second) // 4 cycles: fail-static threshold
	if got := h.Evaluate(); got.State != HealthFailStatic {
		t.Fatalf("all down 2m: state = %v, want fail-static", got.State)
	}
	clk.advance(8 * time.Minute) // past 20 cycles total
	if got := h.Evaluate(); got.State != HealthFailBack {
		t.Fatalf("all down 10m: state = %v, want fail-back", got.State)
	}

	h.FeedUp("pr1")
	got = h.Evaluate()
	if got.State != HealthDegraded || got.RoutesAge != 0 {
		t.Fatalf("one feed back: state = %v routes age = %v, want degraded/0", got.State, got.RoutesAge)
	}
}

// TestHealthPanicHold: a recovered panic arms panicHoldCycles of
// fail-static. The panicking cycle itself reports fail-static from the
// recover path (the third hold cycle in effect), and BeginCycle holds
// the two cycles that follow: each call consumes one hold cycle before
// evaluating, so hold 3 yields two held cycles then release.
func TestHealthPanicHold(t *testing.T) {
	clk := newFakeClock()
	h := NewHealthTracker(healthCfg(), clk.now, nil)
	h.NotePanic()
	if got := h.Evaluate(); got.State != HealthFailStatic {
		t.Fatalf("armed hold: state = %v, want fail-static", got.State)
	}
	for i := 0; i < 2; i++ {
		if got := h.BeginCycle(); got.State != HealthFailStatic {
			t.Fatalf("hold cycle %d: state = %v, want fail-static", i, got.State)
		}
	}
	if got := h.BeginCycle(); got.State != HealthHealthy {
		t.Fatalf("after hold: state = %v, want healthy", got.State)
	}
	if got := h.Evaluate(); got.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", got.Panics)
	}
}

// TestHealthFeedFlushAndReconnect: FeedsToFlush fires once per outage
// after the grace period, and a reconnect counts and clears the flag.
func TestHealthFeedFlushAndReconnect(t *testing.T) {
	clk := newFakeClock()
	h := NewHealthTracker(healthCfg(), clk.now, nil)
	h.FeedUp("pr1")
	h.TouchFeed("pr1")
	h.FeedDown("pr1")

	clk.advance(60 * time.Second) // under the 120 s grace
	if out := h.FeedsToFlush(); len(out) != 0 {
		t.Fatalf("flush before grace: %v", out)
	}
	clk.advance(60 * time.Second)
	if out := h.FeedsToFlush(); len(out) != 1 || out[0] != "pr1" {
		t.Fatalf("flush at grace = %v, want [pr1]", out)
	}
	if out := h.FeedsToFlush(); len(out) != 0 {
		t.Fatalf("flush fired twice: %v", out)
	}

	h.FeedUp("pr1")
	feeds := h.Feeds()
	if len(feeds) != 1 || feeds[0].Reconnects != 1 || feeds[0].Flushed {
		t.Fatalf("after reconnect: %+v, want Reconnects=1 Flushed=false", feeds)
	}
}

// TestHealthOverrunsAndSessions: consecutive overruns and down sessions
// degrade; an on-time cycle resets the overrun streak.
func TestHealthOverrunsAndSessions(t *testing.T) {
	clk := newFakeClock()
	h := NewHealthTracker(healthCfg(), clk.now, nil)

	h.NoteOverrun()
	if got := h.Evaluate(); got.State != HealthHealthy {
		t.Fatalf("one overrun: state = %v, want healthy", got.State)
	}
	h.NoteOverrun()
	if got := h.Evaluate(); got.State != HealthDegraded {
		t.Fatalf("two overruns: state = %v, want degraded", got.State)
	}
	h.NoteOnTime()
	if got := h.Evaluate(); got.State != HealthHealthy {
		t.Fatalf("after on-time: state = %v, want healthy", got.State)
	}

	addr := netip.MustParseAddr("10.0.0.1")
	h.RegisterSession(addr)
	if got := h.Evaluate(); got.State != HealthDegraded {
		t.Fatalf("session never up: state = %v, want degraded", got.State)
	}
	h.SessionUp(addr)
	if got := h.Evaluate(); got.State != HealthHealthy {
		t.Fatalf("session up: state = %v, want healthy", got.State)
	}
	h.SessionDown(addr)
	got := h.Evaluate()
	if got.State != HealthDegraded {
		t.Fatalf("session down: state = %v, want degraded", got.State)
	}
	if s := h.Sessions(); len(s) != 1 || s[0].Flaps != 1 {
		t.Fatalf("sessions = %+v, want one record with Flaps=1", s)
	}
}
