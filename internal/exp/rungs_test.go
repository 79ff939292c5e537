package exp

import (
	"context"
	"strings"
	"testing"
	"time"
)

// rungs picks the named rungs from the table, in the order given.
func rungs(t *testing.T, ids ...string) []Rung {
	t.Helper()
	var out []Rung
	for _, id := range ids {
		for _, r := range Rungs {
			if r.ID == id {
				out = append(out, r)
			}
		}
	}
	if len(out) != len(ids) {
		t.Fatalf("rungs %v: found %d", ids, len(out))
	}
	return out
}

// TestRunRungsSharesArm checks the runner's harness sharing: E4 then E5
// through the runner print what the two experiments print on one
// harness, and E5 alone prints what it prints on a fresh one.
func TestRunRungsSharesArm(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	// A small PoP keeps the four harnesses cheap.
	base := testConfig(false)
	base.Synth.Prefixes = 120
	base.Synth.EdgeASes = 25
	base.Synth.PublicPeers = 6
	base.Synth.RouteServerMembers = 8
	s := Scale{Name: "test", Base: base, Day: 4 * time.Minute}
	ef := base
	ef.ControllerEnabled = true
	run := func(ids ...string) string {
		var b strings.Builder
		if err := RunRungs(ctx, &b, s, rungs(t, ids...)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	h := newTestHarness(t, ef)
	e4 := E4DetourVolume(h, s.Day).String() + "\n"
	shared := E5DetourDurations(h, s.Day/2).String() + "\n"
	if got := run("E4", "E5"); got != e4+shared {
		t.Errorf("runner [E4 E5]:\n%swant E4 then E5 on one harness:\n%s", got, e4+shared)
	}
	fresh := E5DetourDurations(newTestHarness(t, ef), s.Day/2).String() + "\n"
	if got := run("E5"); got != fresh {
		t.Errorf("runner [E5]:\n%swant E5 on a fresh harness:\n%s", got, fresh)
	}
	if shared == fresh {
		t.Errorf("E5 after E4 prints what a fresh E5 prints (%q): the test cannot tell a shared harness from a fresh one", fresh)
	}
}

// TestNewScale pins the two suite sizes EXPERIMENTS.md records, rejects
// an unknown name, and checks the start a rung's own harness gets.
func TestNewScale(t *testing.T) {
	for _, c := range []struct {
		name            string
		prefixes, table int
		day             time.Duration
	}{
		{"small", 800, 100_000, 6 * time.Hour},
		{"paper", 4000, 1_000_000, 24 * time.Hour},
	} {
		s, err := NewScale(c.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != c.name || s.Base.Synth.Prefixes != c.prefixes || s.Base.Synth.Seed != 7 ||
			s.TablePrefixes != c.table || s.Day != c.day {
			t.Errorf("%s: %+v", c.name, s)
		}
	}
	if _, err := NewScale("huge", 1); err == nil {
		t.Error("unknown scale accepted")
	}
	// A rung's own harness starts at the hour it asks for on Base's day,
	// controller on.
	s, _ := NewScale("small", 1)
	if cfg := s.at(19, 45); !cfg.ControllerEnabled || !cfg.Start.Equal(time.Date(2017, 3, 1, 19, 45, 0, 0, time.UTC)) {
		t.Errorf("at(19, 45): start %s, controller %v", cfg.Start, cfg.ControllerEnabled)
	}
}
