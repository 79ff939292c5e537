package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"edgefabric/internal/metrics"
)

// FleetMember is one PoP controller hosted by a FleetSupervisor. The
// members stay shared-nothing — the supervisor only amortizes process
// resources (cycle workers, config reconciliation, rollup serving)
// over them; no decision state crosses a member boundary.
type FleetMember struct {
	// Name is the PoP name (unique within the supervisor).
	Name string
	// Ctrl is the member's controller.
	Ctrl *Controller
	// Pause, when set, pauses (true) / resumes (false) the member's
	// external cycle driver. The supervisor's own RunCycleAll skips
	// draining members regardless; the hook exists for members cycled
	// by something else (a harness, a daemon ticker) that must stop
	// stepping a PoP while the reconciler drains it.
	Pause func(bool)
}

// FleetSupervisorConfig configures a FleetSupervisor.
type FleetSupervisorConfig struct {
	// Workers bounds concurrent member cycles in RunCycleAll. Default
	// min(GOMAXPROCS, 16); hundreds of members share this pool rather
	// than each getting a goroutine-per-tick.
	Workers int
	// CycleBudget is the per-member cycle duration budget; a member
	// exceeding it is counted as an overrun in the round stats (its
	// own health tracker independently notes interval overruns).
	// Default 1 s.
	CycleBudget time.Duration
	// Metrics receives fleet-level counters; nil allocates a private
	// registry.
	Metrics *metrics.Registry
	// Logf, when set, receives one-line log events.
	Logf func(format string, args ...any)
}

// FleetRoundStats summarizes one RunCycleAll round.
type FleetRoundStats struct {
	// Members is the number of members cycled this round.
	Members int
	// Skipped counts members skipped because they are draining.
	Skipped int
	// Errors counts members whose cycle returned an error.
	Errors int
	// Overruns counts members whose cycle exceeded CycleBudget.
	Overruns int
	// Elapsed is the round's wall time.
	Elapsed time.Duration
}

// FleetSupervisor hosts N shared-nothing PoP controllers in one
// process: a bounded worker pool cycles them, drain state gates which
// members cycle, and per-member budgets keep one slow PoP from
// starving the rest. Safe for concurrent use.
type FleetSupervisor struct {
	cfg FleetSupervisorConfig

	mu       sync.RWMutex
	members  map[string]*FleetMember
	order    []string
	draining map[string]bool
}

// NewFleetSupervisor builds an empty supervisor; register members with
// Add.
func NewFleetSupervisor(cfg FleetSupervisorConfig) *FleetSupervisor {
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 16)
	}
	if cfg.CycleBudget <= 0 {
		cfg.CycleBudget = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &FleetSupervisor{
		cfg:      cfg,
		members:  make(map[string]*FleetMember),
		draining: make(map[string]bool),
	}
}

// Add registers a member.
func (s *FleetSupervisor) Add(m FleetMember) error {
	if m.Name == "" {
		return fmt.Errorf("core: fleet member name required")
	}
	if m.Ctrl == nil {
		return fmt.Errorf("core: fleet member %q: controller required", m.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.members[m.Name]; dup {
		return fmt.Errorf("core: fleet member %q already registered", m.Name)
	}
	mm := m
	s.members[m.Name] = &mm
	s.order = append(s.order, m.Name)
	s.cfg.Metrics.Gauge("edgefabric_fleet_members").Set(float64(len(s.order)))
	return nil
}

// Members lists member names in registration order.
func (s *FleetSupervisor) Members() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// Member resolves a member by name.
func (s *FleetSupervisor) Member(name string) (*FleetMember, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.members[name]
	return m, ok
}

// Controller resolves a member's controller by name.
func (s *FleetSupervisor) Controller(name string) (*Controller, bool) {
	m, ok := s.Member(name)
	if !ok {
		return nil, false
	}
	return m.Ctrl, true
}

// Metrics exposes the supervisor's fleet-level registry.
func (s *FleetSupervisor) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Drain takes a member out of cycling and withdraws its installed
// overrides: the supervisor skips it in RunCycleAll, its Pause hook
// (if any) stops the external driver, and the PoP falls back to
// default BGP policy until Resume.
func (s *FleetSupervisor) Drain(name string) error {
	m, ok := s.Member(name)
	if !ok {
		return fmt.Errorf("core: unknown fleet member %q", name)
	}
	s.mu.Lock()
	already := s.draining[name]
	s.draining[name] = true
	s.mu.Unlock()
	if !already && m.Pause != nil {
		m.Pause(true)
	}
	if _, err := m.Ctrl.Drain(); err != nil {
		return fmt.Errorf("core: drain %q: %w", name, err)
	}
	s.cfg.Metrics.Counter("edgefabric_fleet_drains_total").Inc()
	if s.cfg.Logf != nil {
		s.cfg.Logf("fleet: drained %s (overrides withdrawn, cycling paused)", name)
	}
	return nil
}

// Resume returns a drained member to normal cycling.
func (s *FleetSupervisor) Resume(name string) error {
	m, ok := s.Member(name)
	if !ok {
		return fmt.Errorf("core: unknown fleet member %q", name)
	}
	s.mu.Lock()
	wasDraining := s.draining[name]
	delete(s.draining, name)
	s.mu.Unlock()
	if wasDraining && m.Pause != nil {
		m.Pause(false)
	}
	if s.cfg.Logf != nil && wasDraining {
		s.cfg.Logf("fleet: resumed %s", name)
	}
	return nil
}

// Draining reports whether a member is currently drained.
func (s *FleetSupervisor) Draining(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining[name]
}

// RunCycleAll runs one control cycle on every non-draining member
// through the bounded worker pool and returns the round's stats. Each
// member's cycle stays strictly serialized with itself (the pool never
// assigns one member twice in a round), preserving RunCycle's
// single-goroutine contract.
func (s *FleetSupervisor) RunCycleAll() FleetRoundStats {
	started := time.Now()

	s.mu.RLock()
	work := make([]*FleetMember, 0, len(s.order))
	skipped := 0
	for _, name := range s.order {
		if s.draining[name] {
			skipped++
			continue
		}
		work = append(work, s.members[name])
	}
	s.mu.RUnlock()

	var (
		wg       sync.WaitGroup
		errsMu   sync.Mutex
		errs     int
		overruns int
	)
	jobs := make(chan *FleetMember)
	workers := min(s.cfg.Workers, len(work))
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range jobs {
				t0 := time.Now()
				_, err := m.Ctrl.RunCycle()
				over := time.Since(t0) > s.cfg.CycleBudget
				if err != nil || over {
					errsMu.Lock()
					if err != nil {
						errs++
					}
					if over {
						overruns++
					}
					errsMu.Unlock()
				}
				if err != nil && s.cfg.Logf != nil {
					s.cfg.Logf("fleet: %s cycle: %v", m.Name, err)
				}
			}
		}()
	}
	for _, m := range work {
		jobs <- m
	}
	close(jobs)
	wg.Wait()

	st := FleetRoundStats{
		Members:  len(work),
		Skipped:  skipped,
		Errors:   errs,
		Overruns: overruns,
		Elapsed:  time.Since(started),
	}
	m := s.cfg.Metrics
	m.Counter("edgefabric_fleet_rounds_total").Inc()
	m.Counter("edgefabric_fleet_cycle_errors_total").Add(uint64(errs))
	m.Counter("edgefabric_fleet_cycle_overruns_total").Add(uint64(overruns))
	m.Histogram("edgefabric_fleet_round_seconds", 0.001, 0.01, 0.1, 1, 10, 60).
		Observe(st.Elapsed.Seconds())
	return st
}
