package exp

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

// ---------------------------------------------------------------------
// The rung table: every experiment efbench and the root benchmarks run
// ---------------------------------------------------------------------

// Scale is one scenario size the rungs run at.
type Scale struct {
	// Name is the scale's flag value ("small" or "paper").
	Name string
	// Base is the harness config every closed-loop rung derives from.
	Base HarnessConfig
	// Day is the simulated day; the arms run fractions of it.
	Day time.Duration
	// TablePrefixes sizes the rungs that skip the wire harness: E14's
	// RIB and E15's BMP dump.
	TablePrefixes int
}

// NewScale returns the named scale ("small" or "paper") at seed.
func NewScale(name string, seed int64) (Scale, error) {
	base := HarnessConfig{
		Allocator: core.AllocatorConfig{Threshold: 0.95},
		Start:     time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC),
	}
	switch name {
	case "paper":
		base.Synth = netsim.SynthConfig{Seed: seed, Prefixes: 4000, PeakBps: 400e9}
		return Scale{Name: name, Base: base, Day: 24 * time.Hour, TablePrefixes: 1_000_000}, nil
	case "small":
		base.Synth = netsim.SynthConfig{
			Seed:               seed,
			Prefixes:           800,
			EdgeASes:           120,
			PrivatePeers:       6,
			PublicPeers:        16,
			RouteServerMembers: 24,
			PeakBps:            200e9,
		}
		return Scale{Name: name, Base: base, Day: 6 * time.Hour, TablePrefixes: 100_000}, nil
	}
	return Scale{}, fmt.Errorf("exp: unknown scale %q", name)
}

// The shared arms. Consecutive rungs on one arm read and step one
// harness built from Scale.Base, each starting where the previous left
// the clock.
const (
	armBGP = "plain-bgp"   // controller off
	armEF  = "edge-fabric" // controller on
)

// Rung is one experiment of the suite.
type Rung struct {
	// ID is the experiment's name in EXPERIMENTS.md (E1, FLEET, ...).
	ID string
	// Arm names the shared harness the rung runs on; empty when the
	// rung builds its own.
	Arm string
	// Explicit rungs run only when asked for by name: they skip the
	// wire harness and allocate gigabytes at paper scale.
	Explicit bool
	// Run measures the rung on h (nil when Arm is empty). A result with
	// a Pass method is the rung's pass gate.
	Run func(ctx context.Context, h *Harness, s Scale) (fmt.Stringer, error)
}

// Rungs is the suite in print order.
var Rungs = []Rung{
	{ID: "E1", Arm: armBGP, Run: func(_ context.Context, h *Harness, _ Scale) (fmt.Stringer, error) {
		return E1RouteDiversity(h), nil
	}},
	{ID: "E3", Arm: armBGP, Run: func(_ context.Context, h *Harness, _ Scale) (fmt.Stringer, error) {
		return E3PolicyTiers(h), nil
	}},
	{ID: "E8", Arm: armBGP, Run: func(_ context.Context, h *Harness, _ Scale) (fmt.Stringer, error) {
		return E8AltPathGaps(h, 8)
	}},
	{ID: "E2", Arm: armBGP, Run: func(_ context.Context, h *Harness, s Scale) (fmt.Stringer, error) {
		return E2ProjectedOverload(h, s.Day), nil
	}},
	{ID: "E4", Arm: armEF, Run: func(_ context.Context, h *Harness, s Scale) (fmt.Stringer, error) {
		return E4DetourVolume(h, s.Day), nil
	}},
	{ID: "E5", Arm: armEF, Run: func(_ context.Context, h *Harness, s Scale) (fmt.Stringer, error) {
		return E5DetourDurations(h, s.Day/2), nil
	}},
	{ID: "E7", Arm: armEF, Run: func(_ context.Context, h *Harness, s Scale) (fmt.Stringer, error) {
		return E7DetourLatency(h, s.Day/4), nil
	}},
	{ID: "E6", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		return overloadAvoidance(ctx, s.Base, s.Day/2)
	}},
	{ID: "E9", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// A calm PoP at midday whose biggest private AS triples shortly
		// after the start.
		cfg := s.at(12, 0)
		cfg.Synth.PNIHeadroomMin = 1.2
		cfg.Synth.PNIHeadroomMax = 1.5
		return flashReaction(ctx, cfg, 10*time.Minute, time.Hour, 90*time.Minute)
	}},
	{ID: "E10", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// Ablations run across the evening peak, where variants differ.
		return ablations(ctx, s.at(18, 30), DefaultAblationVariants(), s.Day/8)
	}},
	{ID: "FLEET", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// Four sites with peaks an hour apart, each under its own
		// controller, spanning the evening peaks.
		fl, err := NewFleet(ctx, fleetConfigs(s.at(17, 0), 4, 1))
		if err != nil {
			return nil, err
		}
		defer fl.Close()
		return fl.Run(s.Day / 4), nil
	}},
	{ID: "E13", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// Start at pop-1's demand peak so the compared cycles carry
		// override decisions. The ladder lands fail-static within the
		// outage window and keeps fail-back and the BMP flush out of it.
		cfg := s.at(19, 45)
		cfg.Health = core.HealthConfig{
			RoutesStaleAfter: 45 * time.Second,
			RoutesFailAfter:  time.Hour,
			BMPFlushAfter:    time.Hour,
		}
		return E13FleetIsolation(ctx, fleetConfigs(cfg, 4, 0.5), 6, 4)
	}},
	{ID: "E14", Explicit: true, Run: func(_ context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		return E14MillionPrefix(ScaleConfig{Prefixes: s.TablePrefixes, Seed: s.Base.Synth.Seed})
	}},
	{ID: "E16", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// 500 cycles of seeded composed chaos across the evening peak,
		// then the control arm (fail-static disabled under a blackout),
		// which must report violations or the checker is blind. With
		// the perf pair in the vocabulary a 12-event draw at the default
		// seed happens to skip the telemetry faults, leaving the health
		// ladder unexercised, so the soak composes 16.
		seed := s.Base.Synth.Seed
		soak, err := E16ChaosSoak(ctx, SoakConfig{Base: s.at(18, 0), Seed: seed, Logf: log.Printf}, 500, 16)
		if err != nil {
			return nil, err
		}
		control, err := E16ControlArm(ctx, seed)
		return &soakRung{soak, control}, err
	}},
	{ID: "E17", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// Multipath must buy p90 RTT across the evening peak without
		// paying for it in drops or churn.
		cfg := s.at(18, 0)
		cfg.Perf.AnomalyProb = 0.15
		return E17MultipathPerf(ctx, cfg, s.Day/4)
	}},
	{ID: "E18", Run: func(ctx context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		// Land the shifts near peak.
		return E18FleetShift(ctx, FleetShiftConfig{Base: s.at(19, 30), PoPs: 4})
	}},
	{ID: "E15", Explicit: true, Run: func(_ context.Context, _ *Harness, s Scale) (fmt.Stringer, error) {
		return E15IngestSaturation(IngestConfig{Seed: s.Base.Synth.Seed}, s.TablePrefixes)
	}},
}

// at returns Base with the controller on, starting at hour:minute of
// Base's day: the hour a rung that builds its own harnesses needs.
func (s Scale) at(hour, minute int) HarnessConfig {
	cfg := s.Base
	cfg.ControllerEnabled = true
	cfg.Start = s.Base.Start.Truncate(24 * time.Hour).Add(time.Duration(hour)*time.Hour + time.Duration(minute)*time.Minute)
	return cfg
}

// ArmConfig is the harness config of the shared arm: Base, with the
// controller on for the Edge Fabric arm.
func (s Scale) ArmConfig(arm string) HarnessConfig {
	cfg := s.Base
	cfg.ControllerEnabled = arm == armEF
	return cfg
}

// soakRung is E16's report: the chaos soak, then the control arm, which
// passes only by reporting violations.
type soakRung struct{ soak, control *SoakResult }

func (r *soakRung) String() string {
	return r.soak.String() + "\n" +
		fmt.Sprintf("E16 control arm (fail-static disabled; violations EXPECTED): %d violations\n", len(r.control.Violations)) +
		r.control.String()
}

// Pass fails when the control arm went green: the checker is blind.
func (r *soakRung) Pass() bool { return len(r.control.Violations) > 0 }

// Measure runs the rung on h at scale s and returns its report, with an
// error when the report fails its pass gate.
func (r Rung) Measure(ctx context.Context, h *Harness, s Scale) (fmt.Stringer, error) {
	res, err := r.Run(ctx, h, s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.ID, err)
	}
	if gate, ok := res.(interface{ Pass() bool }); ok && !gate.Pass() {
		return res, fmt.Errorf("%s FAILED its pass gate", r.ID)
	}
	return res, nil
}

// RunRungs runs rungs in order at scale s and writes each report,
// followed by a blank line, to w. Consecutive rungs on the same arm
// share one harness. It stops at the first error or failed pass gate,
// after writing the failing rung's report.
func RunRungs(ctx context.Context, w io.Writer, s Scale, rungs []Rung) error {
	var h *Harness
	defer func() {
		if h != nil {
			h.Close()
		}
	}()
	arm := ""
	for _, r := range rungs {
		if h != nil && r.Arm != arm {
			h.Close()
			h = nil
		}
		arm = r.Arm
		if h == nil && arm != "" {
			var err error
			if h, err = NewHarness(ctx, s.ArmConfig(arm)); err != nil {
				return fmt.Errorf("%s: harness: %w", r.ID, err)
			}
		}
		res, err := r.Measure(ctx, h, s)
		if res != nil {
			fmt.Fprint(w, res.String(), "\n")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// What the arms count
// ---------------------------------------------------------------------

// tally accumulates one arm's ticks and controller cycles.
type tally struct {
	ticks, dropTicks int
	// offered and dropped sum every tick's demand and drops.
	offered, dropped float64
	// peakUtil is the hottest interface-tick utilization against the
	// scenario's capacity; peakDropFrac the worst tick's dropped share.
	peakUtil, peakDropFrac float64

	cycles, overrides, churn int
	// detourSum sums each cycle's detoured share; peakDetour is the
	// largest of them.
	detourSum, peakDetour float64
	// residual counts cycles left with unresolved overload, unhealthy
	// cycles not at HealthHealthy.
	residual, unhealthy int
}

// add counts one tick of sc and, when a cycle ran, its report.
func (t *tally) add(sc *netsim.Scenario, s *netsim.TickStats, r *core.CycleReport) {
	t.ticks++
	demand, dropped := s.TotalDemandBps(), s.TotalDropsBps()
	t.offered += demand
	t.dropped += dropped
	if dropped > 0 {
		t.dropTicks++
	}
	if demand > 0 && dropped/demand > t.peakDropFrac {
		t.peakDropFrac = dropped / demand
	}
	for _, ifc := range sc.Topo.Interfaces {
		if u := s.IfLoadBps[ifc.ID] / ifc.CapacityBps; u > t.peakUtil {
			t.peakUtil = u
		}
	}
	if r == nil {
		return
	}
	t.cycles++
	t.overrides += len(r.Overrides)
	t.churn += r.Announced + r.Withdrawn
	if r.DemandBps > 0 {
		frac := r.DetouredBps / r.DemandBps
		t.detourSum += frac
		if frac > t.peakDetour {
			t.peakDetour = frac
		}
	}
	if len(r.ResidualOverloadBps) > 0 {
		t.residual++
	}
	if r.Health != core.HealthHealthy {
		t.unhealthy++
	}
}

// droppedFrac is dropped over offered traffic.
func (t *tally) droppedFrac() float64 {
	if t.offered == 0 {
		return 0
	}
	return t.dropped / t.offered
}

// meanDemand is the offered traffic per tick.
func (t *tally) meanDemand() float64 {
	if t.ticks == 0 {
		return 0
	}
	return t.offered / float64(t.ticks)
}

// perCycle averages x over the controller cycles.
func (t *tally) perCycle(x float64) float64 {
	if t.cycles == 0 {
		return 0
	}
	return x / float64(t.cycles)
}

// runArm builds a harness from cfg, steps it for d, tallying every tick
// and handing it to observe when set, and closes it.
func runArm(ctx context.Context, cfg HarnessConfig, d time.Duration, observe func(*netsim.TickStats, *core.CycleReport)) (*tally, error) {
	h, err := NewHarness(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	t := &tally{}
	h.Run(d, func(s *netsim.TickStats, r *core.CycleReport) {
		t.add(h.Scenario, s, r)
		if observe != nil {
			observe(s, r)
		}
	})
	return t, nil
}

// ---------------------------------------------------------------------
// Rungs that build their own arms
// ---------------------------------------------------------------------

// overloadAvoidance runs E6's two arms over d from base: plain BGP,
// then Edge Fabric.
func overloadAvoidance(ctx context.Context, base HarnessConfig, d time.Duration) (*AvoidanceResult, error) {
	res := &AvoidanceResult{}
	for _, arm := range []*AvoidanceArm{&res.Baseline, &res.WithEF} {
		cfg := base
		cfg.ControllerEnabled = arm == &res.WithEF
		t, err := runArm(ctx, cfg, d, nil)
		if err != nil {
			return nil, err
		}
		arm.PeakUtil = t.peakUtil
		arm.DroppedFrac = t.droppedFrac()
		if t.ticks > 0 {
			arm.DropTicksFrac = float64(t.dropTicks) / float64(t.ticks)
		}
	}
	return res, nil
}

// ablations runs E10: each allocator variant over d on its own
// controller-enabled harness built from base.
func ablations(ctx context.Context, base HarnessConfig, variants []AblationVariant, d time.Duration) (*AblationResult, error) {
	res := &AblationResult{}
	for _, v := range variants {
		cfg := base
		cfg.Allocator = v.Allocator
		cfg.ControllerEnabled = true
		t, err := runArm(ctx, cfg, d, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:          v.Name,
			MeanOverrides: t.perCycle(float64(t.overrides)),
			DetourFrac:    t.perCycle(t.detourSum),
			DroppedFrac:   t.droppedFrac(),
			ResidualFrac:  t.perCycle(float64(t.residual)),
			ChurnPerCycle: t.perCycle(float64(t.churn)),
		})
	}
	return res, nil
}

// flashReaction runs E9 on a harness built from cfg: the scenario's
// biggest private AS triples its demand for dur, starting after the
// harness's start, and the reaction is measured over window.
func flashReaction(ctx context.Context, cfg HarnessConfig, after, dur, window time.Duration) (*FlashReactionResult, error) {
	h, err := NewHarness(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	var flashAS uint32
	var best float64
	for as, info := range h.Scenario.ASes {
		if info.Class == rib.ClassPrivate && info.Weight > best {
			best, flashAS = info.Weight, as
		}
	}
	onset := h.Cfg.Start.Add(after)
	if err := h.AttachEvents([]netsim.Event{{
		Kind: netsim.EventFlashCrowd, At: onset.Sub(h.Clock.Now()),
		Duration: dur, Magnitude: 3, AS: flashAS,
	}}); err != nil {
		return nil, err
	}
	return E9FlashReaction(h, onset, window), nil
}
