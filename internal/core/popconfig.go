package core

import (
	"fmt"
	"strings"
)

// PoPConfigUpdate is the operator-mutable slice of a controller's
// configuration: the allocator knobs plus the per-PoP resource budgets
// that matter at fleet scale. Every field is a pointer so an update can
// change one knob without naming the rest (absent fields keep their
// current value). It is the request body of PUT /v1/pops/{pop}/config
// and the per-PoP payload of a fleet desired-config document.
type PoPConfigUpdate struct {
	// Threshold is the overload utilization threshold (0 < t <= 1.5).
	Threshold *float64 `json:"threshold,omitempty"`
	// Target is the detour-target fill ceiling (0 < t <= 1.5).
	Target *float64 `json:"target,omitempty"`
	// MaxDetours caps overrides per cycle (>= 0; 0 = unlimited).
	MaxDetours *int `json:"max_detours,omitempty"`
	// NoSticky disables detour retention between cycles.
	NoSticky *bool `json:"no_sticky,omitempty"`
	// AllowSplit enables sub-prefix detours.
	AllowSplit *bool `json:"allow_split,omitempty"`
	// MaxHistory bounds the per-PoP cycle-summary ring (16..65536); an
	// entry costs ≈ 510 B on a 14-interface PoP (see Config.MaxHistory).
	MaxHistory *int `json:"max_history,omitempty"`
}

// Empty reports whether the update changes nothing.
func (u *PoPConfigUpdate) Empty() bool {
	return u.Threshold == nil && u.Target == nil && u.MaxDetours == nil &&
		u.NoSticky == nil && u.AllowSplit == nil && u.MaxHistory == nil
}

// ConfigFieldError is one field-level validation failure in a config
// update (typed so API clients can render it against the request form).
type ConfigFieldError struct {
	Field  string `json:"field"`
	Value  string `json:"value"`
	Reason string `json:"reason"`
}

func (e ConfigFieldError) Error() string {
	return fmt.Sprintf("%s=%s: %s", e.Field, e.Value, e.Reason)
}

// ConfigValidationError aggregates every field failure in a rejected
// config update.
type ConfigValidationError struct {
	Fields []ConfigFieldError `json:"fields"`
}

func (e *ConfigValidationError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Error()
	}
	return "invalid config: " + strings.Join(parts, "; ")
}

// Validate checks every set field's range and cross-field consistency
// against the controller-independent rules. It returns nil or a
// *ConfigValidationError listing every offending field.
func (u *PoPConfigUpdate) Validate() error {
	var errs []ConfigFieldError
	if u.Threshold != nil && (*u.Threshold <= 0 || *u.Threshold > 1.5) {
		errs = append(errs, ConfigFieldError{
			Field: "threshold", Value: fmt.Sprintf("%g", *u.Threshold),
			Reason: "must be in (0, 1.5]",
		})
	}
	if u.Target != nil && (*u.Target <= 0 || *u.Target > 1.5) {
		errs = append(errs, ConfigFieldError{
			Field: "target", Value: fmt.Sprintf("%g", *u.Target),
			Reason: "must be in (0, 1.5]",
		})
	}
	if u.Threshold != nil && u.Target != nil && *u.Target < *u.Threshold {
		errs = append(errs, ConfigFieldError{
			Field: "target", Value: fmt.Sprintf("%g", *u.Target),
			Reason: fmt.Sprintf("must be >= threshold (%g): a target below the alarm level re-overloads detour targets", *u.Threshold),
		})
	}
	if u.MaxDetours != nil && *u.MaxDetours < 0 {
		errs = append(errs, ConfigFieldError{
			Field: "max_detours", Value: fmt.Sprintf("%d", *u.MaxDetours),
			Reason: "must be >= 0 (0 = unlimited)",
		})
	}
	if u.MaxHistory != nil && (*u.MaxHistory < 16 || *u.MaxHistory > 65536) {
		errs = append(errs, ConfigFieldError{
			Field: "max_history", Value: fmt.Sprintf("%d", *u.MaxHistory),
			Reason: "must be in [16, 65536]",
		})
	}
	if len(errs) > 0 {
		return &ConfigValidationError{Fields: errs}
	}
	return nil
}

// ConfigChange reports the outcome of ApplyConfig: which fields
// changed, the resulting effective settings, and the controller's new
// config generation (unchanged for dry runs).
type ConfigChange struct {
	DryRun     bool            `json:"dry_run"`
	Changed    []string        `json:"changed"`
	Generation uint64          `json:"generation"`
	Allocator  AllocatorConfig `json:"-"`
	// Effective is the post-apply (or would-be, for dry runs) operator
	// view of the mutable settings.
	Effective EffectiveConfig `json:"effective"`
}

// EffectiveConfig is the JSON rendering of the mutable settings.
type EffectiveConfig struct {
	Threshold  float64 `json:"threshold"`
	Target     float64 `json:"target"`
	MaxDetours int     `json:"max_detours"`
	NoSticky   bool    `json:"no_sticky"`
	AllowSplit bool    `json:"allow_split"`
	MaxHistory int     `json:"max_history"`
}

// effectiveConfigLocked renders the current mutable settings; caller
// holds c.mu.
func (c *Controller) effectiveConfigLocked() EffectiveConfig {
	a := c.cfg.Allocator
	a.setDefaults()
	return EffectiveConfig{
		Threshold:  a.Threshold,
		Target:     a.Target,
		MaxDetours: a.MaxDetours,
		NoSticky:   a.NoSticky,
		AllowSplit: a.AllowSplit,
		MaxHistory: c.maxHist,
	}
}

// EffectiveConfig returns the operator view of the mutable settings.
func (c *Controller) EffectiveConfig() EffectiveConfig {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.effectiveConfigLocked()
}

// ConfigGeneration returns the number of config updates applied since
// start (the reconciler's convergence token).
func (c *Controller) ConfigGeneration() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfgGen
}

// ApplyConfig validates and (unless dryRun) applies a config update.
// Application is atomic under the controller's lock and safe against a
// concurrently running cycle: RunCycle snapshots the allocator config
// at cycle start, so the update takes effect from the next cycle.
// Validation failures return a *ConfigValidationError.
func (c *Controller) ApplyConfig(u PoPConfigUpdate, dryRun bool) (ConfigChange, error) {
	if err := u.Validate(); err != nil {
		return ConfigChange{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	// Cross-field check against the current values for a partial
	// update: lowering target below the standing threshold (or raising
	// threshold above the standing target) is as wrong as doing both in
	// one update.
	cur := c.effectiveConfigLocked()
	thr, tgt := cur.Threshold, cur.Target
	if u.Threshold != nil {
		thr = *u.Threshold
	}
	if u.Target != nil {
		tgt = *u.Target
	}
	if tgt < thr && (u.Threshold != nil || u.Target != nil) {
		return ConfigChange{}, &ConfigValidationError{Fields: []ConfigFieldError{{
			Field: "target", Value: fmt.Sprintf("%g", tgt),
			Reason: fmt.Sprintf("must be >= threshold (%g): a target below the alarm level re-overloads detour targets", thr),
		}}}
	}

	var changed []string
	next := c.cfg.Allocator
	nextHist := c.maxHist
	if u.Threshold != nil && *u.Threshold != cur.Threshold {
		next.Threshold = *u.Threshold
		changed = append(changed, "threshold")
	}
	if u.Target != nil && *u.Target != cur.Target {
		next.Target = *u.Target
		changed = append(changed, "target")
	}
	if u.MaxDetours != nil && *u.MaxDetours != cur.MaxDetours {
		next.MaxDetours = *u.MaxDetours
		changed = append(changed, "max_detours")
	}
	if u.NoSticky != nil && *u.NoSticky != cur.NoSticky {
		next.NoSticky = *u.NoSticky
		changed = append(changed, "no_sticky")
	}
	if u.AllowSplit != nil && *u.AllowSplit != cur.AllowSplit {
		next.AllowSplit = *u.AllowSplit
		changed = append(changed, "allow_split")
	}
	if u.MaxHistory != nil && *u.MaxHistory != c.maxHist {
		nextHist = *u.MaxHistory
		changed = append(changed, "max_history")
	}

	ch := ConfigChange{
		DryRun:     dryRun,
		Changed:    changed,
		Generation: c.cfgGen,
		Allocator:  next,
	}
	if dryRun {
		a := next
		a.setDefaults()
		ch.Effective = EffectiveConfig{
			Threshold: a.Threshold, Target: a.Target, MaxDetours: a.MaxDetours,
			NoSticky: a.NoSticky, AllowSplit: a.AllowSplit, MaxHistory: nextHist,
		}
		return ch, nil
	}

	c.cfg.Allocator = next
	if nextHist != c.maxHist {
		c.resizeHistoryLocked(nextHist)
	}
	if len(changed) > 0 {
		c.cfgGen++
	}
	ch.Generation = c.cfgGen
	ch.Effective = c.effectiveConfigLocked()
	return ch, nil
}

// resizeHistoryLocked rebuilds the cycle-summary ring at a new bound,
// keeping the most recent summaries (the newest report stays whole
// beside it). Caller holds c.mu.
func (c *Controller) resizeHistoryLocked(n int) {
	lin := c.historyLocked()
	if len(lin) > n {
		lin = lin[len(lin)-n:]
	}
	c.maxHist = n
	c.history = lin
	c.histNext = 0
}

// allocatorCfg snapshots the allocator config for one cycle.
func (c *Controller) allocatorCfg() AllocatorConfig {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Allocator
}

// LastReport returns the most recent cycle report, if any cycle ran.
func (c *Controller) LastReport() (CycleReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last, c.last.Seq != 0
}

// Drain withdraws every installed override, returning the PoP to
// default BGP policy. The reconciler drains a PoP (the fleet supervisor
// skips its cycles meanwhile) before applying new config, so the new
// allocator parameters start from a clean slate instead of inheriting
// detours chosen under the old ones.
func (c *Controller) Drain() (SyncResult, error) {
	return c.injector.Sync(nil)
}
