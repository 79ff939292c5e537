package core

import (
	"fmt"
	"sync"
)

// ReconcilePhase is one PoP's position in a rolling config apply.
type ReconcilePhase int

// Reconcile phases, in rollout order. A PoP moves pending → draining →
// converging → converged; any phase can land in failed when its round
// budget expires or apply is rejected.
const (
	PhasePending ReconcilePhase = iota
	PhaseDraining
	PhaseConverging
	PhaseConverged
	PhaseFailed
)

// String returns the phase name.
func (p ReconcilePhase) String() string {
	switch p {
	case PhasePending:
		return "pending"
	case PhaseDraining:
		return "draining"
	case PhaseConverging:
		return "converging"
	case PhaseConverged:
		return "converged"
	case PhaseFailed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// FleetDesired is a declarative fleet config document: a default
// update applied to every member plus per-PoP overrides. An explicit
// per-PoP entry replaces the default entirely for that PoP.
type FleetDesired struct {
	Default *PoPConfigUpdate           `json:"default,omitempty"`
	PoPs    map[string]PoPConfigUpdate `json:"pops,omitempty"`
}

// PoPReconcileStatus is one PoP's convergence status.
type PoPReconcileStatus struct {
	PoP    string `json:"pop"`
	Phase  string `json:"phase"`
	Detail string `json:"detail,omitempty"`
	// Rounds counts reconciler steps spent in the current phase.
	Rounds int `json:"rounds"`
	// ConfigGeneration is the controller's config generation after the
	// apply (zero before the PoP's turn).
	ConfigGeneration uint64 `json:"config_generation,omitempty"`
	// Cycle is the controller's latest completed cycle.
	Cycle uint64 `json:"cycle"`
}

// ReconcileStatus is the fleet-level reconciliation rollup served at
// GET /v1/fleet/reconcile.
type ReconcileStatus struct {
	// Generation counts desired-config documents accepted (zero before
	// the first SetDesired).
	Generation uint64 `json:"generation"`
	// Phase is the rollout rollup: idle | rolling | converged | failed.
	Phase string `json:"phase"`
	// Active is the PoP currently being rolled, if any.
	Active string `json:"active,omitempty"`
	// Pending counts PoPs not yet started.
	Pending int `json:"pending"`
	// PoPs holds per-PoP status in rollout order.
	PoPs []PoPReconcileStatus `json:"pops"`
}

// ReconcilerConfig configures a Reconciler.
type ReconcilerConfig struct {
	// MaxRoundsPerPhase bounds how many Step calls one PoP may spend in
	// a single phase before the rollout marks it failed and moves on.
	// Default 40.
	MaxRoundsPerPhase int
	// Logf, when set, receives one-line rollout events.
	Logf func(format string, args ...any)
}

type popReconcileState struct {
	phase      ReconcilePhase
	update     PoPConfigUpdate
	detail     string
	rounds     int
	seqAtApply uint64
	cfgGen     uint64
}

// Reconciler rolls a declarative fleet config across a supervisor's
// members one PoP at a time: drain (pause cycling + withdraw
// overrides), verify the drain took, apply the update, resume, then
// wait for post-apply cycles to prove the PoP converged under the new
// parameters before touching the next one. It is the operator half of
// the operator/agent split — members never see each other, only the
// reconciler sees the fleet.
//
// The state machine is advanced by explicit Step calls (the fleet
// host calls Step once per cycle round), so rollouts are deterministic
// and testable without goroutines.
type Reconciler struct {
	sup *FleetSupervisor
	cfg ReconcilerConfig

	mu         sync.Mutex
	generation uint64
	order      []string // full rollout order for the current generation
	queue      []string // not yet started
	active     string
	states     map[string]*popReconcileState
}

// NewReconciler builds a reconciler over a supervisor's members.
func NewReconciler(sup *FleetSupervisor, cfg ReconcilerConfig) *Reconciler {
	if cfg.MaxRoundsPerPhase <= 0 {
		cfg.MaxRoundsPerPhase = 40
	}
	return &Reconciler{sup: sup, cfg: cfg, states: make(map[string]*popReconcileState)}
}

// Supervisor returns the supervisor whose members the reconciler rolls
// configs across.
func (r *Reconciler) Supervisor() *FleetSupervisor { return r.sup }

// SetDesired validates and accepts a desired fleet config, replacing
// any in-flight rollout (a drained active PoP is resumed first). It
// returns the new generation. Validation covers every targeted PoP
// before anything is touched: one bad entry rejects the whole
// document, so a rollout never half-applies.
func (r *Reconciler) SetDesired(d FleetDesired) (uint64, error) {
	members := r.sup.Members()
	memberSet := make(map[string]bool, len(members))
	for _, m := range members {
		memberSet[m] = true
	}
	for name := range d.PoPs {
		if !memberSet[name] {
			return 0, fmt.Errorf("core: reconcile: unknown PoP %q", name)
		}
	}

	// Resolve the rollout plan in supervisor registration order.
	type target struct {
		name   string
		update PoPConfigUpdate
	}
	var plan []target
	for _, name := range members {
		if u, ok := d.PoPs[name]; ok {
			plan = append(plan, target{name, u})
		} else if d.Default != nil {
			plan = append(plan, target{name, *d.Default})
		}
	}
	if len(plan) == 0 {
		return 0, fmt.Errorf("core: reconcile: desired config targets no PoPs")
	}
	for _, t := range plan {
		if err := t.update.Validate(); err != nil {
			return 0, fmt.Errorf("core: reconcile: pop %s: %w", t.name, err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	// Abort any in-flight rollout cleanly: a PoP paused mid-drain must
	// come back before the new plan starts.
	if r.active != "" {
		if st := r.states[r.active]; st != nil && (st.phase == PhaseDraining || st.phase == PhaseConverging) {
			_ = r.sup.Resume(r.active)
		}
		r.active = ""
	}

	r.generation++
	r.order = r.order[:0]
	r.queue = r.queue[:0]
	r.states = make(map[string]*popReconcileState, len(plan))
	for _, t := range plan {
		r.order = append(r.order, t.name)
		r.queue = append(r.queue, t.name)
		r.states[t.name] = &popReconcileState{phase: PhasePending, update: t.update}
	}
	if r.cfg.Logf != nil {
		r.cfg.Logf("reconcile: generation %d accepted, rolling %d PoP(s)", r.generation, len(plan))
	}
	return r.generation, nil
}

// Step advances the rollout by at most one phase transition and
// reports whether work remains. Call it once per fleet cycle round.
func (r *Reconciler) Step() bool {
	r.mu.Lock()
	defer r.mu.Unlock()

	if r.active == "" {
		if len(r.queue) == 0 {
			return false
		}
		r.active = r.queue[0]
		r.queue = r.queue[1:]
		st := r.states[r.active]
		st.phase = PhaseDraining
		st.rounds = 0
		if err := r.sup.Drain(r.active); err != nil {
			r.failLocked(st, fmt.Sprintf("drain: %v", err))
		} else if r.cfg.Logf != nil {
			r.cfg.Logf("reconcile: %s draining", r.active)
		}
		return true
	}

	st := r.states[r.active]
	ctrl, ok := r.sup.Controller(r.active)
	if !ok {
		r.failLocked(st, "member vanished mid-rollout")
		return len(r.queue) > 0
	}

	switch st.phase {
	case PhaseDraining:
		if n := len(ctrl.Installed()); n > 0 {
			st.rounds++
			st.detail = fmt.Sprintf("%d overrides still installed", n)
			if st.rounds > r.cfg.MaxRoundsPerPhase {
				_ = r.sup.Resume(r.active)
				r.failLocked(st, "drain budget exceeded: "+st.detail)
			}
			return true
		}
		// Drained: apply, then resume cycling and watch convergence.
		ch, err := ctrl.ApplyConfig(st.update, false)
		if err != nil {
			_ = r.sup.Resume(r.active)
			r.failLocked(st, fmt.Sprintf("apply rejected: %v", err))
			return true
		}
		st.cfgGen = ch.Generation
		st.seqAtApply = ctrl.LastSeq()
		st.phase = PhaseConverging
		st.rounds = 0
		st.detail = fmt.Sprintf("applied %v at cycle %d", ch.Changed, st.seqAtApply)
		_ = r.sup.Resume(r.active)
		if r.cfg.Logf != nil {
			r.cfg.Logf("reconcile: %s applied %v (generation %d), converging", r.active, ch.Changed, ch.Generation)
		}
		return true

	case PhaseConverging:
		st.rounds++
		seq := ctrl.LastSeq()
		rep, has := ctrl.LastReport()
		// Two completed cycles past the apply guarantees at least one
		// full cycle ran entirely under the new parameter set (one may
		// have been in flight, holding the old snapshot, when the
		// apply landed).
		if seq >= st.seqAtApply+2 && has && rep.Health < HealthFailStatic {
			st.phase = PhaseConverged
			st.detail = fmt.Sprintf("%s after %d cycle(s)", rep.Health, seq-st.seqAtApply)
			r.active = ""
			if r.cfg.Logf != nil {
				r.cfg.Logf("reconcile: %s converged (cycle %d, %s)", st.detail, seq, rep.Health)
			}
			return len(r.queue) > 0
		}
		st.detail = fmt.Sprintf("cycle %d/%d", seq, st.seqAtApply+2)
		if has && rep.Health >= HealthFailStatic {
			st.detail = fmt.Sprintf("health %s at cycle %d", rep.Health, seq)
		}
		if st.rounds > r.cfg.MaxRoundsPerPhase {
			r.failLocked(st, "convergence budget exceeded: "+st.detail)
		}
		return true
	}
	// Converged / failed actives are cleared when set; nothing to do.
	r.active = ""
	return len(r.queue) > 0
}

// failLocked marks the active PoP failed and releases it. The rollout
// stops at the first failure (remaining PoPs stay pending) so a bad
// config never marches across the fleet. Caller holds r.mu.
func (r *Reconciler) failLocked(st *popReconcileState, detail string) {
	st.phase = PhaseFailed
	st.detail = detail
	if r.cfg.Logf != nil {
		r.cfg.Logf("reconcile: %s FAILED: %s", r.active, detail)
	}
	r.active = ""
	r.queue = r.queue[:0]
}

// Status snapshots the rollout.
func (r *Reconciler) Status() ReconcileStatus {
	r.mu.Lock()
	defer r.mu.Unlock()

	out := ReconcileStatus{
		Generation: r.generation,
		Active:     r.active,
		Pending:    len(r.queue),
	}
	anyFailed, allConverged := false, len(r.order) > 0
	for _, name := range r.order {
		st := r.states[name]
		ps := PoPReconcileStatus{
			PoP:              name,
			Phase:            st.phase.String(),
			Detail:           st.detail,
			Rounds:           st.rounds,
			ConfigGeneration: st.cfgGen,
		}
		if ctrl, ok := r.sup.Controller(name); ok {
			ps.Cycle = ctrl.LastSeq()
		}
		out.PoPs = append(out.PoPs, ps)
		if st.phase == PhaseFailed {
			anyFailed = true
		}
		if st.phase != PhaseConverged {
			allConverged = false
		}
	}
	switch {
	case len(r.order) == 0:
		out.Phase = "idle"
	case anyFailed:
		out.Phase = "failed"
	case allConverged:
		out.Phase = "converged"
	default:
		out.Phase = "rolling"
	}
	return out
}
