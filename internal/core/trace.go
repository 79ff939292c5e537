package core

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"edgefabric/internal/rib"
)

// This file implements decision provenance: a structured record, per
// prefix and per cycle, of what the allocator looked at and why it did
// (or did not) act. The paper's rollout leaned on exactly this
// auditability — operators must be able to answer "why did the
// controller detour (or refuse to detour) prefix P this cycle?" without
// replaying the cycle. Tracing is recorded only for prefixes the cycle
// actually considers (prefixes on overloaded interfaces, sticky
// carry-overs, and performance-optimizer candidates), bounded per
// cycle, and retained in a small ring on the controller (see
// Config.Trace, Controller.Explain, GET /explain).

// RejectReason classifies why one candidate alternate route was not
// used for a prefix.
type RejectReason int

// Candidate rejection reasons. RejectNone marks the accepted candidate.
const (
	RejectNone RejectReason = iota
	// RejectSamePort: the alternate egresses the same physical port as
	// the preferred route (e.g. another peer on one IXP interface), so
	// moving to it cannot relieve the port.
	RejectSamePort
	// RejectNoInterface: the alternate's egress interface is missing
	// from the inventory (no known capacity).
	RejectNoInterface
	// RejectWouldExceedTarget: adding the moved rate would push the
	// target interface above the allocator's target utilization.
	RejectWouldExceedTarget
	// RejectInsufficientSamples: a performance move was blocked because
	// a path's measurement window holds too few samples.
	RejectInsufficientSamples
	// RejectGapBelowThreshold: the measured RTT gain does not reach
	// multipathMinGainMS (or a member is more than multipathToleranceMS
	// slower than the primary).
	RejectGapBelowThreshold
	// RejectMoveBudget: the per-cycle override budget (MaxDetours /
	// MaxMoves) was already spent when this candidate came up.
	RejectMoveBudget
	// RejectOutranked: the candidate was feasible, but another feasible
	// candidate won the target-selection strategy (better peer class or
	// more spare capacity).
	RejectOutranked
	// RejectLossyPath: a multipath member was excluded because its
	// measured retransmit fraction exceeds MultipathMaxLossFrac.
	RejectLossyPath
)

// String names the rejection reason.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "accepted"
	case RejectSamePort:
		return "same egress port as preferred"
	case RejectNoInterface:
		return "egress interface not in inventory"
	case RejectWouldExceedTarget:
		return "would exceed target utilization"
	case RejectInsufficientSamples:
		return "insufficient samples"
	case RejectGapBelowThreshold:
		return "gap below threshold"
	case RejectMoveBudget:
		return "move budget exhausted"
	case RejectOutranked:
		return "feasible but outranked"
	case RejectLossyPath:
		return "measured loss above multipath bound"
	default:
		return fmt.Sprintf("reject(%d)", int(r))
	}
}

// TraceOutcome is the final per-prefix decision of a cycle.
type TraceOutcome int

// Per-prefix cycle outcomes.
const (
	// OutcomeNone: the prefix was considered but no override was
	// produced (every candidate rejected, budget spent, or a sticky
	// detour lapsed).
	OutcomeNone TraceOutcome = iota
	// OutcomeDetoured: a whole-prefix overload override was installed.
	OutcomeDetoured
	// OutcomeRetained: the previous cycle's detour was kept (sticky).
	OutcomeRetained
	// OutcomeSplit: a more-specific half of the prefix was detoured.
	OutcomeSplit
	// OutcomePerfMoved: a performance-aware override was installed.
	OutcomePerfMoved
	// OutcomeNotNeeded: the interface was drained below target before
	// this prefix's turn came; no candidate was (re-)evaluated.
	OutcomeNotNeeded
	// OutcomeMultipath: a weighted multipath override was installed
	// (or re-affirmed under hysteresis).
	OutcomeMultipath
)

// String names the outcome.
func (o TraceOutcome) String() string {
	switch o {
	case OutcomeNone:
		return "none"
	case OutcomeDetoured:
		return "override installed"
	case OutcomeRetained:
		return "retained sticky"
	case OutcomeSplit:
		return "split"
	case OutcomePerfMoved:
		return "perf override installed"
	case OutcomeNotNeeded:
		return "not needed"
	case OutcomeMultipath:
		return "multipath override installed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// CandidateTrace records one alternate route the allocator evaluated
// for a prefix and why it was accepted or rejected. The numeric fields
// back the reason so the record carries the concrete arithmetic, not a
// pre-formatted string (recording stays allocation-light; formatting
// happens only when an operator asks).
type CandidateTrace struct {
	// Phase is the allocator pass that evaluated the candidate:
	// "sticky", "overload", "split", or "multipath".
	Phase string
	// Via is the candidate alternate route.
	Via *rib.Route
	// Reason is the rejection reason; RejectNone marks the accepted
	// candidate.
	Reason RejectReason
	// LoadBps / MoveBps / LimitBps back RejectWouldExceedTarget (and
	// the accepted case, where LimitBps-LoadBps-MoveBps is the spare
	// headroom left after the move).
	LoadBps, MoveBps, LimitBps float64
	// Samples / NeedSamples back RejectInsufficientSamples.
	Samples, NeedSamples int
	// GapMS / NeedGapMS back RejectGapBelowThreshold and perf accepts.
	GapMS, NeedGapMS float64
}

// describe renders the candidate's reason with its numbers.
func (c *CandidateTrace) describe() string {
	switch c.Reason {
	case RejectNone:
		s := fmt.Sprintf("ACCEPTED (%.2fG + %.2fG <= %.2fG, %.2fG spare after move)",
			c.LoadBps/1e9, c.MoveBps/1e9, c.LimitBps/1e9,
			(c.LimitBps-c.LoadBps-c.MoveBps)/1e9)
		if c.GapMS != 0 {
			s += fmt.Sprintf(", %.0f ms faster", c.GapMS)
		}
		return s
	case RejectWouldExceedTarget:
		return fmt.Sprintf("rejected: would exceed target (%.2fG + %.2fG > %.2fG)",
			c.LoadBps/1e9, c.MoveBps/1e9, c.LimitBps/1e9)
	case RejectInsufficientSamples:
		return fmt.Sprintf("rejected: insufficient samples (%d < %d)",
			c.Samples, c.NeedSamples)
	case RejectGapBelowThreshold:
		return fmt.Sprintf("rejected: gap below threshold (%.1f ms < %.1f ms)",
			c.GapMS, c.NeedGapMS)
	case RejectOutranked:
		return fmt.Sprintf("feasible but outranked (%.2fG spare)",
			(c.LimitBps-c.LoadBps-c.MoveBps)/1e9)
	default:
		return "rejected: " + c.Reason.String()
	}
}

// PrefixTrace is the full decision record for one prefix in one cycle.
// All recording methods are nil-receiver-safe so allocator code can
// thread a possibly-nil trace without branching at every call site.
type PrefixTrace struct {
	// Prefix is the considered (aggregate) prefix.
	Prefix netip.Prefix
	// SplitPrefix, when valid, is the more-specific half actually
	// announced (OutcomeSplit, or a retained split detour).
	SplitPrefix netip.Prefix
	// RateBps is the prefix's projected demand this cycle.
	RateBps float64
	// Preferred is the BGP-preferred organic route.
	Preferred *rib.Route
	// Candidates are the alternates evaluated, in evaluation order,
	// each with its concrete accept/reject reason.
	Candidates []CandidateTrace
	// Outcome is the final decision.
	Outcome TraceOutcome
	// Chosen is the route the prefix was steered onto (nil unless an
	// override was produced or retained).
	Chosen *rib.Route
	// Detail is a one-line explanation of the outcome.
	Detail string
}

// setPlan stamps the prefix's demand and preferred route.
func (pt *PrefixTrace) setPlan(plan *PrefixPlan) {
	if pt == nil {
		return
	}
	pt.RateBps = plan.RateBps
	pt.Preferred = plan.Preferred
}

// reject appends a rejected candidate.
func (pt *PrefixTrace) reject(c CandidateTrace) {
	if pt == nil {
		return
	}
	pt.Candidates = append(pt.Candidates, c)
}

// resetCandidates clears recorded candidates; the decisive evaluation
// pass (which re-validates headroom after earlier moves) replaces the
// provisional gathering pass so the trace reflects what actually
// decided the cycle.
func (pt *PrefixTrace) resetCandidates() {
	if pt == nil {
		return
	}
	pt.Candidates = pt.Candidates[:0]
}

// markChosen flips the recorded feasible candidate matching via from
// RejectOutranked to accepted. A nil via is a no-op (no candidate won).
func (pt *PrefixTrace) markChosen(via *rib.Route) {
	if pt == nil || via == nil {
		return
	}
	for i := range pt.Candidates {
		if pt.Candidates[i].Via == via && pt.Candidates[i].Reason == RejectOutranked {
			pt.Candidates[i].Reason = RejectNone
			return
		}
	}
}

// accept appends the accepted candidate.
func (pt *PrefixTrace) accept(phase string, via *rib.Route, load, move, limit, gapMS float64) {
	if pt == nil {
		return
	}
	pt.Candidates = append(pt.Candidates, CandidateTrace{
		Phase: phase, Via: via, Reason: RejectNone,
		LoadBps: load, MoveBps: move, LimitBps: limit, GapMS: gapMS,
	})
}

// outcome records the final decision.
func (pt *PrefixTrace) outcome(o TraceOutcome, chosen *rib.Route, detail string) {
	if pt == nil {
		return
	}
	pt.Outcome = o
	pt.Chosen = chosen
	pt.Detail = detail
}

// Format renders the trace as a human-readable block.
func (pt *PrefixTrace) Format(inv *Inventory) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefix %s\n", pt.Prefix)
	if pt.Preferred != nil {
		fmt.Fprintf(&b, "  demand %.2f Gbps, preferred %s via %s (%s)\n",
			pt.RateBps/1e9, ifName(inv, pt.Preferred.EgressIF),
			pt.Preferred.PeerAddr, pt.Preferred.PeerClass)
	} else {
		fmt.Fprintf(&b, "  demand %.2f Gbps\n", pt.RateBps/1e9)
	}
	if len(pt.Candidates) > 0 {
		b.WriteString("  candidates:\n")
		for i := range pt.Candidates {
			c := &pt.Candidates[i]
			fmt.Fprintf(&b, "    [%s] via %s (%s, %s): %s\n",
				c.Phase, c.Via.PeerAddr, c.Via.PeerClass,
				ifName(inv, c.Via.EgressIF), c.describe())
		}
	}
	fmt.Fprintf(&b, "  outcome: %s", pt.Outcome)
	if pt.Chosen != nil {
		fmt.Fprintf(&b, " -> %s via %s", ifName(inv, pt.Chosen.EgressIF), pt.Chosen.PeerAddr)
	}
	if pt.SplitPrefix.IsValid() && pt.SplitPrefix != pt.Prefix {
		fmt.Fprintf(&b, " (announced half %s)", pt.SplitPrefix)
	}
	if pt.Detail != "" {
		fmt.Fprintf(&b, " — %s", pt.Detail)
	}
	b.WriteString("\n")
	return b.String()
}

// ifName renders an interface name from the inventory, falling back to
// the numeric ID.
func ifName(inv *Inventory, id int) string {
	if inv != nil {
		if info, ok := inv.InterfaceByID(id); ok {
			return info.Name
		}
	}
	return fmt.Sprintf("if%d", id)
}

// CycleTrace collects the per-prefix decision traces of one controller
// cycle, bounded to maxPrefixes records. A nil *CycleTrace is a valid
// no-op tracer: every method (and every method of the nil *PrefixTrace
// it hands out) is safe to call, so disabling tracing removes all
// recording cost from the allocators.
//
// A CycleTrace is built single-threaded inside RunCycle and becomes
// read-only once published to the controller's ring; readers access it
// through Controller.Explain / ExplainText under the controller lock.
type CycleTrace struct {
	// Seq and Time identify the cycle (Seq is stamped at publication).
	Seq  uint64
	Time time.Time
	// Truncated counts prefixes the cycle considered beyond the
	// per-cycle bound; their traces were dropped, not recorded.
	Truncated int

	max      int
	byPrefix map[netip.Prefix]*PrefixTrace
	order    []netip.Prefix
}

// NewCycleTrace returns an empty trace bounded to maxPrefixes records
// (<= 0 means the controller's traceMaxPrefixes).
func NewCycleTrace(maxPrefixes int) *CycleTrace {
	if maxPrefixes <= 0 {
		maxPrefixes = traceMaxPrefixes
	}
	return &CycleTrace{max: maxPrefixes}
}

// Prefix returns the trace record for p, creating it on first use.
// It returns nil — a valid no-op recorder — when the tracer itself is
// nil or the per-cycle bound is exhausted.
func (t *CycleTrace) Prefix(p netip.Prefix) *PrefixTrace {
	if t == nil {
		return nil
	}
	if pt, ok := t.byPrefix[p]; ok {
		return pt
	}
	if len(t.order) >= t.max {
		t.Truncated++
		return nil
	}
	if t.byPrefix == nil {
		t.byPrefix = make(map[netip.Prefix]*PrefixTrace)
	}
	pt := &PrefixTrace{Prefix: p, Outcome: OutcomeNone}
	t.byPrefix[p] = pt
	t.order = append(t.order, p)
	return pt
}

// Lookup returns the recorded trace for p, or nil.
func (t *CycleTrace) Lookup(p netip.Prefix) *PrefixTrace {
	if t == nil {
		return nil
	}
	return t.byPrefix[p]
}

// Len reports the number of recorded prefix traces.
func (t *CycleTrace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.order)
}

// Prefixes returns the traced prefixes in recording order. The returned
// slice is the trace's own; callers must not mutate it.
func (t *CycleTrace) Prefixes() []netip.Prefix {
	if t == nil {
		return nil
	}
	return t.order
}

// TraceConfig switches the controller's decision provenance. The zero
// value traces up to traceMaxPrefixes prefixes per cycle and retains
// the last traceCycles cycles; set Disable to shed even the (small)
// recording cost.
type TraceConfig struct {
	// Disable turns per-prefix decision tracing off entirely.
	Disable bool
}

const (
	// traceCycles is how many recent cycle traces the controller
	// retains (the /explain lookback window).
	traceCycles = 8
	// traceMaxPrefixes caps traced prefixes per cycle; prefixes
	// considered beyond the cap are counted in CycleTrace.Truncated.
	traceMaxPrefixes = 4096
)
