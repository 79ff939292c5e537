package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"edgefabric/internal/core"
)

// Fleet pagination bounds (PoPs per page of /v1/fleet/*).
const (
	defaultPoPLimit = 64
	maxPoPLimit     = 1024
)

// digestTTL bounds how stale a cached PoP digest may get before a
// request touching it rebuilds it even when the cycle sequence did not
// move (covers health decay between cycles: a PoP whose feed died ages
// toward fail-static without completing cycles).
const digestTTL = 2 * time.Second

// digestStripeLen is how many extra PoPs each fleet request refreshes
// beyond its own page (a rotating stripe, so the whole fleet's digests
// stay warm under steady polling without any request paying O(N)).
const digestStripeLen = 16

// FleetPoPDigest is one PoP's cached rollup row, served by both
// GET /v1/fleet/summary and GET /v1/fleet/health. It is rebuilt only
// when the PoP completes a cycle (or its TTL lapses), so serving N
// PoPs does not evaluate N controllers per request.
type FleetPoPDigest struct {
	PoP           string   `json:"pop"`
	State         string   `json:"state"`
	Reasons       []string `json:"reasons,omitempty"`
	Cycle         uint64   `json:"cycle"`
	DemandBps     float64  `json:"demand_bps"`
	DetouredBps   float64  `json:"detoured_bps"`
	Overrides     int      `json:"overrides"`
	FeedsUp       int      `json:"feeds_up"`
	FeedsTotal    int      `json:"feeds_total"`
	SessionsUp    int      `json:"sessions_up"`
	SessionsTotal int      `json:"sessions_total"`
	TrafficAgeMS  int64    `json:"traffic_age_ms"`
}

// FleetSummaryDoc is the fleet-level aggregate in GET /v1/fleet/summary,
// maintained incrementally as digests refresh (never recomputed by
// scanning every PoP on request).
type FleetSummaryDoc struct {
	PoPs        int            `json:"pops"`
	State       string         `json:"state"`
	States      map[string]int `json:"states"`
	DemandBps   float64        `json:"demand_bps"`
	DetouredBps float64        `json:"detoured_bps"`
	Overrides   int            `json:"overrides"`
}

type digestEntry struct {
	doc   FleetPoPDigest
	state core.HealthState
	seq   uint64
	wall  time.Time
}

// fleetAggregate is the incrementally-maintained fleet rollup: when a
// PoP's digest refreshes, its old contribution is subtracted and the
// new one added.
type fleetAggregate struct {
	demandBps   float64
	detouredBps float64
	overrides   int
	states      [core.HealthFailBack + 1]int
}

func (a *fleetAggregate) add(e *digestEntry, sign int) {
	f := float64(sign)
	a.demandBps += f * e.doc.DemandBps
	a.detouredBps += f * e.doc.DetouredBps
	a.overrides += sign * e.doc.Overrides
	if int(e.state) < len(a.states) {
		a.states[e.state] += sign
	}
}

func (a *fleetAggregate) doc(pops int) FleetSummaryDoc {
	doc := FleetSummaryDoc{
		PoPs:        pops,
		DemandBps:   a.demandBps,
		DetouredBps: a.detouredBps,
		Overrides:   a.overrides,
		States:      make(map[string]int, 4),
	}
	worst := core.HealthHealthy
	for st := core.HealthHealthy; st <= core.HealthFailBack; st++ {
		if n := a.states[st]; n > 0 {
			doc.States[st.String()] = n
			worst = st
		}
	}
	doc.State = worst.String()
	return doc
}

// buildDigest snapshots one PoP into a digest row. Cost is O(feeds +
// sessions) for that PoP only — it reads the last cycle report rather
// than walking the injector or route table.
func buildDigest(name string, c *core.Controller) digestEntry {
	ih := c.Health().Evaluate()
	doc := FleetPoPDigest{
		PoP:           name,
		State:         ih.State.String(),
		Reasons:       ih.Reasons,
		Cycle:         c.LastSeq(),
		FeedsUp:       ih.FeedsUp,
		FeedsTotal:    ih.FeedsTotal,
		SessionsUp:    ih.SessionsUp,
		SessionsTotal: ih.SessionsTotal,
		TrafficAgeMS:  ih.TrafficAge.Milliseconds(),
	}
	if rep, ok := c.LastReport(); ok {
		doc.DemandBps = rep.DemandBps
		doc.DetouredBps = rep.DetouredBps
		doc.Overrides = len(rep.Overrides)
	}
	return digestEntry{doc: doc, state: ih.State, seq: doc.Cycle, wall: time.Now()}
}

// refreshDigests brings the named PoPs' digests up to date (cycle moved
// or TTL lapsed) and keeps the fleet aggregate consistent. Caller holds
// s.digestMu.
func (s *Server) refreshDigestsLocked(names []string, now time.Time) {
	for _, name := range names {
		c, ok := s.pop(name)
		if !ok {
			continue
		}
		old, have := s.digests[name]
		if have && c.LastSeq() == old.seq && now.Sub(old.wall) < digestTTL {
			continue
		}
		fresh := buildDigest(name, c)
		if have {
			s.agg.add(old, -1)
		}
		s.agg.add(&fresh, +1)
		s.digests[name] = &fresh
	}
}

// syncDigests refreshes the given page of PoPs plus the next rotating
// stripe, first back-filling any PoPs that have never been digested
// (one O(N) fill on the first fleet request, incremental after).
// It returns the fleet aggregate snapshot.
func (s *Server) syncDigests(all, page []string) FleetSummaryDoc {
	now := time.Now()
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	if len(s.digests) < len(all) {
		missing := make([]string, 0, len(all)-len(s.digests))
		for _, name := range all {
			if _, ok := s.digests[name]; !ok {
				missing = append(missing, name)
			}
		}
		s.refreshDigestsLocked(missing, now)
	}
	s.refreshDigestsLocked(page, now)
	if n := len(all); n > 0 {
		stripe := make([]string, 0, digestStripeLen)
		for i := 0; i < digestStripeLen && i < n; i++ {
			stripe = append(stripe, all[(s.digestStripe+i)%n])
		}
		s.digestStripe = (s.digestStripe + digestStripeLen) % n
		s.refreshDigestsLocked(stripe, now)
	}
	return s.agg.doc(len(all))
}

// digestRows renders digest rows for a page of PoP names. Caller must
// have synced those names first.
func (s *Server) digestRows(page []string) []FleetPoPDigest {
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	out := make([]FleetPoPDigest, 0, len(page))
	for _, name := range page {
		if e, ok := s.digests[name]; ok {
			out = append(out, e.doc)
		}
	}
	return out
}

// popPage slices the registration-ordered PoP list by the ?after
// cursor and limit. ok=false means the cursor named an unknown PoP
// (an error has been written).
func (s *Server) popPage(w http.ResponseWriter, r *http.Request, names []string, limit int) (pg []string, total int, next string, ok bool) {
	start := 0
	if after := r.URL.Query().Get("after"); after != "" {
		idx := -1
		for i, n := range names {
			if n == after {
				idx = i
				break
			}
		}
		if idx < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadCursor, "after must be a hosted PoP name, got %q", after)
			return nil, 0, "", false
		}
		start = idx + 1
	}
	matched := names[start:]
	total = len(matched)
	if len(matched) > limit {
		matched = matched[:limit]
		next = matched[len(matched)-1]
	}
	return matched, total, next, true
}

func (s *Server) handleFleetSummary(w http.ResponseWriter, r *http.Request) {
	if !allowQuery(w, r, "limit", "after") {
		return
	}
	limit, ok := parseLimit(w, r, defaultPoPLimit, maxPoPLimit)
	if !ok {
		return
	}
	names := s.PoPNames()
	pg, total, next, ok := s.popPage(w, r, names, limit)
	if !ok {
		return
	}
	agg := s.syncDigests(names, pg)
	items := s.digestRows(pg)
	writeData(w, "", 0, map[string]any{
		"fleet": agg,
		"page":  page{Items: items, Count: len(items), Total: total, NextAfter: next},
	})
}

func (s *Server) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	if !allowQuery(w, r, "limit", "after") {
		return
	}
	limit, ok := parseLimit(w, r, defaultPoPLimit, maxPoPLimit)
	if !ok {
		return
	}
	names := s.PoPNames()
	pg, total, next, ok := s.popPage(w, r, names, limit)
	if !ok {
		return
	}
	agg := s.syncDigests(names, pg)
	items := s.digestRows(pg)
	writeData(w, "", 0, map[string]any{
		"state":  agg.State,
		"states": agg.States,
		"page":   page{Items: items, Count: len(items), Total: total, NextAfter: next},
	})
}

// SetReconciler attaches a fleet config reconciler: GET
// /v1/fleet/reconcile serves its status, and PUT /v1/pops/{pop}/config
// routes non-dry-run updates through it (rolling drain-before-apply)
// instead of mutating the controller directly.
func (s *Server) SetReconciler(r *core.Reconciler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconciler = r
}

func (s *Server) getReconciler() *core.Reconciler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reconciler
}

func (s *Server) handleFleetReconcile(w http.ResponseWriter, r *http.Request) {
	if !allowQuery(w, r) {
		return
	}
	rec := s.getReconciler()
	if rec == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound,
			"no reconciler configured (single-PoP daemons apply config directly)")
		return
	}
	writeData(w, "", 0, rec.Status())
}

// handlePutConfig serves PUT /v1/pops/{pop}/config: validate a partial
// config update, then apply it (?dry_run=true validates and reports
// the would-be effective config without touching anything). On a fleet
// host with a reconciler attached, a real apply is queued as a
// single-PoP rollout — drain, apply, converge — rather than applied
// in place; poll GET /v1/fleet/reconcile for progress.
func (s *Server) handlePutConfig(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r, "dry_run") {
		return
	}
	dry := false
	if v := r.URL.Query().Get("dry_run"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "dry_run must be a boolean, got %q", v)
			return
		}
		dry = b
	}
	var u core.PoPConfigUpdate
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad config body: %v", err)
		return
	}
	if u.Empty() {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "config update sets no fields")
		return
	}

	writeInvalid := func(err error) {
		var ve *core.ConfigValidationError
		if errors.As(err, &ve) {
			env := Envelope{Error: &Error{
				Code:    CodeInvalidConfig,
				Message: ve.Error(),
				Details: ve.Fields,
			}, PoP: name, Cycle: c.LastSeq()}
			writeEnvelope(w, http.StatusBadRequest, env)
			return
		}
		writeErr(w, http.StatusBadRequest, CodeInvalidConfig, "%v", err)
	}

	rec := s.getReconciler()
	if dry || rec == nil {
		ch, err := c.ApplyConfig(u, dry)
		if err != nil {
			writeInvalid(err)
			return
		}
		writeData(w, name, c.LastSeq(), map[string]any{
			"applied":           !dry,
			"dry_run":           dry,
			"changed":           ch.Changed,
			"effective":         ch.Effective,
			"config_generation": ch.Generation,
		})
		return
	}

	// Reconciled apply: validate synchronously (the caller gets typed
	// field errors now, not a failed rollout later), then queue the
	// rolling drain-before-apply.
	if _, err := c.ApplyConfig(u, true); err != nil {
		writeInvalid(err)
		return
	}
	gen, err := rec.SetDesired(core.FleetDesired{PoPs: map[string]core.PoPConfigUpdate{name: u}})
	if err != nil {
		writeInvalid(err)
		return
	}
	writeData(w, name, c.LastSeq(), map[string]any{
		"applied":    false,
		"queued":     true,
		"generation": gen,
		"status":     "/v1/fleet/reconcile",
	})
}

// SetMetricsTopK bounds /v1/metrics label cardinality: only the K
// highest-traffic PoPs (by cached digest demand) keep their own
// pop="..." label; every other PoP's series are summed into a single
// pop="other" rollup. 0 (the default) labels every PoP.
func (s *Server) SetMetricsTopK(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricsTopK = k
}

func (s *Server) getMetricsTopK() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metricsTopK
}

// topKByDemand returns the set of the K highest-demand PoPs according
// to the digest cache (refreshing it first so ranking tracks traffic).
func (s *Server) topKByDemand(names []string, k int) map[string]bool {
	s.syncDigests(names, names)
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	ranked := make([]string, 0, len(names))
	ranked = append(ranked, names...)
	sort.SliceStable(ranked, func(i, j int) bool {
		var di, dj float64
		if e, ok := s.digests[ranked[i]]; ok {
			di = e.doc.DemandBps
		}
		if e, ok := s.digests[ranked[j]]; ok {
			dj = e.doc.DemandBps
		}
		return di > dj
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	top := make(map[string]bool, len(ranked))
	for _, name := range ranked {
		top[name] = true
	}
	return top
}

// rollupMetrics accumulates "name value" lines into per-name sums (the
// pop="other" bucket).
func rollupMetrics(sums map[string]float64, order *[]string, text string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		if _, seen := sums[name]; !seen {
			*order = append(*order, name)
		}
		sums[name] += v
	}
}
