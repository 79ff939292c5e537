// Package api serves the versioned, PoP-scoped HTTP surface of one or
// many Edge Fabric controllers hosted in a single process.
//
// Every response — success or failure — is one JSON envelope:
//
//	{"data": ..., "error": null, "pop": "pop-1", "cycle": 42}
//
// Data carries the endpoint's payload; error is a typed object
// {"code","message"} with a matching 4xx/5xx status; pop and cycle
// identify which controller answered and its latest completed cycle
// (both empty on fleet-level endpoints).
//
// The versioned surface (see Routes):
//
//	GET /v1/pops                        fleet membership + per-PoP summaries
//	GET /v1/pops/{pop}                  one PoP's summary (incl. ingest stats)
//	GET /v1/pops/{pop}/health           input-health ladder, feeds, sessions
//	GET /v1/pops/{pop}/overrides        installed override set
//	GET /v1/pops/{pop}/cycles           cycle reports (?limit= / ?after=seq)
//	GET /v1/pops/{pop}/explain          decision trace (?prefix=)
//	GET /v1/pops/{pop}/routes           route table (?limit= / ?after=prefix)
//	PUT /v1/pops/{pop}/config           apply config update (?dry_run=)
//	GET /v1/fleet/summary               cached fleet rollup (?limit= / ?after=pop)
//	GET /v1/fleet/health                cached per-PoP health (?limit= / ?after=pop)
//	GET /v1/fleet/reconcile             rolling config-apply status
//	GET /v1/metrics                     Prometheus text, pop="..." labels (top-K bounded)
//
// Any other path, including the retired pre-v1 aliases (/health
// /metrics /overrides /cycles /routes /explain) and /v1/health, answers
// 404 not_found.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"edgefabric/internal/core"
)

// Version is the current API version path prefix.
const Version = "v1"

// Error codes returned in the envelope's typed error object.
const (
	CodeBadRequest       = "bad_request"
	CodeBadPrefix        = "bad_prefix"
	CodeBadCursor        = "bad_cursor"
	CodeUnknownPoP       = "unknown_pop"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeInvalidConfig    = "invalid_config"
)

// Error is the envelope's typed error object. Details, when present,
// carries structured context for the code — invalid_config fills it
// with the per-field validation failures.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details any    `json:"details,omitempty"`
}

// Envelope is the uniform response shape of every endpoint.
type Envelope struct {
	Data  any    `json:"data"`
	Error *Error `json:"error"`
	PoP   string `json:"pop,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`
}

// Routes returns the canonical versioned route list, one "METHOD path"
// per line, in serving order. scripts/check.sh diffs this against
// testdata/api_v1_routes.txt so accidental surface drift fails the
// gate.
func Routes() []string {
	return []string{
		"GET /v1/pops",
		"GET /v1/pops/{pop}",
		"GET /v1/pops/{pop}/health",
		"GET /v1/pops/{pop}/overrides",
		"GET /v1/pops/{pop}/cycles",
		"GET /v1/pops/{pop}/explain",
		"GET /v1/pops/{pop}/routes",
		"PUT /v1/pops/{pop}/config",
		"GET /v1/fleet/summary",
		"GET /v1/fleet/health",
		"GET /v1/fleet/reconcile",
		"GET /v1/metrics",
	}
}

// Server hosts the API surface over a set of named PoP controllers. A
// single-controller daemon registers one PoP; the fleet host registers
// one per site. Safe for concurrent use; PoPs may be added while
// serving.
type Server struct {
	mu          sync.RWMutex
	pops        map[string]*core.Controller
	order       []string
	reconciler  *core.Reconciler
	metricsTopK int

	// Digest cache backing the /v1/fleet/* rollups: per-PoP rows
	// rebuilt only when that PoP's cycle sequence moves (or a short TTL
	// lapses), with the fleet aggregate maintained incrementally. See
	// fleet.go.
	digestMu     sync.Mutex
	digests      map[string]*digestEntry
	digestStripe int
	agg          fleetAggregate
}

// NewServer returns an empty Server; register controllers with AddPoP.
func NewServer() *Server {
	return &Server{
		pops:    make(map[string]*core.Controller),
		digests: make(map[string]*digestEntry),
	}
}

// AddPoP registers a controller under a PoP name.
func (s *Server) AddPoP(name string, ctrl *core.Controller) error {
	if name == "" {
		return fmt.Errorf("api: PoP name required")
	}
	if ctrl == nil {
		return fmt.Errorf("api: PoP %q: controller required", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pops[name]; dup {
		return fmt.Errorf("api: PoP %q already registered", name)
	}
	s.pops[name] = ctrl
	s.order = append(s.order, name)
	return nil
}

// PoPNames lists registered PoPs in registration order.
func (s *Server) PoPNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// pop resolves a PoP by name.
func (s *Server) pop(name string) (*core.Controller, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.pops[name]
	return c, ok
}

// writeEnvelope serializes one envelope with the given status.
func writeEnvelope(w http.ResponseWriter, status int, env Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(env)
}

func writeData(w http.ResponseWriter, pop string, cycle uint64, data any) {
	writeEnvelope(w, http.StatusOK, Envelope{Data: data, PoP: pop, Cycle: cycle})
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeEnvelope(w, status, Envelope{Error: &Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// allowQuery rejects query strings carrying parameters the endpoint
// does not define — a typo like ?prefx= should fail loudly, not be
// silently ignored.
func allowQuery(w http.ResponseWriter, r *http.Request, keys ...string) bool {
	for k := range r.URL.Query() {
		ok := false
		for _, allowed := range keys {
			if k == allowed {
				ok = true
				break
			}
		}
		if !ok {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "unknown query parameter %q", k)
			return false
		}
	}
	return true
}

// parseLimit parses ?limit= with a default and a cap.
func parseLimit(w http.ResponseWriter, r *http.Request, def, max int) (int, bool) {
	s := r.URL.Query().Get("limit")
	if s == "" {
		return def, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer, got %q", s)
		return 0, false
	}
	if n > max {
		n = max
	}
	return n, true
}

// popHandler adapts a per-PoP endpoint: resolves {pop}, answers 404
// unknown_pop for unregistered names.
func (s *Server) popHandler(fn func(w http.ResponseWriter, r *http.Request, name string, c *core.Controller)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("pop")
		c, ok := s.pop(name)
		if !ok {
			writeErr(w, http.StatusNotFound, CodeUnknownPoP, "unknown PoP %q (GET /v1/pops lists the fleet)", name)
			return
		}
		fn(w, r, name, c)
	}
}

// Handler returns the http.Handler serving the /v1 surface; any other
// path answers 404 not_found in the envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// get registers a GET handler that answers 405 in-envelope for any
	// other method (the stdlib mux's plain-text 405 would break the
	// one-envelope guarantee).
	get := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				writeErr(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s not allowed; use GET", r.Method)
				return
			}
			h(w, r)
		})
	}

	// put registers a PUT handler with the same 405-in-envelope
	// guarantee as get.
	put := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPut {
				w.Header().Set("Allow", http.MethodPut)
				writeErr(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s not allowed; use PUT", r.Method)
				return
			}
			h(w, r)
		})
	}

	// --- versioned surface ---
	get("/v1/pops", s.handlePoPs)
	get("/v1/pops/{pop}", s.popHandler(s.handlePoPSummary))
	get("/v1/pops/{pop}/health", s.popHandler(s.handleHealth))
	get("/v1/pops/{pop}/overrides", s.popHandler(s.handleOverrides))
	get("/v1/pops/{pop}/cycles", s.popHandler(s.handleCycles))
	get("/v1/pops/{pop}/explain", s.popHandler(s.handleExplain))
	get("/v1/pops/{pop}/routes", s.popHandler(s.handleRoutes))
	put("/v1/pops/{pop}/config", s.popHandler(s.handlePutConfig))
	get("/v1/fleet/summary", s.handleFleetSummary)
	get("/v1/fleet/health", s.handleFleetHealth)
	get("/v1/fleet/reconcile", s.handleFleetReconcile)
	get("/v1/metrics", s.handleFleetMetrics)

	// Root: service index; anything else unrouted is a JSON 404.
	get("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeErr(w, http.StatusNotFound, CodeNotFound, "no route for %s", r.URL.Path)
			return
		}
		writeData(w, "", 0, map[string]any{
			"service": "edgefabric",
			"version": Version,
			"routes":  Routes(),
			"pops":    s.PoPNames(),
		})
	})
	return mux
}

// --- endpoint handlers ---

func (s *Server) handlePoPs(w http.ResponseWriter, r *http.Request) {
	if !allowQuery(w, r) {
		return
	}
	names := s.PoPNames()
	items := make([]PoPSummary, 0, len(names))
	for _, name := range names {
		if c, ok := s.pop(name); ok {
			items = append(items, popSummary(name, c))
		}
	}
	writeData(w, "", 0, map[string]any{"count": len(items), "items": items})
}

func (s *Server) handlePoPSummary(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r) {
		return
	}
	sum := popSummary(name, c)
	routes, withdraws, unknown := c.Store().Stats()
	writeData(w, name, c.LastSeq(), map[string]any{
		"summary": sum,
		"ingested": map[string]uint64{
			"routes":        routes,
			"withdraws":     withdraws,
			"unknown_peers": unknown,
		},
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r) {
		return
	}
	writeData(w, name, c.LastSeq(), healthDoc(c))
}

func (s *Server) handleOverrides(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r) {
		return
	}
	items := overrideDocs(c)
	writeData(w, name, c.LastSeq(), map[string]any{"count": len(items), "items": items})
}

func (s *Server) handleCycles(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r, "limit", "after") {
		return
	}
	limit, ok := parseLimit(w, r, defaultCycleLimit, maxCycleLimit)
	if !ok {
		return
	}
	var after uint64
	if s := r.URL.Query().Get("after"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadCursor, "after must be a cycle sequence number, got %q", s)
			return
		}
		after = n
	}
	writeData(w, name, c.LastSeq(), cyclesPage(c, after, limit))
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r, "prefix") {
		return
	}
	arg := r.URL.Query().Get("prefix")
	if arg == "" {
		writeData(w, name, c.LastSeq(), map[string]string{"text": c.ExplainSummary()})
		return
	}
	p, err := netip.ParsePrefix(arg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadPrefix, "bad prefix %q: %v", arg, err)
		return
	}
	writeData(w, name, c.LastSeq(), map[string]string{
		"prefix": p.Masked().String(),
		"text":   c.Explain(p),
	})
}

func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request, name string, c *core.Controller) {
	if !allowQuery(w, r, "limit", "after") {
		return
	}
	limit, ok := parseLimit(w, r, defaultRouteLimit, maxRouteLimit)
	if !ok {
		return
	}
	var after netip.Prefix
	if s := r.URL.Query().Get("after"); s != "" {
		p, err := netip.ParsePrefix(s)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadCursor, "after must be a prefix cursor, got %q: %v", s, err)
			return
		}
		after = p.Masked()
	}
	writeData(w, name, c.LastSeq(), routesPage(c, after, limit))
}

func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowQuery(w, r) {
		return
	}
	names := s.PoPNames()
	var b strings.Builder

	// Label-cardinality control: with a top-K bound set and more PoPs
	// than K, only the K highest-traffic PoPs keep distinct pop="..."
	// series; the rest are summed into one pop="other" bucket, so the
	// scrape's series count stays O(K), not O(fleet).
	k := s.getMetricsTopK()
	if k > 0 && len(names) > k {
		top := s.topKByDemand(names, k)
		sums := make(map[string]float64)
		var order []string
		for _, name := range names {
			c, ok := s.pop(name)
			if !ok {
				continue
			}
			if top[name] {
				labelMetrics(&b, c.Metrics().Render(), name)
			} else {
				rollupMetrics(sums, &order, c.Metrics().Render())
			}
		}
		for _, metric := range order {
			fmt.Fprintf(&b, "%s{pop=%q} %s\n", metric, "other",
				strconv.FormatFloat(sums[metric], 'g', -1, 64))
		}
	} else {
		for _, name := range names {
			if c, ok := s.pop(name); ok {
				labelMetrics(&b, c.Metrics().Render(), name)
			}
		}
	}
	// The fleet supervisor's series (edgefabric_fleet_*) describe the
	// whole process, so they render once and unlabelled.
	if rec := s.getReconciler(); rec != nil {
		b.WriteString(rec.Supervisor().Metrics().Render())
	}
	writeData(w, "", 0, map[string]string{"text": b.String()})
}

// labelMetrics rewrites "name value" lines as `name{pop="x"} value`, so
// one scrape of the fleet host keeps every PoP's series distinct.
func labelMetrics(b *strings.Builder, text, pop string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		fmt.Fprintf(b, "%s{pop=%q} %s\n", name, pop, value)
	}
}
