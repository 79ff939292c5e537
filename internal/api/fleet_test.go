package api_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
	"edgefabric/internal/rib"
)

// idleController builds the cheapest registrable controller: two
// interfaces, no demand, no sessions. One completed cycle so digests
// have a sequence to key on.
func idleController(t *testing.T) *core.Controller {
	t.Helper()
	inv, err := core.NewInventory(
		[]core.PeerInfo{
			{Name: "pni", Addr: netip.MustParseAddr("172.21.0.1"), AS: 65020, Class: rib.ClassPrivate, InterfaceID: 0, Router: "pr1"},
			{Name: "transit", Addr: netip.MustParseAddr("172.21.0.9"), AS: 64601, Class: rib.ClassTransit, InterfaceID: 1, Router: "pr1"},
		},
		[]core.InterfaceInfo{
			{ID: 0, Name: "pni", CapacityBps: 10e9, Router: "pr1"},
			{ID: 1, Name: "transit", CapacityBps: 100e9, Router: "pr1"},
		})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Inventory: inv, Traffic: staticTraffic{}, LocalAS: 64500, MaxHistory: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	if _, err := ctrl.RunCycle(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// fleetServer hosts one busy PoP ("sea", detouring 12G of demand) and
// n-1 idle PoPs named pop-01..: enough cardinality to exercise paging
// and rollups without n BGP speakers. Returns sea's controller too.
func fleetServer(t *testing.T, n int) (*httptest.Server, *api.Server, *core.Controller) {
	t.Helper()
	s := api.NewServer()
	sea := testController(t, "10.255.0.1")
	if err := s.AddPoP("sea", sea); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := s.AddPoP(fmt.Sprintf("pop-%02d", i), idleController(t)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s, sea
}

type fleetPage struct {
	Items     []api.FleetPoPDigest `json:"items"`
	Count     int                  `json:"count"`
	Total     int                  `json:"total"`
	NextAfter string               `json:"next_after"`
}

func TestFleetSummary(t *testing.T) {
	srv, _, _ := fleetServer(t, 6)
	resp, env := get(t, srv, "/v1/fleet/summary")
	if resp.StatusCode != http.StatusOK || env.Error != nil {
		t.Fatalf("status %d, error %+v", resp.StatusCode, env.Error)
	}
	var d struct {
		Fleet api.FleetSummaryDoc `json:"fleet"`
		Page  fleetPage           `json:"page"`
	}
	data(t, env, &d)
	if d.Fleet.PoPs != 6 {
		t.Errorf("fleet.pops = %d, want 6", d.Fleet.PoPs)
	}
	if d.Fleet.State != "healthy" || d.Fleet.States["healthy"] != 6 {
		t.Errorf("fleet state rollup = %q %v, want 6 healthy", d.Fleet.State, d.Fleet.States)
	}
	// Only the busy PoP contributes demand and overrides; the aggregate
	// must carry them.
	if d.Fleet.DemandBps < 11e9 || d.Fleet.Overrides == 0 {
		t.Errorf("aggregate demand %.0f / overrides %d, want sea's 12G and its detours",
			d.Fleet.DemandBps, d.Fleet.Overrides)
	}
	if d.Page.Count != 6 || d.Page.Total != 6 || d.Page.NextAfter != "" {
		t.Errorf("page = %+v, want all 6 PoPs on one page", d.Page)
	}
	if d.Page.Items[0].PoP != "sea" {
		t.Errorf("first row = %q, want registration order (sea first)", d.Page.Items[0].PoP)
	}
	for _, row := range d.Page.Items {
		if row.Cycle == 0 {
			t.Errorf("%s digest has cycle 0, want a completed cycle", row.PoP)
		}
	}
}

func TestFleetPagination(t *testing.T) {
	srv, _, _ := fleetServer(t, 7)
	var (
		seen  []string
		after string
	)
	for hops := 0; ; hops++ {
		if hops > 10 {
			t.Fatal("cursor never terminated")
		}
		path := "/v1/fleet/health?limit=3"
		if after != "" {
			path += "&after=" + after
		}
		_, env := get(t, srv, path)
		if env.Error != nil {
			t.Fatalf("page %d: %+v", hops, env.Error)
		}
		var d struct {
			Page fleetPage `json:"page"`
		}
		data(t, env, &d)
		if d.Page.Count > 3 {
			t.Fatalf("page count %d exceeds limit", d.Page.Count)
		}
		if d.Page.Total != 7-len(seen) {
			t.Errorf("page %d total = %d, want %d remaining", hops, d.Page.Total, 7-len(seen))
		}
		for _, row := range d.Page.Items {
			seen = append(seen, row.PoP)
		}
		if d.Page.NextAfter == "" {
			break
		}
		after = d.Page.NextAfter
	}
	if len(seen) != 7 {
		t.Fatalf("walked %d PoPs via cursor, want 7: %v", len(seen), seen)
	}
	for i, name := range seen[1:] {
		if name == seen[i] {
			t.Fatalf("duplicate PoP %q across pages", name)
		}
	}

	// Fleet endpoints reject unknown cursors and junk parameters like the
	// per-PoP ones do.
	resp, env := get(t, srv, "/v1/fleet/summary?after=nowhere")
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != api.CodeBadCursor {
		t.Errorf("bad cursor: status %d, error %+v", resp.StatusCode, env.Error)
	}
	resp, env = get(t, srv, "/v1/fleet/summary?limt=3")
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != api.CodeBadRequest {
		t.Errorf("typo parameter: status %d, error %+v", resp.StatusCode, env.Error)
	}
}

// TestFleetDigestTracksCycles: a digest row is cached, and refreshes
// once its PoP completes another cycle.
func TestFleetDigestTracksCycles(t *testing.T) {
	srv, _, ctrl := fleetServer(t, 2)
	_, env := get(t, srv, "/v1/fleet/health")
	var d struct {
		Page fleetPage `json:"page"`
	}
	data(t, env, &d)
	before := d.Page.Items[0].Cycle
	if d.Page.Items[0].PoP != "sea" || before == 0 {
		t.Fatalf("unexpected first digest: %+v", d.Page.Items[0])
	}

	if _, err := ctrl.RunCycle(); err != nil {
		t.Fatal(err)
	}
	_, env = get(t, srv, "/v1/fleet/health")
	data(t, env, &d)
	if got := d.Page.Items[0].Cycle; got != before+1 {
		t.Errorf("digest cycle = %d after a new cycle, want %d", got, before+1)
	}
}

func putJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, api.Envelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env api.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("PUT %s: body is not an envelope: %v\n%s", path, err, raw)
	}
	return resp, env
}

func TestPutConfig(t *testing.T) {
	s := api.NewServer()
	ctrl := testController(t, "10.255.0.1")
	if err := s.AddPoP("sea", ctrl); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Dry run: reports the would-be change, touches nothing.
	resp, env := putJSON(t, srv, "/v1/pops/sea/config?dry_run=true", `{"threshold":0.90}`)
	var d struct {
		Applied   bool                 `json:"applied"`
		DryRun    bool                 `json:"dry_run"`
		Changed   []string             `json:"changed"`
		Effective core.EffectiveConfig `json:"effective"`
		Gen       uint64               `json:"config_generation"`
	}
	data(t, env, &d)
	if resp.StatusCode != http.StatusOK || d.Applied || !d.DryRun {
		t.Fatalf("dry run: status %d, %+v", resp.StatusCode, d)
	}
	if d.Effective.Threshold != 0.90 {
		t.Errorf("dry-run effective threshold = %v, want the projected 0.90", d.Effective.Threshold)
	}
	if got := ctrl.EffectiveConfig().Threshold; got == 0.90 {
		t.Error("dry run mutated the live config")
	}
	if ctrl.ConfigGeneration() != 0 {
		t.Errorf("dry run bumped config generation to %d", ctrl.ConfigGeneration())
	}

	// Real apply (no reconciler attached: direct).
	resp, env = putJSON(t, srv, "/v1/pops/sea/config", `{"threshold":0.90,"target":0.92}`)
	data(t, env, &d)
	if resp.StatusCode != http.StatusOK || !d.Applied || d.Gen != 1 {
		t.Fatalf("apply: status %d, %+v, error %+v", resp.StatusCode, d, env.Error)
	}
	if got := ctrl.EffectiveConfig().Threshold; got != 0.90 {
		t.Errorf("threshold = %v after apply, want 0.90", got)
	}

	// Invalid values come back as typed per-field details.
	resp, env = putJSON(t, srv, "/v1/pops/sea/config", `{"threshold":2.5}`)
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != api.CodeInvalidConfig {
		t.Fatalf("invalid config: status %d, error %+v", resp.StatusCode, env.Error)
	}
	if env.Error.Details == nil {
		t.Error("invalid_config error carries no field details")
	}

	// Unknown fields, empty updates, and wrong methods all fail loudly.
	if resp, env := putJSON(t, srv, "/v1/pops/sea/config", `{"treshold":0.9}`); resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeBadRequest {
		t.Errorf("unknown field: status %d, error %+v", resp.StatusCode, env.Error)
	}
	if resp, env := putJSON(t, srv, "/v1/pops/sea/config", `{}`); resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeBadRequest {
		t.Errorf("empty update: status %d, error %+v", resp.StatusCode, env.Error)
	}
	if resp, env := putJSON(t, srv, "/v1/pops/nope/config", `{"threshold":0.9}`); resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeUnknownPoP {
		t.Errorf("unknown pop: status %d, error %+v", resp.StatusCode, env.Error)
	}
	if resp, env := get(t, srv, "/v1/pops/sea/config"); resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != api.CodeMethodNotAllowed {
		t.Errorf("GET on config: status %d, error %+v", resp.StatusCode, env.Error)
	}
}

// TestReconciledPutAndStatus wires a supervisor+reconciler behind the
// server: a real PUT queues a rollout instead of applying in place, and
// GET /v1/fleet/reconcile tracks it to convergence.
func TestReconciledPutAndStatus(t *testing.T) {
	s := api.NewServer()
	ctrl := testController(t, "10.255.0.1")
	if err := s.AddPoP("sea", ctrl); err != nil {
		t.Fatal(err)
	}
	sup := core.NewFleetSupervisor(core.FleetSupervisorConfig{})
	if err := sup.Add(core.FleetMember{Name: "sea", Ctrl: ctrl}); err != nil {
		t.Fatal(err)
	}
	rec := core.NewReconciler(sup, core.ReconcilerConfig{})
	s.SetReconciler(rec)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	_, env := get(t, srv, "/v1/fleet/reconcile")
	var st core.ReconcileStatus
	data(t, env, &st)
	if st.Phase != "idle" {
		t.Fatalf("initial reconcile phase = %q, want idle", st.Phase)
	}

	resp, env := putJSON(t, srv, "/v1/pops/sea/config", `{"threshold":0.90,"target":0.92}`)
	var qd struct {
		Applied    bool   `json:"applied"`
		Queued     bool   `json:"queued"`
		Generation uint64 `json:"generation"`
		Status     string `json:"status"`
	}
	data(t, env, &qd)
	if resp.StatusCode != http.StatusOK || qd.Applied || !qd.Queued || qd.Generation != 1 {
		t.Fatalf("reconciled PUT: status %d, %+v, error %+v", resp.StatusCode, qd, env.Error)
	}
	if ctrl.ConfigGeneration() != 0 {
		t.Fatal("reconciled PUT applied immediately; want drain-before-apply")
	}

	// Dry run stays synchronous even with a reconciler attached.
	if _, env := putJSON(t, srv, "/v1/pops/sea/config?dry_run=true", `{"threshold":0.85}`); env.Error != nil {
		t.Fatalf("dry run with reconciler: %+v", env.Error)
	}

	// Invalid updates are rejected synchronously, not queued.
	if resp, env := putJSON(t, srv, "/v1/pops/sea/config", `{"threshold":9}`); resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidConfig {
		t.Fatalf("invalid reconciled PUT: status %d, error %+v", resp.StatusCode, env.Error)
	}

	for round := 0; round < 50; round++ {
		sup.RunCycleAll()
		rec.Step()
		_, env = get(t, srv, "/v1/fleet/reconcile")
		data(t, env, &st)
		if st.Phase == "converged" || st.Phase == "failed" {
			break
		}
	}
	if st.Phase != "converged" {
		t.Fatalf("rollout ended %q: %+v", st.Phase, st.PoPs)
	}
	if got := ctrl.EffectiveConfig().Threshold; got != 0.90 {
		t.Errorf("threshold = %v after rollout, want 0.90", got)
	}
}

// TestFleetReconcileWithoutReconciler: a server with no reconciler
// attached says so rather than serving an empty doc.
func TestFleetReconcileWithoutReconciler(t *testing.T) {
	srv := singleServer(t)
	resp, env := get(t, srv, "/v1/fleet/reconcile")
	if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != api.CodeNotFound {
		t.Errorf("status %d, error %+v", resp.StatusCode, env.Error)
	}
}

// TestMetricsTopK: with a cardinality bound, only the K highest-demand
// PoPs keep their own pop label; everyone else folds into pop="other".
func TestMetricsTopK(t *testing.T) {
	srv, s, _ := fleetServer(t, 4)

	// Unbounded: every PoP labeled, no rollup bucket.
	_, env := get(t, srv, "/v1/metrics")
	var m struct {
		Text string `json:"text"`
	}
	data(t, env, &m)
	for _, pop := range []string{"sea", "pop-01", "pop-02", "pop-03"} {
		if !strings.Contains(m.Text, fmt.Sprintf("{pop=%q}", pop)) {
			t.Errorf("unbounded metrics missing pop %q", pop)
		}
	}
	if strings.Contains(m.Text, `{pop="other"}`) {
		t.Error("unbounded metrics grew an other bucket")
	}

	s.SetMetricsTopK(1)
	_, env = get(t, srv, "/v1/metrics")
	data(t, env, &m)
	if !strings.Contains(m.Text, `{pop="sea"}`) {
		t.Error("top-1 metrics lost the highest-demand PoP's label")
	}
	if !strings.Contains(m.Text, `{pop="other"}`) {
		t.Error("top-1 metrics has no other rollup bucket")
	}
	for _, pop := range []string{"pop-01", "pop-02", "pop-03"} {
		if strings.Contains(m.Text, fmt.Sprintf("{pop=%q}", pop)) {
			t.Errorf("top-1 metrics still labels idle PoP %q", pop)
		}
	}
	// The rollup preserves mass: three idle PoPs each completed one
	// cycle, so the other-bucket's cycle counter sums to 3.
	found := false
	for _, line := range strings.Split(m.Text, "\n") {
		if strings.HasPrefix(line, `edgefabric_cycles_total{pop="other"}`) {
			found = true
			if !strings.HasSuffix(line, " 3") {
				t.Errorf("other-bucket cycles = %q, want sum 3", line)
			}
		}
	}
	if !found {
		t.Error("other bucket missing edgefabric_cycles_total")
	}

	// A bound of zero restores full labeling.
	s.SetMetricsTopK(0)
	_, env = get(t, srv, "/v1/metrics")
	data(t, env, &m)
	if strings.Contains(m.Text, `{pop="other"}`) {
		t.Error("topK=0 still rolls up")
	}
}
