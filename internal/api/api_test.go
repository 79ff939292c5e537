package api_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/api"
	"edgefabric/internal/bgp"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
)

type staticTraffic map[netip.Prefix]float64

func (s staticTraffic) Rates() map[netip.Prefix]float64 { return s }

type silentHandler struct{}

func (silentHandler) HandleEstablished(*bgp.Peer, *bgp.Open) {}
func (silentHandler) HandleDown(*bgp.Peer, error)            {}
func (silentHandler) HandleUpdate(*bgp.Peer, *bgp.Update)    {}

// fakeRouterConn stands up a BGP speaker playing the peering router and
// returns the controller-side net.Conn for AddInjectionSession.
func fakeRouterConn(t *testing.T, routerID string, localAS uint32) net.Conn {
	t.Helper()
	sp, err := bgp.NewSpeaker(bgp.SpeakerConfig{
		LocalAS:  localAS,
		RouterID: netip.MustParseAddr(routerID),
		HoldTime: 5 * time.Second,
		Handler:  silentHandler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	peer, err := sp.AddPeer(bgp.PeerConfig{PeerAddr: netip.MustParseAddr("10.255.0.100")})
	if err != nil {
		t.Fatal(err)
	}
	prEnd, ctrlEnd := netsim.BufferedPipe()
	if err := peer.Accept(prEnd); err != nil {
		t.Fatal(err)
	}
	return ctrlEnd
}

// testController builds a controller with 4 prefixes overloading a 10G
// PNI (forcing detours via transit), one live injection session, and
// three completed cycles.
func testController(t *testing.T, routerID string) *core.Controller {
	t.Helper()
	inv, err := core.NewInventory(
		[]core.PeerInfo{
			{Name: "pni-a", Addr: netip.MustParseAddr("172.20.0.1"), AS: 65010, Class: rib.ClassPrivate, InterfaceID: 0, Router: "pr1"},
			{Name: "transit", Addr: netip.MustParseAddr("172.20.0.9"), AS: 64601, Class: rib.ClassTransit, InterfaceID: 3, Router: "pr1"},
		},
		[]core.InterfaceInfo{
			{ID: 0, Name: "pni-a", CapacityBps: 10e9, Router: "pr1"},
			{ID: 3, Name: "transit", CapacityBps: 100e9, Router: "pr1"},
		})
	if err != nil {
		t.Fatal(err)
	}
	demand := staticTraffic{}
	ctrl, err := core.New(core.Config{
		Inventory: inv,
		Traffic:   demand,
		LocalAS:   64500,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	if err := ctrl.AddInjectionSession(netip.MustParseAddr(routerID), fakeRouterConn(t, routerID, 64500)); err != nil {
		t.Fatal(err)
	}
	pol := rib.DefaultPolicy()
	for _, prefix := range []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"} {
		p := netip.MustParsePrefix(prefix)
		for _, r := range []*rib.Route{
			{Prefix: p, NextHop: netip.MustParseAddr("172.20.0.1"), PeerAddr: netip.MustParseAddr("172.20.0.1"), PeerClass: rib.ClassPrivate, EgressIF: 0, ASPath: []uint32{65010}},
			{Prefix: p, NextHop: netip.MustParseAddr("172.20.0.9"), PeerAddr: netip.MustParseAddr("172.20.0.9"), PeerClass: rib.ClassTransit, EgressIF: 3, ASPath: []uint32{64601, 65010}},
		} {
			pol.Import(r)
			ctrl.Store().Table().Add(r)
		}
		demand[p] = 3e9 // 12G total on a 10G PNI
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ctrl.WaitReady(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ctrl.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl
}

func singleServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := api.NewServer()
	if err := s.AddPoP("sea", testController(t, "10.255.0.1")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// get fetches path and decodes the envelope.
func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, api.Envelope) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type = %q, want application/json", path, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("GET %s: body is not an envelope: %v\n%s", path, err, body)
	}
	return resp, env
}

// data re-decodes an envelope's data payload into out.
func data(t *testing.T, env api.Envelope, out any) {
	t.Helper()
	b, err := json.Marshal(env.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func TestAPISurfaceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/api_v1_routes.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(api.Routes(), "\n") + "\n"
	if got != string(want) {
		t.Errorf("api.Routes() drifted from testdata/api_v1_routes.txt:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestV1Routes walks every versioned route's happy path and asserts the
// envelope contract.
func TestV1Routes(t *testing.T) {
	srv := singleServer(t)
	cases := []struct {
		path    string
		wantPoP string
		check   func(t *testing.T, env api.Envelope)
	}{
		{"/v1/pops", "", func(t *testing.T, env api.Envelope) {
			var d struct {
				Count int              `json:"count"`
				Items []api.PoPSummary `json:"items"`
			}
			data(t, env, &d)
			if d.Count != 1 || len(d.Items) != 1 || d.Items[0].Name != "sea" {
				t.Errorf("pops = %+v", d)
			}
			if d.Items[0].Prefixes != 4 || d.Items[0].Cycle != 3 {
				t.Errorf("summary = %+v, want 4 prefixes after 3 cycles", d.Items[0])
			}
		}},
		{"/v1/pops/sea", "sea", func(t *testing.T, env api.Envelope) {
			var d struct {
				Summary  api.PoPSummary    `json:"summary"`
				Ingested map[string]uint64 `json:"ingested"`
			}
			data(t, env, &d)
			if d.Summary.State == "" || d.Ingested == nil {
				t.Errorf("summary = %+v", d)
			}
		}},
		{"/v1/pops/sea/health", "sea", func(t *testing.T, env api.Envelope) {
			var d api.HealthDoc
			data(t, env, &d)
			if d.State != "healthy" {
				t.Errorf("state = %q, want healthy", d.State)
			}
			if d.SessionsUp != 1 || len(d.Sessions) != 1 || d.Sessions[0].Delivered == 0 {
				t.Errorf("sessions = %+v", d.Sessions)
			}
		}},
		{"/v1/pops/sea/overrides", "sea", func(t *testing.T, env api.Envelope) {
			var d struct {
				Count int               `json:"count"`
				Items []api.OverrideDoc `json:"items"`
			}
			data(t, env, &d)
			if d.Count == 0 {
				t.Fatal("no overrides installed; fixture should overload the PNI")
			}
			for _, o := range d.Items {
				if o.PeerClass != "transit" || o.NextHop != "172.20.0.9" {
					t.Errorf("override = %+v, want detour to transit", o)
				}
			}
		}},
		{"/v1/pops/sea/cycles", "sea", func(t *testing.T, env api.Envelope) {
			var d struct {
				Items []api.CycleDoc `json:"items"`
				Count int            `json:"count"`
				Total int            `json:"total"`
			}
			data(t, env, &d)
			if d.Total != 3 || d.Count != 3 {
				t.Fatalf("cycles = %+v, want 3", d)
			}
			if d.Items[0].Seq != 1 || d.Items[2].Seq != 3 {
				t.Errorf("cycle seqs = %v, want ascending 1..3", d.Items)
			}
			if d.Items[0].Health != "healthy" || len(d.Items[0].IfUtil) == 0 {
				t.Errorf("cycle doc = %+v", d.Items[0])
			}
		}},
		{"/v1/pops/sea/explain", "sea", func(t *testing.T, env api.Envelope) {
			var d map[string]string
			data(t, env, &d)
			if !strings.Contains(d["text"], "considered") {
				t.Errorf("explain summary = %q", d["text"])
			}
		}},
		{"/v1/pops/sea/explain?prefix=10.0.0.0/24", "sea", func(t *testing.T, env api.Envelope) {
			var d map[string]string
			data(t, env, &d)
			if d["prefix"] != "10.0.0.0/24" || !strings.Contains(d["text"], "outcome") {
				t.Errorf("explain = %+v", d)
			}
		}},
		{"/v1/pops/sea/routes", "sea", func(t *testing.T, env api.Envelope) {
			var d struct {
				Items []api.PrefixRoutesDoc `json:"items"`
				Total int                   `json:"total"`
			}
			data(t, env, &d)
			if d.Total != 4 || len(d.Items) != 4 {
				t.Fatalf("routes = %+v, want 4 prefixes", d)
			}
			rts := d.Items[0].Routes
			if len(rts) != 2 || !rts[0].Best || rts[0].PeerClass != "private" {
				t.Errorf("routes[0] = %+v, want best=private first", rts)
			}
		}},
		{"/v1/fleet/health", "", func(t *testing.T, env api.Envelope) {
			var d struct {
				State string `json:"state"`
				Page  struct {
					Items []api.FleetPoPDigest `json:"items"`
				} `json:"page"`
			}
			data(t, env, &d)
			if d.State != "healthy" || len(d.Page.Items) != 1 || d.Page.Items[0].PoP != "sea" {
				t.Errorf("fleet health = %+v", d)
			}
		}},
		{"/v1/metrics", "", func(t *testing.T, env api.Envelope) {
			var d map[string]string
			data(t, env, &d)
			if !strings.Contains(d["text"], `edgefabric_cycles_total{pop="sea"} 3`) {
				t.Errorf("metrics missing pop label:\n%s", d["text"])
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			resp, env := get(t, srv, tc.path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200", resp.StatusCode)
			}
			if env.Error != nil {
				t.Fatalf("error = %+v, want nil", env.Error)
			}
			if env.PoP != tc.wantPoP {
				t.Errorf("pop = %q, want %q", env.PoP, tc.wantPoP)
			}
			if tc.wantPoP != "" && env.Cycle != 3 {
				t.Errorf("cycle = %d, want 3", env.Cycle)
			}
			tc.check(t, env)
		})
	}
}

// TestV1Errors asserts every error path returns the typed envelope with
// the right status and code.
func TestV1Errors(t *testing.T) {
	srv := singleServer(t)
	cases := []struct {
		path     string
		wantCode int
		wantErr  string
	}{
		{"/v1/pops/lhr/health", 404, api.CodeUnknownPoP},
		{"/v1/pops/sea/explain?prefix=bogus", 400, api.CodeBadPrefix},
		{"/v1/pops/sea/cycles?after=xyz", 400, api.CodeBadCursor},
		{"/v1/pops/sea/routes?after=notaprefix", 400, api.CodeBadCursor},
		{"/v1/pops/sea/cycles?limit=-4", 400, api.CodeBadRequest},
		{"/v1/pops/sea/health?verbose=1", 400, api.CodeBadRequest},
		{"/v1/nope", 404, api.CodeNotFound},
		{"/totally/unrouted", 404, api.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			resp, env := get(t, srv, tc.path)
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if env.Error == nil || env.Error.Code != tc.wantErr {
				t.Errorf("error = %+v, want code %q", env.Error, tc.wantErr)
			}
			if env.Error != nil && env.Error.Message == "" {
				t.Error("error message empty")
			}
		})
	}

	resp, err := srv.Client().Post(srv.URL+"/v1/pops", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Errorf("Allow = %q, want GET", allow)
	}
	var env api.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeMethodNotAllowed {
		t.Errorf("POST error = %+v", env.Error)
	}
}

// Every retained cycle row carries its cycle's override count, however
// far back it is: the ring keeps the count after it drops the set.
func TestCyclesKeepOverrideCounts(t *testing.T) {
	ctrl := testController(t, "10.255.0.1")
	s := api.NewServer()
	if err := s.AddPoP("sea", ctrl); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	want := map[uint64]int{}
	for i := 0; i < 105; i++ {
		rep, err := ctrl.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		want[rep.Seq] = len(rep.Overrides)
	}
	_, env := get(t, srv, "/v1/pops/sea/cycles?limit=1000")
	var d struct {
		Items []api.CycleDoc `json:"items"`
	}
	data(t, env, &d)
	if len(d.Items) != 108 {
		t.Fatalf("%d cycle rows, want 108", len(d.Items))
	}
	for _, it := range d.Items[3:] {
		if it.Overrides != want[it.Seq] {
			t.Errorf("cycle %d: %d overrides, its report had %d", it.Seq, it.Overrides, want[it.Seq])
		}
	}
	if old := d.Items[len(d.Items)-101]; old.Overrides == 0 {
		t.Errorf("cycle %d, 100 cycles back, reads 0 overrides", old.Seq)
	}
}

// TestPagination walks cycle and route cursors and asserts
// non-overlapping, exhaustive pages.
func TestPagination(t *testing.T) {
	srv := singleServer(t)

	var seqs []uint64
	after := ""
	for page := 0; page < 10; page++ {
		path := "/v1/pops/sea/cycles?limit=1"
		if after != "" {
			path += "&after=" + after
		}
		_, env := get(t, srv, path)
		var d struct {
			Items     []api.CycleDoc `json:"items"`
			Count     int            `json:"count"`
			Total     int            `json:"total"`
			NextAfter string         `json:"next_after"`
		}
		data(t, env, &d)
		if d.Count > 1 {
			t.Fatalf("limit=1 returned %d items", d.Count)
		}
		for _, it := range d.Items {
			seqs = append(seqs, it.Seq)
		}
		if d.NextAfter == "" {
			break
		}
		after = d.NextAfter
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Errorf("paged cycle seqs = %v, want [1 2 3]", seqs)
	}

	var prefixes []string
	after = ""
	for page := 0; page < 10; page++ {
		path := "/v1/pops/sea/routes?limit=3"
		if after != "" {
			path += "&after=" + strings.ReplaceAll(after, "/", "%2F")
		}
		_, env := get(t, srv, path)
		var d struct {
			Items     []api.PrefixRoutesDoc `json:"items"`
			Total     int                   `json:"total"`
			NextAfter string                `json:"next_after"`
		}
		data(t, env, &d)
		if d.Total != 4-len(prefixes) {
			t.Errorf("total = %d with %d consumed, want %d", d.Total, len(prefixes), 4-len(prefixes))
		}
		for _, it := range d.Items {
			prefixes = append(prefixes, it.Prefix)
		}
		if d.NextAfter == "" {
			break
		}
		after = d.NextAfter
	}
	want := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}
	if strings.Join(prefixes, ",") != strings.Join(want, ",") {
		t.Errorf("paged prefixes = %v, want %v", prefixes, want)
	}
}

// TestLegacyAliases asserts the retired unversioned aliases and
// /v1/health answer 404 not_found in the envelope.
func TestLegacyAliases(t *testing.T) {
	srv := singleServer(t)
	for _, path := range []string{"/health", "/overrides", "/cycles", "/explain", "/routes", "/metrics", "/v1/health"} {
		resp, env := get(t, srv, path)
		if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != api.CodeNotFound {
			t.Errorf("GET %s = %d %+v, want 404 %s", path, resp.StatusCode, env.Error, api.CodeNotFound)
		}
	}

	// Root index names the service and the fleet.
	resp, env := get(t, srv, "/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET / = %d", resp.StatusCode)
	}
	var idx struct {
		Service string   `json:"service"`
		Version string   `json:"version"`
		Pops    []string `json:"pops"`
	}
	data(t, env, &idx)
	if idx.Service != "edgefabric" || idx.Version != "v1" || len(idx.Pops) != 1 {
		t.Errorf("index = %+v", idx)
	}
}

// TestFleetScoping asserts multi-PoP behavior: per-PoP scoping works,
// the fleet rollups cover both PoPs, metrics carry both labels.
func TestFleetScoping(t *testing.T) {
	s := api.NewServer()
	if err := s.AddPoP("sea", testController(t, "10.255.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPoP("lhr", testController(t, "10.255.2.1")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPoP("sea", testController(t, "10.255.3.1")); err == nil {
		t.Error("duplicate AddPoP accepted")
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	_, env := get(t, srv, "/v1/pops")
	var d struct {
		Count int              `json:"count"`
		Items []api.PoPSummary `json:"items"`
	}
	data(t, env, &d)
	if d.Count != 2 || d.Items[0].Name != "sea" || d.Items[1].Name != "lhr" {
		t.Errorf("pops = %+v", d)
	}

	// Each PoP answers under its own scope.
	for _, pop := range []string{"sea", "lhr"} {
		resp, env := get(t, srv, "/v1/pops/"+pop+"/health")
		if resp.StatusCode != 200 || env.PoP != pop {
			t.Errorf("%s health = %d pop=%q", pop, resp.StatusCode, env.PoP)
		}
	}

	// Fleet health rolls both PoPs up; metrics carry both labels.
	_, env = get(t, srv, "/v1/fleet/health")
	var fh struct {
		State string `json:"state"`
		Page  struct {
			Items []api.FleetPoPDigest `json:"items"`
		} `json:"page"`
	}
	data(t, env, &fh)
	if len(fh.Page.Items) != 2 || fh.State != "healthy" {
		t.Errorf("fleet health = %+v", fh)
	}
	_, env = get(t, srv, "/v1/metrics")
	var m map[string]string
	data(t, env, &m)
	for _, want := range []string{`{pop="sea"}`, `{pop="lhr"}`} {
		if !strings.Contains(m["text"], want) {
			t.Errorf("fleet metrics missing %s", want)
		}
	}
}
