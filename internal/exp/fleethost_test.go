package exp

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestFleetHost builds an n-PoP fleet host of small members.
func newTestFleetHost(t *testing.T, n int) *FleetHost {
	t.Helper()
	base := testConfig(true)
	base.Synth.Prefixes = 120
	base.Synth.EdgeASes = 25
	base.Synth.PublicPeers = 6
	base.Synth.RouteServerMembers = 8
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fh, err := NewFleetHostFromConfigs(ctx, fleetConfigs(base, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fh.Close)
	return fh
}

// TestFleetHostRoundMetrics checks that a hosted fleet's rounds run
// through the supervisor: its round counters reach /v1/metrics.
func TestFleetHostRoundMetrics(t *testing.T) {
	fh := newTestFleetHost(t, 2)
	for i := 0; i < 5; i++ {
		fh.Step()
	}
	rec := httptest.NewRecorder()
	fh.API.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/metrics = %d: %s", rec.Code, rec.Body.String())
	}
	var env struct {
		Data struct {
			Text string `json:"text"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(env.Data.Text, "\n")
	for _, want := range []string{
		"edgefabric_fleet_members 2",
		"edgefabric_fleet_rounds_total 5",
		"edgefabric_fleet_round_seconds_count 5",
	} {
		found := false
		for _, l := range lines {
			found = found || l == want
		}
		if !found {
			t.Errorf("/v1/metrics lacks %q", want)
		}
	}
}

// TestFleetHostDrainRound rolls a config change across one member of a
// hosted fleet: while the reconciler drains pop-1, its rounds run no
// cycle and report nil, its siblings cycle once per round, and once the
// rollout converges pop-1 cycles again under the new threshold.
func TestFleetHostDrainRound(t *testing.T) {
	fh := newTestFleetHost(t, 3)
	put := httptest.NewRecorder()
	fh.API.Handler().ServeHTTP(put, httptest.NewRequest("PUT", "/v1/pops/pop-1/config",
		strings.NewReader(`{"threshold":0.9}`)))
	if put.Code != 200 {
		t.Fatalf("PUT /v1/pops/pop-1/config = %d: %s", put.Code, put.Body.String())
	}

	drainedRounds := 0
	for round := 1; round <= 10 && fh.Reconciler.Status().Phase != "converged"; round++ {
		draining := fh.Supervisor.Draining("pop-1")
		before := make([]uint64, len(fh.PoPs))
		for i, h := range fh.PoPs {
			before[i] = h.Controller.LastSeq()
		}
		_, reports := fh.Step()
		for i, h := range fh.PoPs {
			name, seq, r := h.Scenario.Topo.Name, h.Controller.LastSeq(), reports[i]
			if i == 0 && draining {
				if seq != before[i] || r != nil {
					t.Errorf("round %d: drained %s at cycle %d → %d, reported %v; want held, no report", round, name, before[i], seq, r != nil)
				}
				continue
			}
			if seq != before[i]+1 || r == nil || r.Seq != seq {
				t.Errorf("round %d: %s at cycle %d → %d, reported %v; want one cycle reported", round, name, before[i], seq, r != nil)
			}
		}
		if draining {
			drainedRounds++
		}
	}
	if st := fh.Reconciler.Status(); st.Phase != "converged" {
		t.Fatalf("rollout ended %q: %+v", st.Phase, st.PoPs)
	}
	if drainedRounds == 0 {
		t.Fatal("pop-1 never drained")
	}
	pop1 := fh.PoPs[0].Controller
	if th := pop1.EffectiveConfig().Threshold; th != 0.9 {
		t.Errorf("pop-1 threshold = %v after rollout, want 0.9", th)
	}
	seq := pop1.LastSeq()
	if _, reports := fh.Step(); reports[0] == nil || pop1.LastSeq() != seq+1 {
		t.Errorf("pop-1 did not cycle after the rollout: cycle %d → %d", seq, pop1.LastSeq())
	}
}
