package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
)

func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFleetOfOne pins the fleets the flags build without --fleet: the
// PoP names the API serves and the defaults a fleet file would get.
func TestFleetOfOne(t *testing.T) {
	labelled := writeFile(t, "sea.json", `{"pop": "sea", "local_as": 64500}`)
	unlabelled := writeFile(t, "anon.json", `{"local_as": 64500}`)

	ff, err := remoteFleetOfOne(labelled, "127.0.0.1:16343")
	if err != nil {
		t.Fatal(err)
	}
	want := &FleetFile{SFlowListen: "127.0.0.1:16343", PoPs: []FleetPoPSpec{{Name: "sea", Inventory: labelled}}}
	if !reflect.DeepEqual(ff, want) {
		t.Errorf("remote, labelled = %+v, want %+v", ff, want)
	}
	ff, err = remoteFleetOfOne(unlabelled, "")
	if err != nil {
		t.Fatal(err)
	}
	want = &FleetFile{SFlowListen: "127.0.0.1:6343", PoPs: []FleetPoPSpec{{Name: "pop-1", Inventory: unlabelled}}}
	if !reflect.DeepEqual(ff, want) {
		t.Errorf("remote, unlabelled = %+v, want %+v", ff, want)
	}
	if _, err := remoteFleetOfOne(filepath.Join(t.TempDir(), "missing.json"), ""); err == nil {
		t.Error("remote fleet of one over a missing inventory: want error")
	}

	ff, err = embeddedFleetOfOne(2000, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	want = &FleetFile{PoPs: []FleetPoPSpec{{Name: "pop-1", Prefixes: 2000, PeakGbps: 400, Seed: 7}}}
	if !reflect.DeepEqual(ff, want) {
		t.Errorf("embedded = %+v, want %+v", ff, want)
	}
	ff, err = embeddedFleetOfOne(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = &FleetFile{PoPs: []FleetPoPSpec{{Name: "pop-1", Prefixes: 1000, PeakGbps: 200, Seed: 1}}}
	if !reflect.DeepEqual(ff, want) {
		t.Errorf("embedded, zero flags = %+v, want %+v", ff, want)
	}
}

func TestLoadFleetFile(t *testing.T) {
	tests := []struct {
		name    string
		body    string
		want    []FleetPoPSpec // nil when an error is expected
		listen  string
		wantErr string
	}{
		{
			name: "count template with seed offsets",
			body: `{"pops": [{"name": "edge", "count": 3, "prefixes": 150, "peak_gbps": 10, "seed": 11}]}`,
			want: []FleetPoPSpec{
				{Name: "edge-001", Prefixes: 150, PeakGbps: 10, Seed: 11},
				{Name: "edge-002", Prefixes: 150, PeakGbps: 10, Seed: 12},
				{Name: "edge-003", Prefixes: 150, PeakGbps: 10, Seed: 13},
			},
		},
		{
			name: "unnamed seedless template takes positional seeds",
			body: `{"pops": [{"name": "a"}, {"count": 2}]}`,
			want: []FleetPoPSpec{
				{Name: "a", Prefixes: 1000, PeakGbps: 200, Seed: 1},
				{Name: "pop-001", Prefixes: 1000, PeakGbps: 200, Seed: 2},
				{Name: "pop-002", Prefixes: 1000, PeakGbps: 200, Seed: 3},
			},
		},
		{
			name: "unnamed pops are named by position",
			body: `{"pops": [{"name": "sea"}, {}]}`,
			want: []FleetPoPSpec{
				{Name: "sea", Prefixes: 1000, PeakGbps: 200, Seed: 1},
				{Name: "pop-2", Prefixes: 1000, PeakGbps: 200, Seed: 2},
			},
		},
		{
			name:   "remote fleet defaults its listener",
			body:   `{"pops": [{"inventory": "sea.json"}, {"name": "lhr", "inventory": "lhr.json"}]}`,
			want:   []FleetPoPSpec{{Name: "pop-1", Inventory: "sea.json"}, {Name: "lhr", Inventory: "lhr.json"}},
			listen: "127.0.0.1:6343",
		},
		{
			name:    "duplicate names",
			body:    `{"pops": [{"name": "sea"}, {"name": "sea"}]}`,
			wantErr: `duplicate pop "sea"`,
		},
		{
			name:    "duplicate made by a template",
			body:    `{"pops": [{"name": "edge", "count": 2}, {"name": "edge-002"}]}`,
			wantErr: `duplicate pop "edge-002"`,
		},
		{
			name:    "mixed remote and embedded",
			body:    `{"pops": [{"name": "sea", "inventory": "sea.json"}, {"name": "lhr"}]}`,
			wantErr: "mixed remote",
		},
		{
			name:    "count with an inventory",
			body:    `{"pops": [{"name": "sea", "count": 2, "inventory": "sea.json"}]}`,
			wantErr: "count needs embedded pops",
		},
		{
			name:    "no pops",
			body:    `{"pops": []}`,
			wantErr: "no pops",
		},
		{
			name:    "not JSON",
			body:    `{"pops": [`,
			wantErr: "unexpected end of JSON input",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, "fleet.json", tc.body)
			ff, err := loadFleetFile(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), path) {
					t.Fatalf("err = %v, want one naming %s and containing %q", err, path, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ff.PoPs, tc.want) {
				t.Errorf("pops = %+v\nwant   %+v", ff.PoPs, tc.want)
			}
			if ff.SFlowListen != tc.listen {
				t.Errorf("sflow_listen = %q, want %q", ff.SFlowListen, tc.listen)
			}
		})
	}
}

// TestPopTallyFrozenReport feeds the tally a fail-static report: it
// carries the frozen override set with DemandBps 0, and must neither
// poison the peak detour (+Inf / NaN) nor displace the real peak.
func TestPopTallyFrozenReport(t *testing.T) {
	stats := &netsim.TickStats{
		IfLoadBps:  map[int]float64{1: 100e9},
		IfDropsBps: map[int]float64{1: 1e9},
	}
	overrides := []core.Override{{RateBps: 25e9}}
	frozen := &core.CycleReport{Health: core.HealthFailStatic, Overrides: overrides, DetouredBps: 25e9}

	var tl popTally
	tl.add(stats, frozen)
	if tl.peakDetour != 0 || tl.withOverrides != 1 || tl.cycles != 1 {
		t.Errorf("after a frozen cycle: %+v", tl)
	}
	tl.add(stats, &core.CycleReport{Overrides: overrides, DemandBps: 100e9, DetouredBps: 25e9})
	tl.add(stats, frozen)
	tl.add(stats, nil) // a tick without a cycle
	if tl.peakDetour != 0.25 || tl.cycles != 3 || tl.withOverrides != 3 {
		t.Errorf("tally = %+v, want peak 0.25 over 3 cycles with overrides", tl)
	}
	got := tl.line("pop-1")
	want := "  pop-1      3 cycles, 3 with overrides, peak detour 25.0%, dropped 1.0000%"
	if got != want {
		t.Errorf("line = %q\nwant   %q", got, want)
	}
	if got := (&popTally{}).line("idle"); strings.Contains(got, "NaN") {
		t.Errorf("empty tally line = %q", got)
	}
}
