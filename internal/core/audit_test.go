package core

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"edgefabric/internal/rib"
)

func TestAuditLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	logger := NewAuditLogger(&buf)
	report := &CycleReport{
		Time:        time.Unix(1700000000, 0).UTC(),
		Seq:         7,
		DemandBps:   100e9,
		DetouredBps: 5e9,
		Announced:   2,
		Withdrawn:   1,
		Elapsed:     1500 * time.Microsecond,
		IfUtil:      map[int]float64{0: 0.97, 3: 0.2},
		Overrides: []Override{
			{
				Prefix:  netip.MustParsePrefix("10.0.0.0/24"),
				Via:     &rib.Route{NextHop: netip.MustParseAddr("172.20.0.9")},
				FromIF:  0,
				ToIF:    3,
				RateBps: 5e9,
				Reason:  "if 0 projected 97% > 95%",
			},
			{
				Prefix:  netip.MustParsePrefix("10.0.1.0/25"),
				SplitOf: netip.MustParsePrefix("10.0.1.0/24"),
				Via:     &rib.Route{NextHop: netip.MustParseAddr("172.20.0.9")},
			},
		},
	}
	if err := logger.Log(report); err != nil {
		t.Fatal(err)
	}
	if err := logger.Log(report); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAuditLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Seq != 7 || r.DemandBps != 100e9 || r.ElapsedUS != 1500 {
		t.Errorf("record = %+v", r)
	}
	if len(r.Overrides) != 2 || r.Overrides[0].Prefix != "10.0.0.0/24" {
		t.Errorf("overrides = %+v", r.Overrides)
	}
	if r.Overrides[1].SplitOf != "10.0.1.0/24" {
		t.Errorf("split_of = %q", r.Overrides[1].SplitOf)
	}
	if r.IfUtil[0] != 0.97 {
		t.Errorf("if_util = %v", r.IfUtil)
	}
}

func TestControllerWritesAudit(t *testing.T) {
	inv := testInventory(t)
	demand := staticTraffic{}
	var buf bytes.Buffer
	ctrl, _ := readyController(t, Config{
		Inventory: inv,
		Traffic:   demand,
		LocalAS:   64500,
		Audit:     NewAuditLogger(&buf),
	})
	ctrl.Store().Table().Add(route("10.0.0.0/24", "172.20.0.1", rib.ClassPrivate, 0, 65010))
	ctrl.Store().Table().Add(route("10.0.0.0/24", "172.20.0.9", rib.ClassTransit, 3, 64601, 65010))
	demand[netip.MustParsePrefix("10.0.0.0/24")] = 11e9
	if _, err := ctrl.RunCycle(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"seq":1`) || !strings.Contains(line, "10.0.0.0/24") {
		t.Errorf("audit line = %q", line)
	}
	recs, err := ReadAuditLog(strings.NewReader(line))
	if err != nil || len(recs) != 1 {
		t.Fatalf("parse back: %v %d", err, len(recs))
	}
	if len(recs[0].Overrides) == 0 {
		t.Error("audit record missing overrides")
	}
}

func TestReadAuditLogMalformed(t *testing.T) {
	recs, err := ReadAuditLog(strings.NewReader(`{"seq":1}` + "\n" + `{garbage`))
	if err == nil {
		t.Error("expected error on malformed line")
	}
	if len(recs) != 1 {
		t.Errorf("partial records = %d, want 1", len(recs))
	}
}
