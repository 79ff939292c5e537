package exp

import (
	"net"
	"testing"
)

// TestE15IngestSmoke runs a reduced-scale E15: one modest ladder rung
// that the sharded pipeline must sustain at zero drops, plus a small
// dump-absorption arm whose cycle inflation must stay bounded. The
// full-scale numbers live in EXPERIMENTS.md; this is the regression
// tripwire that keeps the ingest path honest under `go test -race`.
func TestE15IngestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest smoke needs real sockets and a few seconds")
	}
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback UDP in this environment: %v", err)
	} else {
		c.Close()
	}
	cfg := IngestConfig{
		Packets:      20_000,
		Prefixes:     4096,
		UDPRates:     []int{2_000},
		UDPSeconds:   1.0,
		DumpPrefixes: 20_000,
		Cycles:       10,
		Seed:         1,
	}
	res, err := E15IngestSaturation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardedPPS <= 0 || res.ShardedDemuxPPS <= 0 {
		t.Fatalf("in-process arms did not run: sharded %.0f, demux %.0f", res.ShardedPPS, res.ShardedDemuxPPS)
	}
	if len(res.NewUDP) != 1 {
		t.Fatalf("expected 1 sharded ladder point, got %d", len(res.NewUDP))
	}
	pt := res.NewUDP[0]
	if pt.Decoded == 0 {
		t.Fatalf("sharded pipeline decoded nothing at %d pps (sent %d)", pt.OfferedPPS, pt.Sent)
	}
	if pt.Dropped != 0 {
		t.Fatalf("sharded pipeline dropped %d of %d datagrams at a modest %d pps",
			pt.Dropped, pt.Sent, pt.OfferedPPS)
	}
	if pt.Malformed != 0 {
		t.Fatalf("sharded pipeline miscounted %d datagrams as malformed", pt.Malformed)
	}
	if res.ReplayedRoutes == 0 {
		t.Fatal("dump arm replayed no routes during the measurement window")
	}
	if res.BaseP95 <= 0 || res.DumpP95 <= 0 {
		t.Fatalf("dump arm cycle percentiles missing: idle %v, dump %v", res.BaseP95, res.DumpP95)
	}
	// Loose bound: the race detector and tiny cycle counts make exact
	// inflation noisy, but an unbounded stall (the seed's apply-loop
	// behavior) blows far past this.
	if res.InflationX > 5 {
		t.Fatalf("dump replay inflated cycle p95 %.2fx (idle %v, dump %v)",
			res.InflationX, res.BaseP95, res.DumpP95)
	}
}
