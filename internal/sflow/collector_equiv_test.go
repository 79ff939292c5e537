package sflow

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// refCollector is a faithful replica of the pre-sharding collector
// (single mutex, bucket ring with per-bucket timestamps, rotate() on
// every touch). The equivalence test drives it and the sharded
// collector with identical ingest/read sequences and demands exactly
// equal Rates() output — same prefixes, bitwise-equal floats — so every
// Rates consumer is provably unaffected by the rewrite.
type refCollector struct {
	cfg        CollectorConfig
	bucketSpan time.Duration
	buckets    []map[netip.Prefix]float64
	times      []time.Time
	cur        int
	dropped    uint64
}

func newRefCollector(cfg CollectorConfig) *refCollector {
	if cfg.Window == 0 {
		cfg.Window = time.Minute
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 6
	}
	c := &refCollector{
		cfg:        cfg,
		bucketSpan: cfg.Window / time.Duration(cfg.Buckets),
		buckets:    make([]map[netip.Prefix]float64, cfg.Buckets),
		times:      make([]time.Time, cfg.Buckets),
	}
	now := cfg.Now()
	for i := range c.buckets {
		c.buckets[i] = make(map[netip.Prefix]float64)
		c.times[i] = now
	}
	return c
}

func (c *refCollector) rotate(now time.Time) {
	for now.Sub(c.times[c.cur]) >= c.bucketSpan {
		next := (c.cur + 1) % len(c.buckets)
		clear(c.buckets[next])
		c.times[next] = c.times[c.cur].Add(c.bucketSpan)
		c.cur = next
		if now.Sub(c.times[c.cur]) >= c.cfg.Window*2 {
			for i := range c.buckets {
				clear(c.buckets[i])
				c.times[i] = now
			}
			c.cur = 0
			return
		}
	}
}

func (c *refCollector) Ingest(d *Datagram) {
	now := c.cfg.Now()
	c.rotate(now)
	for _, s := range d.Samples {
		scale := float64(s.SamplingRate)
		for _, r := range s.Records {
			p := c.cfg.Mapper.MapPrefix(r.Dst)
			if !p.IsValid() {
				c.dropped++
				continue
			}
			c.buckets[c.cur][p] += float64(r.FrameLen) * scale
		}
	}
}

func (c *refCollector) Rates() map[netip.Prefix]float64 {
	now := c.cfg.Now()
	c.rotate(now)
	totals := make(map[netip.Prefix]float64)
	var oldest time.Time
	for i, b := range c.buckets {
		if oldest.IsZero() || c.times[i].Before(oldest) {
			oldest = c.times[i]
		}
		for p, bytes := range b {
			totals[p] += bytes
		}
	}
	span := now.Sub(oldest)
	if span < c.bucketSpan {
		span = c.bucketSpan
	}
	secs := span.Seconds()
	for p, bytes := range totals {
		totals[p] = bytes * 8 / secs
	}
	return totals
}

// equivMapper maps to a /20 so several distinct prefixes (and shards)
// come out of the address stream below.
type equivMapper struct{}

func (equivMapper) MapPrefix(a netip.Addr) netip.Prefix {
	if !a.Is4() {
		return netip.Prefix{}
	}
	p, _ := a.Prefix(20)
	return p
}

func ratesEqual(t *testing.T, tag string, got, want map[netip.Prefix]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d prefixes, want %d\n got %v\nwant %v", tag, len(got), len(want), got, want)
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			t.Fatalf("%s: missing prefix %v", tag, p)
		}
		if g != w {
			t.Fatalf("%s: %v = %v, want %v (must be bitwise equal)", tag, p, g, w)
		}
	}
}

// TestCollectorEquivalence drives the sharded collector and the seed
// replica with an identical sequence — in-window ingest, bucket
// rotation, full-window expiry, a huge-time-jump resync, unmappable
// records — comparing Rates() exactly after every step.
func TestCollectorEquivalence(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	mk := func(shards int) (*Collector, *refCollector) {
		cfg := CollectorConfig{Mapper: equivMapper{}, Window: 60 * time.Second, Buckets: 6, Now: clock}
		ref := newRefCollector(cfg)
		cfg.Shards = shards
		return NewCollector(cfg), ref
	}

	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, ref := mk(shards)
			check := func(tag string) {
				t.Helper()
				ratesEqual(t, tag, c.Rates(), ref.Rates())
			}

			dg := func(i int) *Datagram {
				// Addresses spread across 16 /20s; frame lengths vary so
				// bitwise equality is a real test of summation order.
				a := netip.AddrFrom4([4]byte{198, 51, byte(i * 16 % 256), byte(i % 250)})
				b := netip.AddrFrom4([4]byte{203, 0, byte(i * 32 % 256), byte(i % 250)})
				return &Datagram{
					Agent: netip.MustParseAddr("10.0.0.1"),
					Samples: []FlowSample{
						{SamplingRate: 1000, Records: []FlowRecord{
							{Dst: a, FrameLen: uint32(64 + i*7%1400)},
							{Dst: b, FrameLen: uint32(64 + i*13%1400)},
						}},
						{SamplingRate: 512, Records: []FlowRecord{
							{Dst: a, FrameLen: uint32(64 + i*3%1400)},
						}},
					},
				}
			}

			// Phase 1: in-window ingest, clock advancing through several
			// bucket rotations.
			for i := 0; i < 50; i++ {
				d := dg(i)
				sendDatagram(t, c, d)
				ref.Ingest(d)
				now = now.Add(1300 * time.Millisecond)
				if i%5 == 0 {
					check(fmt.Sprintf("phase1 step %d", i))
				}
			}
			check("phase1 end")

			// Phase 2: silence just under the resync threshold — buckets
			// expire one by one via rotation.
			now = now.Add(90 * time.Second)
			check("phase2 partial expiry")

			// Phase 3: huge time jump past 2x window forces the resync
			// path in both.
			for i := 0; i < 5; i++ {
				d := dg(100 + i)
				sendDatagram(t, c, d)
				ref.Ingest(d)
			}
			now = now.Add(10 * time.Minute)
			check("phase3 resync")

			// Phase 4: ingest resumes on the rebased timeline, including
			// unmappable records (v6 dst under the v4-only mapper).
			for i := 0; i < 20; i++ {
				d := dg(200 + i)
				d.Samples[0].Records = append(d.Samples[0].Records,
					FlowRecord{Dst: netip.MustParseAddr("2001:db8::1"), FrameLen: 1000})
				sendDatagram(t, c, d)
				ref.Ingest(d)
				now = now.Add(700 * time.Millisecond)
			}
			check("phase4 rebased")
			if _, _, dropped := c.Stats(); dropped != ref.dropped {
				t.Errorf("dropped = %d, want %d", dropped, ref.dropped)
			}

			// Rate(p) must match the full-map read exactly, including for
			// absent prefixes.
			want := ref.Rates()
			for p, w := range want {
				if g := c.Rate(p); g != w {
					t.Errorf("Rate(%v) = %v, want %v", p, g, w)
				}
			}
			if g := c.Rate(netip.MustParsePrefix("192.0.2.0/24")); g != 0 {
				t.Errorf("Rate(absent) = %v, want 0", g)
			}

			// RatesInto reusing a dirty destination map must equal a fresh
			// Rates() call.
			buf := map[netip.Prefix]float64{netip.MustParsePrefix("10.9.8.0/24"): 1e9}
			ratesEqual(t, "RatesInto reuse", c.RatesInto(buf), ref.Rates())
		})
	}
}
