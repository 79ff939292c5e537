package sflow

import (
	"errors"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func testDatagram() *Datagram {
	return &Datagram{
		Agent:    netip.MustParseAddr("10.0.0.1"),
		SubAgent: 1,
		Seq:      42,
		UptimeMS: 123456,
		Samples: []FlowSample{{
			Seq:          7,
			SamplingRate: 1024,
			SamplePool:   99999,
			Records: []FlowRecord{
				{Dst: netip.MustParseAddr("198.51.100.9"), FrameLen: 1000, EgressIF: 3},
				{Dst: netip.MustParseAddr("2001:db8::9"), FrameLen: 1500, EgressIF: 4},
			},
		}},
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	d := testDatagram()
	b, err := MarshalBytes(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b, _ := MarshalBytes(testDatagram())
	b[3] = 99
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	b, _ := MarshalBytes(testDatagram())
	for cut := 1; cut < len(b)-1; cut += 5 {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestQuickDecodeNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// chanSink collects datagrams for agent tests.
type chanSink struct{ datagrams [][]byte }

func (s *chanSink) SendDatagram(b []byte) error {
	s.datagrams = append(s.datagrams, append([]byte(nil), b...))
	return nil
}

func TestAgentSamplingExpectation(t *testing.T) {
	sink := &chanSink{}
	a := NewAgent(AgentConfig{
		Agent:        netip.MustParseAddr("10.0.0.1"),
		SamplingRate: 100,
		AvgFrameLen:  1000,
		Seed:         1,
		Sink:         sink,
	})
	// 100 MB through one interface: expect ~1000 samples +- a few %.
	total := uint64(100_000_000)
	dst := netip.MustParseAddr("198.51.100.1")
	for i := 0; i < 100; i++ {
		if err := a.ObserveBytes(dst, 1, total/100); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	_, sampled, underlying := a.Stats()
	if underlying != total {
		t.Errorf("underlying = %d", underlying)
	}
	want := float64(total) / 1000 / 100 // frames / rate
	if math.Abs(float64(sampled)-want) > want*0.2 {
		t.Errorf("sampled = %d, want ~%.0f", sampled, want)
	}
	// Reconstruct byte estimate from the emitted datagrams.
	var est float64
	for _, db := range sink.datagrams {
		d, err := Decode(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Samples {
			for _, r := range s.Records {
				est += float64(r.FrameLen) * float64(s.SamplingRate)
			}
		}
	}
	if math.Abs(est-float64(total)) > float64(total)*0.2 {
		t.Errorf("estimated bytes = %.0f, want ~%d", est, total)
	}
}

func TestAgentLargeVolumeNormalApprox(t *testing.T) {
	sink := &chanSink{}
	a := NewAgent(AgentConfig{
		Agent:        netip.MustParseAddr("10.0.0.1"),
		SamplingRate: 1000,
		AvgFrameLen:  1000,
		Seed:         2,
		Sink:         sink,
	})
	// One huge observation (> 10000 frames) exercises the normal path.
	total := uint64(50_000_000_000)
	if err := a.ObserveBytes(netip.MustParseAddr("198.51.100.1"), 1, total); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	_, sampled, _ := a.Stats()
	want := float64(total) / 1000 / 1000
	if math.Abs(float64(sampled)-want) > want*0.1 {
		t.Errorf("sampled = %d, want ~%.0f", sampled, want)
	}
}

func TestAgentZeroBytesNoSamples(t *testing.T) {
	sink := &chanSink{}
	a := NewAgent(AgentConfig{Agent: netip.MustParseAddr("10.0.0.1"), Sink: sink, Seed: 3})
	if err := a.ObserveBytes(netip.MustParseAddr("198.51.100.1"), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.datagrams) != 0 {
		t.Errorf("datagrams = %d, want 0", len(sink.datagrams))
	}
}

func TestAgentTickFlushes(t *testing.T) {
	sink := &chanSink{}
	a := NewAgent(AgentConfig{
		Agent: netip.MustParseAddr("10.0.0.1"), SamplingRate: 1,
		AvgFrameLen: 100, Sink: sink, Seed: 4,
	})
	_ = a.ObserveBytes(netip.MustParseAddr("198.51.100.1"), 1, 100)
	if err := a.Tick(1000); err != nil {
		t.Fatal(err)
	}
	if len(sink.datagrams) != 1 {
		t.Fatalf("datagrams = %d", len(sink.datagrams))
	}
	d, err := Decode(sink.datagrams[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.UptimeMS != 1000 {
		t.Errorf("uptime = %d", d.UptimeMS)
	}
}

// fixedMapper maps everything to its /24.
type fixedMapper struct{}

func (fixedMapper) MapPrefix(a netip.Addr) netip.Prefix {
	p, _ := a.Prefix(24)
	return p
}

func TestCollectorRates(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCollector(CollectorConfig{
		Mapper:  fixedMapper{},
		Window:  60 * time.Second,
		Buckets: 6,
		Now:     clock,
	})
	sink := Sink(c)
	a := NewAgent(AgentConfig{
		Agent: netip.MustParseAddr("10.0.0.1"), SamplingRate: 10,
		AvgFrameLen: 1000, Sink: sink, Seed: 5,
	})
	dst := netip.MustParseAddr("198.51.100.77")
	// 10 MB/s for 30 simulated seconds.
	for i := 0; i < 30; i++ {
		if err := a.ObserveBytes(dst, 1, 10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	rates := c.Rates()
	p := netip.MustParsePrefix("198.51.100.0/24")
	got := rates[p]
	want := 80_000_000.0 // 10 MB/s = 80 Mbps
	if math.Abs(got-want) > want*0.25 {
		t.Errorf("rate = %.0f bps, want ~%.0f", got, want)
	}
	if c.Rate(p) == 0 {
		t.Error("Rate() returned 0")
	}
}

func TestCollectorWindowExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCollector(CollectorConfig{
		Mapper:  fixedMapper{},
		Window:  10 * time.Second,
		Buckets: 5,
		Now:     func() time.Time { return now },
	})
	d := testDatagram()
	d.Samples[0].Records = d.Samples[0].Records[:1] // v4 only
	sendDatagram(t, c, d)
	if len(c.Rates()) != 1 {
		t.Fatalf("rates = %v", c.Rates())
	}
	// After far more than a window of silence, rates must decay to
	// nothing.
	now = now.Add(time.Minute)
	if got := c.Rates(); len(got) != 0 {
		t.Errorf("rates after expiry = %v", got)
	}
}

func TestCollectorDropsUnmappable(t *testing.T) {
	c := NewCollector(CollectorConfig{
		Mapper: PrefixMapperFunc(func(netip.Addr) netip.Prefix { return netip.Prefix{} }),
	})
	sendDatagram(t, c, testDatagram())
	if _, _, dropped := c.Stats(); dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if len(c.Rates()) != 0 {
		t.Error("unmappable records must not produce rates")
	}
}

func TestCollectorSendDatagramBadBytes(t *testing.T) {
	c := NewCollector(CollectorConfig{Mapper: fixedMapper{}})
	if err := c.SendDatagram([]byte{1, 2, 3}); err == nil {
		t.Error("expected decode error")
	}
}

// sendDatagram feeds d to c the way an agent does: encoded, through
// SendDatagram.
func sendDatagram(t testing.TB, c *Collector, d *Datagram) {
	t.Helper()
	b, err := MarshalBytes(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendDatagram(b); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCollectorIngest(b *testing.B) {
	c := NewCollector(CollectorConfig{Mapper: fixedMapper{}})
	dg, err := MarshalBytes(testDatagram())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.SendDatagram(dg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgentObserve(b *testing.B) {
	a := NewAgent(AgentConfig{
		Agent: netip.MustParseAddr("10.0.0.1"),
		Sink:  SinkFunc(func([]byte) error { return nil }),
	})
	dst := netip.MustParseAddr("198.51.100.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.ObserveBytes(dst, 1, 1_000_000)
	}
}
