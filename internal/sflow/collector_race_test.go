package sflow

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCollectorShardedRace hammers the sharded window from many sides
// at once under -race: multi-shard ingest, full-map and single-prefix
// reads, epoch flips on every bucket boundary, and a huge-time-jump
// resync mid-flight. It asserts survival and basic sanity (the window
// only ever holds what was ingested), not exact figures — those are
// TestCollectorEquivalence's job.
func TestCollectorShardedRace(t *testing.T) {
	var nanos atomic.Int64
	base := time.Unix(9000, 0)
	nanos.Store(base.UnixNano())
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }

	c := NewCollector(CollectorConfig{
		Mapper:  fixedMapper{},
		Window:  200 * time.Millisecond, // short window: rotations happen constantly
		Buckets: 4,
		Now:     clock,
		Shards:  8,
	})

	const writers = 4
	const perWriter = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Clock driver: march time in sub-bucket steps, with one huge jump
	// (>2x window) in the middle to force the resync/timeline-rebase
	// path while writers and readers are live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i == 100 {
				nanos.Add(int64(time.Second)) // resync jump
			} else {
				nanos.Add(int64(10 * time.Millisecond))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Writers: each spreads records over many /24s, so all shards see
	// concurrent traffic.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := &Datagram{
					Agent: netip.AddrFrom4([4]byte{10, 0, 0, byte(w)}),
					Samples: []FlowSample{{
						SamplingRate: 100,
						Records: []FlowRecord{
							{Dst: netip.AddrFrom4([4]byte{198, 51, byte(i % 64), 1}), FrameLen: 500},
							{Dst: netip.AddrFrom4([4]byte{203, 0, byte((i + w) % 64), 1}), FrameLen: 900},
						},
					}},
				}
				b, err := MarshalBytes(d)
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.SendDatagram(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Readers: merged map, reused-buffer merge, and single-prefix reads.
	readerDone := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf map[netip.Prefix]float64
			p := netip.MustParsePrefix("198.51.7.0/24")
			for {
				select {
				case <-readerDone:
					return
				default:
				}
				switch r {
				case 0:
					for q, v := range c.Rates() {
						if v < 0 {
							t.Errorf("negative rate %v for %v", v, q)
							return
						}
					}
				case 1:
					buf = c.RatesInto(buf)
				case 2:
					if v := c.Rate(p); v < 0 {
						t.Errorf("negative rate %v", v)
						return
					}
				}
			}
		}(r)
	}

	// Wait for writers (the first `writers` goroutines after the clock).
	done := make(chan struct{})
	go func() {
		// Writers finish on their own; then stop clock and readers.
		for {
			if d, _, _ := c.Stats(); d >= writers*perWriter {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(readerDone)
		close(stop)
		close(done)
	}()
	<-done
	wg.Wait()

	if d, m, _ := c.Stats(); d != writers*perWriter || m != 0 {
		t.Errorf("datagrams = %d (want %d), malformed = %d (want 0)", d, writers*perWriter, m)
	}
	if c.LastIngest().IsZero() {
		t.Error("LastIngest still zero after ingest")
	}
}
