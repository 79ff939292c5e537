package sflow

import (
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PrefixMapper maps a sampled destination address to the routing prefix
// it belongs to. The controller plugs in the PoP's longest-prefix-match
// table; tests can use a fixed-length mask.
type PrefixMapper interface {
	// MapPrefix returns the prefix covering addr; the invalid prefix
	// drops the sample.
	MapPrefix(addr netip.Addr) netip.Prefix
}

// PrefixMapperFunc adapts a function to PrefixMapper.
type PrefixMapperFunc func(addr netip.Addr) netip.Prefix

// MapPrefix implements PrefixMapper.
func (f PrefixMapperFunc) MapPrefix(addr netip.Addr) netip.Prefix { return f(addr) }

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	// Mapper maps sampled destinations to prefixes; required.
	Mapper PrefixMapper
	// Window is the averaging window. Default 60 s.
	Window time.Duration
	// Buckets subdivide the window. Default 6.
	Buckets int
	// Now supplies time; nil means time.Now. The simulator injects its
	// virtual clock.
	Now func() time.Time
	// Shards is the number of independent accumulators ingest spreads
	// prefixes across (rounded up to a power of two). Writers hash to a
	// shard and contend only within it; reads merge shard by shard, so
	// the shard count also bounds how long any single lock is held by a
	// full-map read — which is why the default keeps a floor above
	// GOMAXPROCS. Default is the next power of two >= GOMAXPROCS, but
	// at least 16.
	Shards int
	// Readers is the number of reader goroutines ServeUDPConns runs over a
	// socket, each with its own buffer. Default min(4, GOMAXPROCS).
	Readers int
}

// Collector aggregates sampled flow records into per-prefix egress byte
// rates over a sliding window — the traffic matrix half of the
// controller's input. Safe for concurrent use.
//
// Internally the window is a ring of per-shard bucket maps governed by
// a global epoch: the current epoch is the ordinal of the bucket that
// covers "now" on the current timeline, and rotation just publishes a
// bumped epoch. Shards migrate lazily — each clears its expired bucket
// maps the next time it is touched — so rotation itself is wait-free
// for every writer. Writes (millions per second) only ever lock one
// shard; reads (roughly one per control cycle) merge every shard, which
// is exactly where the cost belongs.
type Collector struct {
	cfg        CollectorConfig
	bucketSpan time.Duration
	nbuckets   int
	shardMask  uint32

	// win is the current (timeline, epoch) pair; rotMu serializes the
	// slow path that advances it. A timeline change (gen bump) is the
	// huge-time-jump resync: every shard discards everything on next
	// touch.
	win   atomic.Pointer[winEpoch]
	rotMu sync.Mutex

	shards []ingestShard

	datagrams  atomic.Uint64
	malformed  atomic.Uint64 // undecodable datagrams (transport-level)
	dropped    atomic.Uint64 // well-formed records with no mappable prefix
	lastIngest atomic.Int64  // UnixNano of the last ingested datagram; 0 = never

	// scratch pools per-ingest staging state so SendDatagram stays
	// allocation-free at steady state.
	scratch sync.Pool
}

// winEpoch is the published rotation state: bucket ordinal `epoch` on
// the timeline starting at `base`; `gen` increments when the timeline
// is rebased after a huge time jump.
type winEpoch struct {
	base  time.Time
	gen   uint64
	epoch uint64
}

// ingestShard is one hash partition of the window. Its mutex is only
// contended by writers that hash to the same shard (and the per-cycle
// read merge).
type ingestShard struct {
	mu      sync.Mutex
	gen     uint64
	epoch   uint64
	buckets []map[netip.Prefix]float64
	// pad keeps neighboring shards off one cache line under concurrent
	// writers.
	_ [64]byte
}

// pendingRec is one staged record: the mapped prefix and its scaled-up
// byte count.
type pendingRec struct {
	prefix netip.Prefix
	bytes  float64
}

// ingestScratch stages one datagram's records grouped by target shard,
// so each touched shard is locked once per datagram (not once per
// record) and a malformed tail ingests nothing.
type ingestScratch struct {
	byShard [][]pendingRec
	dropped uint64
	staged  int
}

// NewCollector returns a Collector for cfg.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Window == 0 {
		cfg.Window = time.Minute
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 6
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		// Keep a floor even on small machines: a full-map read locks
		// one shard at a time, so more shards mean shorter stalls for
		// concurrent writers regardless of parallelism.
		if cfg.Shards < 16 {
			cfg.Shards = 16
		}
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	if cfg.Readers == 0 {
		cfg.Readers = DefaultReaders()
	}
	c := &Collector{
		cfg:        cfg,
		bucketSpan: cfg.Window / time.Duration(cfg.Buckets),
		nbuckets:   cfg.Buckets,
		shardMask:  uint32(nshards - 1),
		shards:     make([]ingestShard, nshards),
	}
	now := cfg.Now()
	c.win.Store(&winEpoch{base: now, gen: 1})
	for i := range c.shards {
		s := &c.shards[i]
		s.gen = 1
		s.buckets = make([]map[netip.Prefix]float64, cfg.Buckets)
		for j := range s.buckets {
			s.buckets[j] = make(map[netip.Prefix]float64)
		}
	}
	c.scratch.New = func() any {
		scr := &ingestScratch{byShard: make([][]pendingRec, nshards)}
		return scr
	}
	return c
}

// shardIndex hashes a prefix to its shard (FNV-1a over the 16-byte
// address form plus the bit length; allocation-free).
func shardIndex(p netip.Prefix, mask uint32) uint32 {
	a := p.Addr().As16()
	h := uint64(14695981039346656037)
	for _, b := range a {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h = (h ^ uint64(uint8(p.Bits()))) * 1099511628211
	return uint32(h>>32) & mask
}

// advance rotates the published epoch so the current bucket covers now,
// replicating the seed collector's rotation semantics exactly: one
// bucket step per elapsed span, with a resync (timeline rebase) the
// moment the gap after a step still reaches twice the window. The fast
// path — now inside the current bucket — is one atomic load plus time
// arithmetic.
func (c *Collector) advance(now time.Time) *winEpoch {
	w := c.win.Load()
	if now.Sub(w.base)-time.Duration(w.epoch)*c.bucketSpan < c.bucketSpan {
		return w
	}
	c.rotMu.Lock()
	defer c.rotMu.Unlock()
	w = c.win.Load()
	for now.Sub(w.base)-time.Duration(w.epoch)*c.bucketSpan >= c.bucketSpan {
		nw := &winEpoch{base: w.base, gen: w.gen, epoch: w.epoch + 1}
		// Guard against a huge time jump: resync rather than spinning
		// through thousands of rotations.
		if now.Sub(nw.base)-time.Duration(nw.epoch)*c.bucketSpan >= c.cfg.Window*2 {
			nw = &winEpoch{base: now, gen: w.gen + 1}
			c.win.Store(nw)
			return nw
		}
		c.win.Store(nw)
		w = nw
	}
	return w
}

// migrate brings the shard up to the published epoch, clearing buckets
// that rotated out of the window since its last touch. Caller holds the
// shard lock.
func (s *ingestShard) migrate(w *winEpoch) {
	if s.gen != w.gen {
		for i := range s.buckets {
			clear(s.buckets[i])
		}
		s.gen, s.epoch = w.gen, w.epoch
		return
	}
	if w.epoch == s.epoch {
		return
	}
	n := uint64(len(s.buckets))
	if d := w.epoch - s.epoch; d >= n {
		for i := range s.buckets {
			clear(s.buckets[i])
		}
	} else {
		for e := s.epoch + 1; e <= w.epoch; e++ {
			clear(s.buckets[e%n])
		}
	}
	s.epoch = w.epoch
}

func (c *Collector) getScratch() *ingestScratch { return c.scratch.Get().(*ingestScratch) }

func (c *Collector) putScratch(scr *ingestScratch) { c.scratch.Put(scr) }

// stage maps one record to its prefix and queues it on the target
// shard's staging list.
func (c *Collector) stage(scr *ingestScratch, rec FlowRecord, samplingRate uint32) {
	p := c.cfg.Mapper.MapPrefix(rec.Dst)
	if !p.IsValid() {
		scr.dropped++
		return
	}
	i := shardIndex(p, c.shardMask)
	scr.byShard[i] = append(scr.byShard[i], pendingRec{
		prefix: p,
		bytes:  float64(rec.FrameLen) * float64(samplingRate),
	})
	scr.staged++
}

// reset drops staged state (used when a datagram turns out malformed:
// ingest is all-or-nothing, like the structured decode path was).
func (scr *ingestScratch) reset() {
	for i := range scr.byShard {
		scr.byShard[i] = scr.byShard[i][:0]
	}
	scr.dropped = 0
	scr.staged = 0
}

// commit applies the staged records, locking each touched shard exactly
// once.
func (c *Collector) commit(scr *ingestScratch, now time.Time) {
	w := c.advance(now)
	if scr.dropped != 0 {
		c.dropped.Add(scr.dropped)
		scr.dropped = 0
	}
	if scr.staged == 0 {
		return
	}
	for i := range scr.byShard {
		pend := scr.byShard[i]
		if len(pend) == 0 {
			continue
		}
		s := &c.shards[i]
		s.mu.Lock()
		s.migrate(w)
		b := s.buckets[w.epoch%uint64(len(s.buckets))]
		for _, pr := range pend {
			b[pr.prefix] += pr.bytes
		}
		s.mu.Unlock()
		scr.byShard[i] = pend[:0]
	}
	scr.staged = 0
}

// SendDatagram implements Sink: streaming-decode and ingest an encoded
// datagram, so a Collector can be wired directly as an Agent's sink
// in-process. The records are staged during the in-place walk and
// committed only if the whole datagram decodes, and nothing is heap
// allocated at steady state.
func (c *Collector) SendDatagram(b []byte) error {
	scr := c.getScratch()
	_, err := DecodeStream(b, nil, func(rec FlowRecord, rate uint32) {
		c.stage(scr, rec, rate)
	})
	if err != nil {
		scr.reset()
		c.putScratch(scr)
		return err
	}
	now := c.cfg.Now()
	c.datagrams.Add(1)
	c.lastIngest.Store(now.UnixNano())
	c.commit(scr, now)
	c.putScratch(scr)
	return nil
}

// windowSpan returns the elapsed portion of the window to average over:
// now minus the oldest live bucket's start, floored at one bucket span.
func (c *Collector) windowSpan(w *winEpoch, now time.Time) float64 {
	used := w.epoch
	if max := uint64(c.nbuckets - 1); used > max {
		used = max
	}
	oldest := w.base.Add(time.Duration(w.epoch-used) * c.bucketSpan)
	span := now.Sub(oldest)
	if span < c.bucketSpan {
		span = c.bucketSpan
	}
	return span.Seconds()
}

// RatesInto merges every shard's live buckets into dst (cleared first;
// allocated when nil) as estimated per-prefix egress rates in bits per
// second, averaged over the elapsed portion of the window, and returns
// dst. The per-cycle consumer passes the same map back each cycle to
// stay allocation-steady.
func (c *Collector) RatesInto(dst map[netip.Prefix]float64) map[netip.Prefix]float64 {
	now := c.cfg.Now()
	w := c.advance(now)
	if dst == nil {
		dst = make(map[netip.Prefix]float64)
	} else {
		clear(dst)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.migrate(w)
		for _, b := range s.buckets {
			for p, bytes := range b {
				dst[p] += bytes
			}
		}
		s.mu.Unlock()
	}
	secs := c.windowSpan(w, now)
	for p, bytes := range dst {
		dst[p] = bytes * 8 / secs
	}
	return dst
}

// Rates returns the estimated per-prefix egress rates in bits per
// second, averaged over the portion of the window that has elapsed. The
// caller owns the returned map.
func (c *Collector) Rates() map[netip.Prefix]float64 {
	return c.RatesInto(nil)
}

// Rate returns the estimated egress rate for one prefix in bits per
// second. A prefix lives entirely in one shard, so this reads a single
// shard's buckets instead of merging the full rate map.
func (c *Collector) Rate(p netip.Prefix) float64 {
	now := c.cfg.Now()
	w := c.advance(now)
	s := &c.shards[shardIndex(p, c.shardMask)]
	var bytes float64
	s.mu.Lock()
	s.migrate(w)
	for _, b := range s.buckets {
		bytes += b[p]
	}
	s.mu.Unlock()
	if bytes == 0 {
		return 0
	}
	return bytes * 8 / c.windowSpan(w, now)
}

// Stats reports ingested datagrams, malformed (undecodable) datagrams,
// and dropped (unmappable) records.
func (c *Collector) Stats() (datagrams, malformedDatagrams, droppedRecords uint64) {
	return c.datagrams.Load(), c.malformed.Load(), c.dropped.Load()
}

// LastIngest reports when the collector last ingested a datagram (the
// zero time if it never has). The controller's health tracker uses it
// to detect a stale traffic input.
func (c *Collector) LastIngest() time.Time {
	n := c.lastIngest.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// noteMalformed counts an undecodable datagram (called by transports).
func (c *Collector) noteMalformed() {
	c.malformed.Add(1)
}
