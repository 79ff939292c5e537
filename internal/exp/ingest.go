package exp

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// E15: ingest saturation. PR 6 took the decision path to a million
// prefixes; this experiment measures the telemetry path feeding it.
// Four arms:
//
//  1. in-process sFlow throughput, single PoP: packets/sec through the
//     streaming-decode + sharded-accumulate pipeline;
//  2. the same through the fleet Demux (header-peek routing);
//  3. UDP saturation: offered rate vs. decoded/dropped over real
//     sockets and the multi-reader serve loop;
//  4. BMP dump absorption: table-snapshot cycle latency while a full
//     dump replays through the batched OnRoute path, vs. idle baseline.

// IngestConfig parameterizes E15.
type IngestConfig struct {
	// Packets per in-process throughput trial. Default 300,000.
	Packets int
	// Prefixes is the destination /24 spread — how many distinct
	// prefixes the sliding window ends up tracking. Default 131072,
	// the order of what a PoP-scale controller watches.
	Prefixes int
	// UDPRates is the offered-rate ladder in packets/sec. Default
	// {2k, 5k, 10k, 20k, 30k, 40k, 80k, 120k, 160k, 200k, 240k}.
	UDPRates []int
	// UDPSeconds is the send time per ladder point. Default 2.0.
	UDPSeconds float64
	// Seed drives the synthesized scenario. Default 1.
	Seed int64
}

// E15's fixed shape.
const (
	// ingestRecords is the records per datagram (flow samples batch
	// records the way real exporters do).
	ingestRecords = 16
	// ingestWorkers is the concurrent ingest fan-in: sender goroutines
	// for the in-process arms, and the socket/reader pool width for the
	// UDP arm. Socket fan-out is I/O concurrency, not CPU parallelism:
	// SO_REUSEPORT spreads kernel buffering across the pool even on a
	// single-core host, so burst deficits during a consumer read are
	// split across the pool instead of overflowing one socket.
	ingestWorkers = 8
	// ingestUDPBufBytes is the kernel receive buffer of each UDP socket:
	// 1 MiB, generous against Linux's ~208 KiB default and subject to
	// the host's rmem_max cap. A buffer absorbs one-off burst deficits
	// but not sustained starvation, so it does not mask read-side
	// stalls.
	ingestUDPBufBytes = 1 << 20
	// ingestDumpRate paces the dump replay in routes/sec — a deliberate
	// pace so that on a single-core host the arm measures lock
	// behavior, not raw CPU sharing.
	ingestDumpRate = 200_000
	// ingestDumpCycles is the number of snapshot cycles measured per
	// dump arm phase: p95 over fewer cycles is too noisy to gate on.
	ingestDumpCycles = 60
)

func (c *IngestConfig) setDefaults() {
	if c.Packets == 0 {
		c.Packets = 300_000
	}
	if c.Prefixes == 0 {
		c.Prefixes = 131072
	}
	if len(c.UDPRates) == 0 {
		c.UDPRates = []int{2_000, 5_000, 10_000, 20_000, 30_000, 40_000, 80_000, 120_000, 160_000, 200_000, 240_000}
	}
	if c.UDPSeconds == 0 {
		c.UDPSeconds = 2.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// UDPPoint is one offered-rate measurement.
type UDPPoint struct {
	OfferedPPS int
	Sent       uint64
	Decoded    uint64
	Malformed  uint64
	Dropped    uint64
}

// IngestResult is the E15 report.
type IngestResult struct {
	// In-process throughput, packets/sec (records/sec = pps *
	// ingestRecords).
	ShardedPPS float64

	// Fleet demux throughput.
	ShardedDemuxPPS float64

	// UDP saturation ladder of the multi-reader pipeline under a live
	// rates consumer.
	NewUDP         []UDPPoint
	MaxZeroDropPPS int

	// Dump absorption.
	DumpRoutes       int
	ReplayedRoutes   int
	BaseP50, BaseP95 time.Duration
	DumpP50, DumpP95 time.Duration
	InflationX       float64
}

// mapper24 maps sampled destinations to their /24 — the cheapest
// realistic stand-in for the route-table LPM.
type mapper24 struct{}

func (mapper24) MapPrefix(a netip.Addr) netip.Prefix {
	p, _ := a.Prefix(24)
	return p
}

// ingestPackets builds the pre-encoded datagram working set: agents
// round-robin (for the demux arm), destinations spread across the
// prefix space, frame lengths varied.
func ingestPackets(cfg *IngestConfig, agents []netip.Addr) [][]byte {
	// Enough distinct datagrams that every prefix in the spread shows
	// up in the window.
	nDistinct := (cfg.Prefixes + ingestRecords - 1) / ingestRecords
	if nDistinct < 256 {
		nDistinct = 256
	}
	pkts := make([][]byte, 0, nDistinct)
	for i := 0; i < nDistinct; i++ {
		recs := make([]sflow.FlowRecord, ingestRecords)
		for j := range recs {
			pi := (i*ingestRecords + j) % cfg.Prefixes
			recs[j] = sflow.FlowRecord{
				Dst:      netip.AddrFrom4([4]byte{10, byte(pi >> 8 % 256), byte(pi % 256), byte(1 + j%250)}),
				FrameLen: uint32(64 + (i*37+j*131)%1400),
				EgressIF: uint32(j % 8),
			}
		}
		d := &sflow.Datagram{
			Agent: agents[i%len(agents)],
			Seq:   uint32(i),
			Samples: []sflow.FlowSample{{
				Seq:          uint32(i),
				SamplingRate: 8192,
				SamplePool:   ingestRecords * 8192,
				Records:      recs,
			}},
		}
		b, err := sflow.MarshalBytes(d)
		if err != nil {
			panic(err) // static input; cannot fail
		}
		pkts = append(pkts, b)
	}
	return pkts
}

// warmClock is a wall clock with a settable forward offset, letting a
// fresh collector be walked through a full window of history before
// live traffic starts. Freezing it pins ingest time for the
// measurement window so no bucket rotation lands mid-measurement.
type warmClock struct {
	offset atomic.Int64
	frozen atomic.Int64 // unix nanos; 0 means live
}

func (w *warmClock) Now() time.Time {
	if f := w.frozen.Load(); f != 0 {
		return time.Unix(0, f)
	}
	return time.Now().Add(time.Duration(w.offset.Load()))
}

func (w *warmClock) Freeze() { w.frozen.Store(w.Now().UnixNano()) }

// prefill walks sink through a full sliding window of the packet set —
// one batch per bucket span, advancing the clock between batches — so
// measurements start from the steady state of a collector that has
// been ingesting for at least one window: every bucket populated,
// every prefix in the spread tracked (a cold collector's reads are
// near-empty and flatter any consumer running beside ingest).
func prefill(sink sflow.Sink, wc *warmClock, pkts [][]byte) {
	const spans = 6
	span := time.Minute / spans
	for e := 0; e < spans; e++ {
		wc.offset.Add(int64(span))
		for _, p := range pkts {
			_ = sink.SendDatagram(p)
		}
	}
}

// measureThroughput pushes total packets through sink from workers
// goroutines and reports packets/sec.
func measureThroughput(sink sflow.Sink, pkts [][]byte, total, workers int) float64 {
	var wg sync.WaitGroup
	per := total / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := sink.SendDatagram(pkts[(w*per+i)%len(pkts)]); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(per*workers) / time.Since(start).Seconds()
}

// offerUDP paces rate packets/sec at raddr for cfg.UDPSeconds from a
// pool of sender sockets and returns how many sends succeeded.
func offerUDP(cfg *IngestConfig, pkts [][]byte, rate int, raddr string) uint64 {
	var sent atomic.Uint64
	var swg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(cfg.UDPSeconds * float64(time.Second)))
	// Several sender flows per listener socket, so the kernel's flow
	// hash spreads load across the SO_REUSEPORT pool without one
	// socket drawing an outsized share.
	senders := ingestWorkers * 4
	for w := 0; w < senders; w++ {
		swg.Add(1)
		go func(w int) {
			defer swg.Done()
			// One source socket per sender: distinct 4-tuples let
			// SO_REUSEPORT spread flows across the listener pool.
			conn, err := net.Dial("udp", raddr)
			if err != nil {
				return
			}
			defer conn.Close()
			uc := conn.(*net.UDPConn)
			perWorker := rate / senders
			if perWorker < 1 {
				perWorker = 1
			}
			burst := perWorker / 500 // ~2ms bursts
			if burst < 1 {
				burst = 1
			}
			interval := time.Duration(float64(burst) / float64(perWorker) * float64(time.Second))
			next := time.Now()
			batch := make([][]byte, 0, burst)
			i := w
			for time.Now().Before(deadline) {
				batch = batch[:0]
				for b := 0; b < burst; b++ {
					batch = append(batch, pkts[i%len(pkts)])
					i++
				}
				// Batched sends keep the harness's own syscall cost from
				// capping the offered rate.
				if n, _ := sflow.WriteBatch(uc, batch); n > 0 {
					sent.Add(uint64(n))
				}
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
		}(w)
	}
	swg.Wait()
	return sent.Load()
}

// Consumer cadences of the UDP arm: a controller cycle reads the full
// demand map every 2 s; explain/dashboard point queries arrive at 8 Hz
// — a dashboard refreshing a handful of prefixes once a second, or a
// couple of operators poking explain endpoints during an incident.
const (
	cyclePollEvery   = 2 * time.Second
	explainPollEvery = 125 * time.Millisecond
)

// startPoller calls poll every period until the returned stop is called;
// stop returns once the poller has exited.
func startPoller(every time.Duration, poll func()) (stop func()) {
	done := make(chan struct{})
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return func() { close(done); pwg.Wait() }
}

// udpLadderPoint measures one offered rate against a freshly started,
// prefilled multi-reader pipeline under the live consumer load a
// production collector serves: full rate-map reads at the cycle cadence
// plus point-rate queries, which the sharded collector answers from one
// shard's buckets.
func udpLadderPoint(cfg *IngestConfig, pkts [][]byte, rate int) (UDPPoint, error) {
	conns, err := sflow.ListenUDP("127.0.0.1:0", ingestWorkers)
	if err != nil {
		return UDPPoint{}, err
	}
	for _, c := range conns {
		if uc, ok := c.(*net.UDPConn); ok {
			_ = uc.SetReadBuffer(ingestUDPBufBytes)
		}
	}
	wc := &warmClock{}
	col := sflow.NewCollector(sflow.CollectorConfig{Mapper: mapper24{}, Readers: ingestWorkers, Now: wc.Now})
	prefill(col, wc, pkts)
	wc.Freeze()
	baseD, baseM, _ := col.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		_ = col.ServeUDPConns(ctx, conns)
		close(served)
	}()
	var buf map[netip.Prefix]float64
	stopCycle := startPoller(cyclePollEvery, func() { buf = col.RatesInto(buf) })
	// The point-rate query target: any prefix inside the spread.
	explainPfx := netip.MustParsePrefix("10.0.5.0/24")
	stopExplain := startPoller(explainPollEvery, func() { _ = col.Rate(explainPfx) })
	defer func() { stopCycle(); stopExplain(); cancel(); <-served }()
	counts := func() (uint64, uint64) {
		d, m, _ := col.Stats()
		return d - baseD, m - baseM
	}

	// Collect the prefill garbage and settle before offering load, so
	// a GC cycle owed to setup doesn't land inside the measurement.
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	sent := offerUDP(cfg, pkts, rate, conns[0].LocalAddr().String())
	// Drain: wait until the decoded count stops moving.
	var last uint64
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		d, _ := counts()
		if d == last && i > 2 {
			break
		}
		last = d
	}
	decoded, malformed := counts()
	pt := UDPPoint{OfferedPPS: rate, Sent: sent, Decoded: decoded, Malformed: malformed}
	if got := decoded + malformed; sent > got {
		pt.Dropped = sent - got
	}
	return pt, nil
}

// runUDPArm offers the paced ladder, one fresh server per rung.
func runUDPArm(cfg *IngestConfig, pkts [][]byte, res *IngestResult) error {
	// Damp GC cadence during the ladder: on a small host a mid-window
	// GC assist stalls whichever reader happens to be running and
	// flips marginal rungs run-to-run.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	for _, rate := range cfg.UDPRates {
		pt, err := udpLadderPoint(cfg, pkts, rate)
		if err != nil {
			return err
		}
		res.NewUDP = append(res.NewUDP, pt)
		if pt.Dropped == 0 && rate > res.MaxZeroDropPPS {
			res.MaxZeroDropPPS = rate
		}
	}
	return nil
}

// runDumpArm measures the control cycle's table read path — a full
// SnapshotRoutesInto plus a ChangedSince poll, the collect work a cycle
// does per prefix — idle and then while a complete BMP dump replays
// through the batched OnRoute path at a paced rate. The table holds
// tablePrefixes prefixes.
func runDumpArm(cfg *IngestConfig, tablePrefixes int, res *IngestResult) error {
	// Same GC damping as the UDP arm: idle and dump phases are both
	// measured under it, so the inflation ratio is unaffected.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: cfg.Seed, Prefixes: tablePrefixes})
	if err != nil {
		return err
	}
	inv, err := InventoryFromTopology(sc.Topo)
	if err != nil {
		return err
	}
	store := core.NewRouteStore(inv)

	// All replay messages are built once up front: OnRoute copies what
	// it keeps, so the messages are reusable across replays, and the
	// replay loop itself then allocates nothing — the only allocation
	// during a measured dump is the store's own, which is the system
	// cost under test rather than harness garbage feeding the GC.
	var msgs []*bmp.RouteMonitoring
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		for j := range p.Announces {
			ann := &p.Announces[j]
			msgs = append(msgs, &bmp.RouteMonitoring{
				Peer: bmp.PeerHeader{PeerAddr: p.Addr, PeerAS: p.AS},
				Update: &bgp.Update{
					Attrs: bgp.PathAttrs{
						HasOrigin: true,
						ASPath:    bgp.Sequence(ann.Path...),
						NextHop:   p.Addr,
						MED:       ann.MED,
						HasMED:    ann.MED != 0,
					},
					NLRI: []netip.Prefix{ann.Prefix},
				},
			})
		}
	}
	replayOnce := func(paced bool, stopAt func() bool) int {
		n := 0
		// Small chunks keep each paced burst's CPU time well under a
		// snapshot cycle, so a cycle that lands mid-replay overlaps a
		// sliver of dump work instead of absorbing a whole burst.
		chunk := 1024
		chunkDur := time.Duration(float64(chunk) / ingestDumpRate * float64(time.Second))
		next := time.Now().Add(chunkDur)
		for _, m := range msgs {
			store.OnRoute("pr", m)
			n++
			if n%chunk == 0 {
				if stopAt != nil && stopAt() {
					store.FlushRoutes()
					return n
				}
				if paced {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(chunkDur)
				}
			}
		}
		store.FlushRoutes()
		return n
	}

	// Initial table load (the converged pre-reconnect state), untimed.
	replayOnce(false, nil)
	res.DumpRoutes = store.Table().RouteCount()

	tab := store.Table()
	prefixes := tab.Prefixes()
	var views []rib.RouteView
	var changedBuf []netip.Prefix
	since := tab.Version()
	cycle := func() time.Duration {
		t0 := time.Now()
		views = tab.SnapshotRoutesInto(prefixes, views)
		var ok bool
		changedBuf, since, ok = tab.ChangedSince(since, changedBuf)
		_ = ok // overflow during a dump is expected: consumers full-scan
		return time.Since(t0)
	}
	measure := func() (p50, p95 time.Duration) {
		ds := make([]time.Duration, 0, ingestDumpCycles)
		for i := 0; i < ingestDumpCycles; i++ {
			ds = append(ds, cycle())
			time.Sleep(5 * time.Millisecond)
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2], ds[len(ds)*95/100]
	}

	res.BaseP50, res.BaseP95 = measure()

	// Dump arm: replay loops at the paced rate for the whole
	// measurement window.
	var stop atomic.Bool
	var replayed atomic.Int64
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for !stop.Load() {
			replayed.Add(int64(replayOnce(true, func() bool { return stop.Load() })))
		}
	}()
	// Let the replay actually start before sampling.
	time.Sleep(20 * time.Millisecond)
	res.DumpP50, res.DumpP95 = measure()
	stop.Store(true)
	rwg.Wait()
	res.ReplayedRoutes = int(replayed.Load())
	if res.BaseP95 > 0 {
		res.InflationX = float64(res.DumpP95) / float64(res.BaseP95)
	}
	return nil
}

// E15IngestSaturation runs the ingest experiment; dumpPrefixes sizes the
// BMP dump arm's table.
func E15IngestSaturation(cfg IngestConfig, dumpPrefixes int) (*IngestResult, error) {
	cfg.setDefaults()
	res := &IngestResult{}

	agents := []netip.Addr{
		netip.MustParseAddr("10.255.1.1"),
		netip.MustParseAddr("10.255.2.1"),
		netip.MustParseAddr("10.255.3.1"),
		netip.MustParseAddr("10.255.4.1"),
	}
	pkts := ingestPackets(&cfg, agents)

	// Arm 1: in-process throughput, single PoP, from steady state.
	wc1 := &warmClock{}
	col := sflow.NewCollector(sflow.CollectorConfig{Mapper: mapper24{}, Now: wc1.Now})
	prefill(col, wc1, pkts)
	res.ShardedPPS = measureThroughput(col, pkts, cfg.Packets, ingestWorkers)
	runtime.GC()

	// Arm 2: fleet demux (4 registered PoPs).
	wc2 := &warmClock{}
	dm := sflow.NewDemux()
	for _, a := range agents {
		dm.Register(a, sflow.NewCollector(sflow.CollectorConfig{Mapper: mapper24{}, Now: wc2.Now}))
	}
	prefill(dm, wc2, pkts)
	res.ShardedDemuxPPS = measureThroughput(dm, pkts, cfg.Packets, ingestWorkers)
	runtime.GC()

	// Arm 3: UDP saturation.
	if err := runUDPArm(&cfg, pkts, res); err != nil {
		return nil, err
	}

	// Arm 4: dump absorption.
	if err := runDumpArm(&cfg, dumpPrefixes, res); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the EXPERIMENTS.md rows.
func (r *IngestResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15 ingest saturation (%d workers, %d records/datagram)\n", ingestWorkers, ingestRecords)
	fmt.Fprintf(&b, "  %-34s %12s %14s\n", "arm", "pkts/s", "records/s")
	row := func(name string, pps float64) {
		fmt.Fprintf(&b, "  %-34s %12.0f %14.0f\n", name, pps, pps*ingestRecords)
	}
	row("sharded zero-alloc pipeline", r.ShardedPPS)
	row("sharded fleet demux (header peek)", r.ShardedDemuxPPS)
	if len(r.NewUDP) > 0 {
		fmt.Fprintf(&b, "  UDP saturation, sharded multi-reader (0.5 Hz cycle + 8 Hz explain consumers):\n")
		fmt.Fprintf(&b, "    %10s %10s %10s %10s %10s\n", "offered", "sent", "decoded", "malformed", "dropped")
		for _, p := range r.NewUDP {
			fmt.Fprintf(&b, "    %10d %10d %10d %10d %10d\n", p.OfferedPPS, p.Sent, p.Decoded, p.Malformed, p.Dropped)
		}
		fmt.Fprintf(&b, "    max zero-drop offered rate: %d pps\n", r.MaxZeroDropPPS)
	}
	fmt.Fprintf(&b, "  BMP dump absorption (%d routes, paced %d routes/s, %d replayed during window):\n",
		r.DumpRoutes, ingestDumpRate, r.ReplayedRoutes)
	fmt.Fprintf(&b, "    snapshot cycle p50/p95 idle: %s / %s\n",
		r.BaseP50.Round(time.Microsecond), r.BaseP95.Round(time.Microsecond))
	fmt.Fprintf(&b, "    snapshot cycle p50/p95 dump: %s / %s  (p95 inflation %.2fx)\n",
		r.DumpP50.Round(time.Microsecond), r.DumpP95.Round(time.Microsecond), r.InflationX)
	return b.String()
}
