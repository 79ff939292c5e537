package edgefabric_bench

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"edgefabric/internal/altpath"
	"edgefabric/internal/api"
	"edgefabric/internal/bgp"
	"edgefabric/internal/core"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// Cycle hot-path micro-benchmarks: projection over a realistic table,
// the RIB's sorted-route read path, and a full steady-state controller
// cycle. These intentionally use only the stable public surface
// (core.Project, rib.Table, core.Controller) so the same file can be
// dropped onto an older checkout to produce before/after numbers.

// hotRoute builds an imported route; class and preference vary with the
// peer ordinal so every prefix has a mix of tiers to sort.
func hotRoute(prefix netip.Prefix, peerOrd, egressIF int) *rib.Route {
	r := &rib.Route{
		Prefix:    prefix,
		NextHop:   netip.AddrFrom4([4]byte{172, 20, byte(peerOrd >> 8), byte(peerOrd)}),
		PeerAddr:  netip.AddrFrom4([4]byte{172, 20, byte(peerOrd >> 8), byte(peerOrd)}),
		PeerAS:    uint32(65000 + peerOrd),
		PeerClass: rib.PeerClass(peerOrd%4) + rib.ClassPrivate,
		EgressIF:  egressIF,
		ASPath:    []uint32{uint32(65000 + peerOrd), 64512},
	}
	rib.DefaultPolicy().Import(r)
	return r
}

// hotTable fills a table with nPrefixes /24s, routesPer routes each,
// spread over nIFs egress interfaces, and returns it with a demand map
// covering every prefix.
func hotTable(nPrefixes, routesPer, nIFs int) (*rib.Table, map[netip.Prefix]float64) {
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		// Spill into successive /8s past 65536 prefixes so million-entry
		// tables stay valid /24s (matches the netsim address plan).
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(10 + i>>16), byte(i >> 8), byte(i), 0}), 24)
		for j := 0; j < routesPer; j++ {
			ord := (i + j) % (nIFs * 2)
			tab.Add(hotRoute(p, ord, ord%nIFs))
		}
		demand[p] = float64(100+i%900) * 1e6
	}
	return tab, demand
}

// BenchmarkProject50k measures one projection pass over 50k prefixes
// with 8 routes each — the per-cycle cost of turning demand plus the
// RIB into per-interface load and per-prefix plans.
func BenchmarkProject50k(b *testing.B) {
	tab, demand := hotTable(50_000, 8, 16)
	b.ReportAllocs()
	b.ResetTimer()
	var proj *core.Projection
	for i := 0; i < b.N; i++ {
		proj = core.Project(tab, demand)
	}
	if len(proj.Plans) != 50_000 {
		b.Fatalf("projection covered %d prefixes", len(proj.Plans))
	}
}

// BenchmarkProject1M measures the cold, full projection pass at
// Internet-table scale: one million /24s with three routes each. Table
// construction dominates wall time, so it is excluded from the timer;
// run this benchmark by name — the check.sh gate deliberately skips it.
func BenchmarkProject1M(b *testing.B) {
	tab, demand := hotTable(1_000_000, 3, 16)
	b.ReportAllocs()
	b.ResetTimer()
	var proj *core.Projection
	for i := 0; i < b.N; i++ {
		proj = core.Project(tab, demand)
	}
	if len(proj.Plans) != 1_000_000 {
		b.Fatalf("projection covered %d prefixes", len(proj.Plans))
	}
}

// BenchmarkProjectDelta1M measures the steady-state dirty cycle at the
// same scale: each iteration perturbs ~1% of the demand map past the
// tail tolerance and runs one delta projection, the per-cycle cost the
// controller pays between full sweeps.
func BenchmarkProjectDelta1M(b *testing.B) {
	const n = 1_000_000
	tab, demand := hotTable(n, 3, 16)
	prefixes := make([]netip.Prefix, 0, n)
	base := make([]float64, 0, n)
	for p, bps := range demand {
		prefixes = append(prefixes, p)
		base = append(base, bps)
	}
	pj := &core.Projector{
		HeavyK:         8192,
		TailEpsilon:    0.25,
		TailStride:     16,
		FullSweepEvery: -1,
	}
	if _, st := pj.ProjectDelta(tab, demand); !st.Full {
		b.Fatalf("first delta cycle should be a full build, got %+v", st)
	}
	const window = n / 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * window) % n
		for j := lo; j < lo+window; j++ {
			k := j % n
			f := 1.6
			if i%2 == 1 {
				f = 1.0 // back to baseline — still a >25% move
			}
			demand[prefixes[k]] = base[k] * f
		}
		_, st := pj.ProjectDelta(tab, demand)
		if st.Full {
			b.Fatalf("dirty cycle fell back to a full rebuild: %q", st.FullReason)
		}
	}
}

// BenchmarkProjectDeltaFlicker measures the demand-churn path of a delta
// cycle: a 20k-prefix live set over a 41k-prefix table in which, every
// cycle, a quarter of the live prefixes vanish and as many new ones
// appear — the long-tail flicker of an sFlow-fed controller. Each new
// prefix is snapshotted and planned, each vanished one unhooked from its
// interface bucket. Steady state allocates plan records by the chunk and
// little else; the ceiling fails the benchmark if a per-prefix
// allocation creeps in.
func BenchmarkProjectDeltaFlicker(b *testing.B) {
	const (
		flicker      = 10 * 512 // ten plan chunks a cycle, exactly
		live         = 4 * flicker
		universe     = 2 * live
		allocCeiling = 16
	)
	tab, all := hotTable(universe, 3, 16)
	// One demand map per window position, so the timed operation is the
	// projection alone; consecutive windows differ by `flicker` prefixes
	// at each end.
	windows := make([]map[netip.Prefix]float64, universe/flicker)
	for w := range windows {
		windows[w] = make(map[netip.Prefix]float64, live)
		for j := 0; j < live; j++ {
			i := (w*flicker + j) % universe
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(10 + i>>16), byte(i >> 8), byte(i), 0}), 24)
			windows[w][p] = all[p]
		}
	}
	pj := &core.Projector{FullSweepEvery: -1}
	cycle := 0
	op := func() {
		proj, st := pj.ProjectDelta(tab, windows[cycle%len(windows)])
		if cycle > 0 && (st.Full || st.Recomputed != flicker || st.Removed != flicker || len(proj.Plans) != live) {
			b.Fatalf("cycle %d: %+v, %d plans", cycle, st, len(proj.Plans))
		}
		cycle++
	}
	for cycle < 2*len(windows) { // every plan chunk and map past its first growth
		op()
	}
	if got := testing.AllocsPerRun(len(windows), op); got > allocCeiling {
		b.Fatalf("%.0f allocs per flicker cycle, ceiling %d", got, allocCeiling)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkTableRoutesSorted measures the preference-ordered route read
// for one prefix with 16 routes — the RIB read underlying every plan.
func BenchmarkTableRoutesSorted(b *testing.B) {
	tab, _ := hotTable(64, 16, 16)
	p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 7, 0}), 24)
	if got := len(tab.Routes(p)); got != 16 {
		b.Fatalf("seed prefix has %d routes", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routes := tab.Routes(p)
		if routes[0] == nil {
			b.Fatal("no best route")
		}
	}
}

// staticRates is a fixed-demand TrafficSource for controller benchmarks.
type staticRates map[netip.Prefix]float64

func (s staticRates) Rates() map[netip.Prefix]float64 { return s }

// steadyStateController builds a 5k-prefix controller in the common
// steady state where nothing is overloaded and cycles produce zero
// overrides.
func steadyStateController(b *testing.B, trace core.TraceConfig) *core.Controller {
	b.Helper()
	const nIFs = 16
	tab, demand := hotTable(5_000, 4, nIFs)

	var peers []core.PeerInfo
	var ifaces []core.InterfaceInfo
	for i := 0; i < nIFs*2; i++ {
		peers = append(peers, core.PeerInfo{
			Name:        fmt.Sprintf("peer-%d", i),
			Addr:        netip.AddrFrom4([4]byte{172, 20, byte(i >> 8), byte(i)}),
			AS:          uint32(65000 + i),
			Class:       rib.PeerClass(i%4) + rib.ClassPrivate,
			InterfaceID: i % nIFs,
			Router:      "pr1",
		})
	}
	for i := 0; i < nIFs; i++ {
		// Generous capacity: projected utilization stays far below the
		// allocator threshold, so cycles produce zero overrides.
		ifaces = append(ifaces, core.InterfaceInfo{
			ID: i, Name: fmt.Sprintf("if%d", i), CapacityBps: 1e12, Router: "pr1",
		})
	}
	inv, err := core.NewInventory(peers, ifaces)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.New(core.Config{
		Inventory: inv,
		Traffic:   staticRates(demand),
		Allocator: core.AllocatorConfig{Threshold: 0.95},
		Trace:     trace,
		LocalAS:   64512,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ctrl.Close)

	// The controller's store is fed by BMP in production; load it
	// directly here.
	for _, p := range tab.Prefixes() {
		for _, r := range tab.Routes(p) {
			ctrl.Store().Table().Add(r)
		}
	}
	if rep, err := ctrl.RunCycle(); err != nil {
		b.Fatal(err)
	} else if len(rep.Overrides) != 0 {
		b.Fatalf("steady-state scenario produced %d overrides", len(rep.Overrides))
	}
	return ctrl
}

// bench24 maps sampled destinations to their covering /24 — the same
// aggregation the controller's traffic source uses.
type bench24 struct{}

func (bench24) MapPrefix(a netip.Addr) netip.Prefix {
	p, err := a.Prefix(24)
	if err != nil {
		return netip.Prefix{}
	}
	return p
}

// benchDatagram builds one marshaled 16-record sFlow datagram spread
// over 16 distinct /24s.
func benchDatagram(b *testing.B) []byte {
	b.Helper()
	d := &sflow.Datagram{
		Agent:    netip.AddrFrom4([4]byte{10, 255, 1, 1}),
		Seq:      1,
		UptimeMS: 1000,
		Samples: []sflow.FlowSample{{
			Seq:          1,
			SamplingRate: 8192,
			SamplePool:   8192 * 16,
		}},
	}
	for i := 0; i < 16; i++ {
		d.Samples[0].Records = append(d.Samples[0].Records, sflow.FlowRecord{
			Dst:      netip.AddrFrom4([4]byte{10, 0, byte(i), 9}),
			FrameLen: uint32(600 + i*40),
			EgressIF: uint32(i % 4),
		})
	}
	raw, err := sflow.MarshalBytes(d)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkIngestDatagram measures the full wire-to-accumulator ingest
// path — streaming decode plus sharded accumulate — for one 16-record
// datagram. The path must stay at 0 allocs/op: any allocation here is
// multiplied by every sampled packet at every PoP. The clock is pinned
// so bucket rotation (amortized, not per-datagram) stays out of the
// per-op cost.
func BenchmarkIngestDatagram(b *testing.B) {
	raw := benchDatagram(b)
	t0 := time.Now()
	col := sflow.NewCollector(sflow.CollectorConfig{
		Mapper: bench24{},
		Now:    func() time.Time { return t0 },
	})
	// Warm the scratch pool and insert the map keys once; steady state
	// is updates to existing prefixes.
	if err := col.SendDatagram(raw); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := col.SendDatagram(raw); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dg, _, _ := col.Stats(); dg != uint64(b.N)+1 {
		b.Fatalf("ingested %d datagrams, want %d", dg, b.N+1)
	}
}

// BenchmarkDecodeStream measures the zero-alloc streaming decode alone:
// header, samples, and records visited in place, nothing retained.
func BenchmarkDecodeStream(b *testing.B) {
	raw := benchDatagram(b)
	var records int
	onSample := func(sflow.SampleHeader) {}
	onRecord := func(sflow.FlowRecord, uint32) { records++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sflow.DecodeStream(raw, onSample, onRecord); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if records != b.N*16 {
		b.Fatalf("visited %d records, want %d", records, b.N*16)
	}
}

// BenchmarkRunCycleSteadyState measures a full controller cycle —
// measure, project, allocate, sync — with decision tracing enabled (the
// default configuration).
func BenchmarkRunCycleSteadyState(b *testing.B) {
	ctrl := steadyStateController(b, core.TraceConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.RunCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCycleSteadyStateNoTrace is the same cycle with decision
// tracing disabled — the pair bounds the explain path's overhead.
func BenchmarkRunCycleSteadyStateNoTrace(b *testing.B) {
	ctrl := steadyStateController(b, core.TraceConfig{Disable: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.RunCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetBenchController builds the cheapest controller that still
// produces a real fleet digest: two peers on two interfaces, a handful
// of prefixes, one completed cycle.
func fleetBenchController(b *testing.B, ord int) *core.Controller {
	b.Helper()
	tab, demand := hotTable(16, 2, 2)
	peers := []core.PeerInfo{
		{Name: "pni", Addr: netip.AddrFrom4([4]byte{172, 21, byte(ord >> 8), byte(ord)}),
			AS: 65001, Class: rib.ClassPrivate, InterfaceID: 0, Router: "pr1"},
		{Name: "transit", Addr: netip.AddrFrom4([4]byte{172, 22, byte(ord >> 8), byte(ord)}),
			AS: 65002, Class: rib.ClassTransit, InterfaceID: 1, Router: "pr1"},
	}
	ifaces := []core.InterfaceInfo{
		{ID: 0, Name: "if0", CapacityBps: 1e10, Router: "pr1"},
		{ID: 1, Name: "if1", CapacityBps: 1e11, Router: "pr1"},
	}
	inv, err := core.NewInventory(peers, ifaces)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.New(core.Config{
		Inventory: inv,
		Traffic:   staticRates(demand),
		Allocator: core.AllocatorConfig{Threshold: 0.95},
		Trace:     core.TraceConfig{Disable: true},
		LocalAS:   64512,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ctrl.Close)
	for _, p := range tab.Prefixes() {
		for _, r := range tab.Routes(p) {
			ctrl.Store().Table().Add(r)
		}
	}
	if _, err := ctrl.RunCycle(); err != nil {
		b.Fatal(err)
	}
	return ctrl
}

// BenchmarkFleetRollup measures one GET /v1/fleet/summary over a
// 256-PoP server. The fleet endpoints serve from per-PoP digests
// cached inside their TTL, so the per-request cost must be dominated
// by encoding the first page — not by re-walking 256 controllers.
// This is the gate behind the "sublinear rollup" claim: if a change
// makes the handler touch every controller per request, the per-op
// time blows up by orders of magnitude and check.sh rejects it.
func BenchmarkFleetRollup(b *testing.B) {
	const nPoPs = 256
	srv := api.NewServer()
	for i := 0; i < nPoPs; i++ {
		if err := srv.AddPoP(fmt.Sprintf("edge-%03d", i+1), fleetBenchController(b, i)); err != nil {
			b.Fatal(err)
		}
	}
	h := srv.Handler()
	// Warm the digest cache once so the timed loop measures the
	// steady-state serving path.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/v1/fleet/summary", nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", warm.Code, warm.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/fleet/summary", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkMultipathAllocate measures the steady-state weighted
// multipath pass: 10k measured prefix reports (half with a ≥20 ms
// faster alternate) over a 50k-prefix projection, with the previous
// cycle's sets already installed so hysteresis re-affirmation — the
// cost the controller pays every cycle — dominates.
func BenchmarkMultipathAllocate(b *testing.B) {
	tab, demand := hotTable(50_000, 4, 16)
	proj := core.Project(tab, demand)
	// Uniform capacity at 1.5× the heaviest projected interface:
	// preferred load concentrates on the private-class ports, so a
	// per-port margin would leave the idle alternates with no headroom
	// worth weighting. Uniform ports keep every split two-way viable
	// while the congestion trigger stays quiet.
	var maxLoad float64
	for _, bps := range proj.IfLoadBps {
		maxLoad = math.Max(maxLoad, bps)
	}
	ifs := make([]core.InterfaceInfo, 0, 16)
	for id := 0; id < 16; id++ {
		ifs = append(ifs, core.InterfaceInfo{
			ID: id, Name: fmt.Sprintf("if%d", id), Router: "r1",
			CapacityBps: maxLoad*1.5 + 1e9,
		})
	}
	inv, err := core.NewInventory(nil, ifs)
	if err != nil {
		b.Fatal(err)
	}
	alloc := core.AllocatorConfig{Threshold: 0.95}
	prior := core.AllocateStickyTraced(proj, inv, alloc, nil, nil)

	reports := make([]*altpath.PrefixReport, 0, 10_000)
	for p := range proj.Plans {
		if len(reports) >= 10_000 {
			break
		}
		routes := tab.Routes(p)
		if len(routes) < 2 || routes[0].EgressIF == routes[1].EgressIF {
			continue
		}
		gap := 5.0
		if len(reports)%2 == 0 {
			gap = 30
		}
		rep := &altpath.PrefixReport{
			Prefix: p,
			Paths: []altpath.PathStat{
				{Route: routes[0], Primary: true, P50: 60, P90: 80, N: 64},
				{Route: routes[1], P50: 60 - gap, P90: 80 - gap, N: 64, RetransFrac: 0.01},
			},
			GapMS: gap,
		}
		rep.BestAlt = &rep.Paths[1]
		reports = append(reports, rep)
	}
	// MultipathAllocate orders reports in place; every pass starts from
	// the same arrival (map) order, as a fresh Reports() would give it.
	arrival := append([]*altpath.PrefixReport(nil), reports...)
	var cfg core.MultipathConfig
	prev := core.MultipathPrior(core.MultipathAllocateTraced(proj, inv, reports, prior, nil, alloc, cfg, nil))
	if len(prev) == 0 {
		b.Fatal("warmup installed no multipath sets")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var out []core.Override
	for i := 0; i < b.N; i++ {
		copy(reports, arrival)
		out = core.MultipathAllocateTraced(proj, inv, reports, prior, prev, alloc, cfg, nil)
	}
	if len(out) == 0 {
		b.Fatal("steady-state pass produced no overrides")
	}
}

// stubRouter is the router end of an injection session: it answers
// the injector's OPEN with its own, then reads nothing until drain, so
// the injector's writes land in the pipe in the same pattern every op.
type stubRouter struct {
	conn net.Conn
	buf  []byte
}

func newStubRouter(b *testing.B, conn net.Conn) *stubRouter {
	b.Helper()
	r := &stubRouter{conn: conn, buf: make([]byte, bgp.MaxMessageLen)}
	// An hour's hold time keeps keepalives out of the measured ops.
	for _, m := range []bgp.Message{bgp.NewOpen(64512, 3600, netip.MustParseAddr("10.255.0.1")), &bgp.Keepalive{}} {
		raw, err := bgp.MarshalBytes(m, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			b.Fatal(err)
		}
	}
	for _, want := range []bgp.MessageType{bgp.TypeOpen, bgp.TypeKeepalive} {
		m, err := bgp.ReadMessage(conn, r.buf, nil)
		if err != nil || m.MsgType() != want {
			b.Fatalf("handshake: got %v (%v), want %v", m, err, want)
		}
	}
	return r
}

// drain reads UPDATEs until they have carried n prefixes, announced or
// withdrawn.
func (r *stubRouter) drain(b *testing.B, n int) {
	for n > 0 {
		m, err := bgp.ReadMessage(r.conn, r.buf, nil)
		if err != nil {
			b.Fatal(err)
		}
		u, ok := m.(*bgp.Update)
		if !ok {
			continue
		}
		n -= len(u.Withdrawn) + len(u.NLRI)
		if u.Attrs.MPReach != nil {
			n -= len(u.Attrs.MPReach.NLRI)
		}
		if u.Attrs.MPUnreach != nil {
			n -= len(u.Attrs.MPUnreach.Withdrawn)
		}
	}
}

// BenchmarkInjectorSyncChurn measures the injector's steady-state Sync
// over one iBGP session: 1 000 overrides, four in five of them 2- or
// 3-member weighted sets, with a quarter of the sets re-weighted per op
// (a withdrawal plus one UPDATE-able unit per member each). The stub
// router reads each op's UPDATEs with the timer stopped, so allocs/op
// is the injector's own: its diff, batching and encoding, and the pipe
// buffer its writes grow.
func BenchmarkInjectorSyncChurn(b *testing.B) {
	const nOverrides = 1000
	inj, err := core.NewInjector(core.InjectorConfig{
		LocalAS: 64512, RouterID: netip.MustParseAddr("10.255.0.100"), HoldTime: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inj.Close)
	routerEnd, injEnd := netsim.BufferedPipe()
	if err := inj.AddRouter(netip.MustParseAddr("10.255.0.1"), injEnd); err != nil {
		b.Fatal(err)
	}
	router := newStubRouter(b, routerEnd)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inj.WaitEstablished(ctx); err != nil {
		b.Fatal(err)
	}

	vias := make([]*rib.Route, 8)
	for i := range vias {
		vias[i] = hotRoute(netip.Prefix{}, i, i)
	}
	// Each set has two weightings to flip between; both are built up
	// front so the ops allocate nothing on the caller's side.
	desired := make([]core.Override, nOverrides)
	var weightings [][2][]core.PathWeight // per set: current, other
	var sets []int                        // indexes of the weighted sets
	for i := range desired {
		o := &desired[i]
		o.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		o.Via = vias[i%len(vias)]
		o.ToIF = o.Via.EgressIF
		if i%5 == 0 {
			continue
		}
		pcts := [2][]int{{60, 40}, {55, 45}}
		if i%2 == 1 {
			pcts = [2][]int{{45, 35, 20}, {50, 30, 20}}
		}
		var w [2][]core.PathWeight
		for v := range w {
			for m, pct := range pcts[v] {
				w[v] = append(w[v], core.PathWeight{Via: vias[(i+m)%len(vias)], ToIF: (i + m) % len(vias), WeightPct: pct})
			}
		}
		o.Multipath = w[0]
		weightings = append(weightings, w)
		sets = append(sets, i)
	}
	wantEntries := func(quarter int) int {
		n := 0
		for j := quarter; j < len(sets); j += 4 {
			n += 1 + len(desired[sets[j]].Multipath) // withdrawal + members
		}
		return n
	}
	// One op re-weights every fourth set, starting at op mod 4.
	reweight := func(op int) {
		for j := op % 4; j < len(sets); j += 4 {
			w := &weightings[j]
			w[0], w[1] = w[1], w[0]
			desired[sets[j]].Multipath = w[0]
		}
	}
	units := 0
	for _, o := range desired {
		units += max(1, len(o.Multipath))
	}
	if res, err := inj.Sync(desired); err != nil || res.Announced != nOverrides {
		b.Fatalf("initial sync: %+v, %v", res, err)
	}
	router.drain(b, units)
	// One round of re-weights settles the injector's scratch at the
	// size a quarter's churn needs.
	for i := 0; i < 4; i++ {
		reweight(i)
		if _, err := inj.Sync(desired); err != nil {
			b.Fatal(err)
		}
		router.drain(b, wantEntries(i))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reweight(i)
		res, err := inj.Sync(desired)
		b.StopTimer()
		if err != nil || res.Announced != res.Withdrawn || res.Announced != (len(sets)+3-i%4)/4 {
			b.Fatalf("op %d: %+v, %v", i, res, err)
		}
		router.drain(b, wantEntries(i%4))
		b.StartTimer()
	}
}

// flatSource is an altpath path model: RTT and loss by egress port.
type flatSource struct{}

func (flatSource) RTTForRoute(_ netip.Prefix, r *rib.Route) float64 {
	return 20 + 7*float64(r.EgressIF)
}

func (flatSource) LossForRoute(_ netip.Prefix, r *rib.Route) float64 {
	return 0.002 * float64(r.EgressIF%4)
}

// BenchmarkMeasureRoundReports measures the optimizer's measurement
// stage at the paper-scale PoP's shape: 4 000 prefixes with 3–4 organic
// routes each (≈14 000 windows, all full), one MeasureRound plus one
// Reports per op. The round builds the reports into arenas it reuses and
// Reports borrows them, so a steady-state op allocates nothing: no
// per-round closure, no `go` on a method with arguments (each builds a
// heap closure), no per-window or per-prefix allocation. The ceiling
// below fails the benchmark if any creeps back in; AllocsPerRun runs
// the op at GOMAXPROCS 1, and -cpu 2 shows the worker path.
func BenchmarkMeasureRoundReports(b *testing.B) {
	const allocCeiling = 0
	tab := rib.NewTable(rib.DefaultPolicy())
	prefixes := make([]netip.Prefix, 4000)
	for i := range prefixes {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		prefixes[i] = p
		for j := 0; j < 3+i%2; j++ {
			ord := (i + j) % 32
			tab.Add(hotRoute(p, ord, ord%16))
		}
	}
	m, err := altpath.NewMeasurer(altpath.Config{Routes: tab, Source: flatSource{}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var reports []*altpath.PrefixReport
	op := func() {
		m.MeasureRound(prefixes)
		reports = m.Reports()
	}
	for round := 0; round < 64/4; round++ { // fill every 64-sample window
		op()
	}
	if len(reports) != len(prefixes) || reports[0].Paths[0].N != 64 {
		b.Fatalf("warmup: %d reports, primary N=%d", len(reports), reports[0].Paths[0].N)
	}
	if got := testing.AllocsPerRun(3, op); got > allocCeiling {
		b.Fatalf("%.0f allocs per MeasureRound+Reports, ceiling %d", got, allocCeiling)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
