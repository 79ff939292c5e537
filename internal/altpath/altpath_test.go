package altpath

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"testing"

	"edgefabric/internal/rib"
)

// modelSource returns fixed RTTs per (prefix, peer) and no loss.
type modelSource map[string]float64

func (s modelSource) RTTForRoute(p netip.Prefix, r *rib.Route) float64 {
	return s[p.String()+"|"+r.PeerAddr.String()]
}

func (modelSource) LossForRoute(netip.Prefix, *rib.Route) float64 { return 0 }

func mkTable(t *testing.T, n int, altFaster map[int]float64) (*rib.Table, modelSource) {
	t.Helper()
	tab := rib.NewTable(rib.DefaultPolicy())
	src := modelSource{}
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("10.0.%d.0/24", i)
		p := netip.MustParsePrefix(prefix)
		private := &rib.Route{
			Prefix:    p,
			NextHop:   netip.MustParseAddr("172.20.0.1"),
			PeerAddr:  netip.MustParseAddr("172.20.0.1"),
			PeerClass: rib.ClassPrivate,
			ASPath:    []uint32{65010},
			EgressIF:  0,
		}
		transit := &rib.Route{
			Prefix:    p,
			NextHop:   netip.MustParseAddr("172.20.0.9"),
			PeerAddr:  netip.MustParseAddr("172.20.0.9"),
			PeerClass: rib.ClassTransit,
			ASPath:    []uint32{64601, 65010},
			EgressIF:  3,
		}
		rib.DefaultPolicy().Import(private)
		rib.DefaultPolicy().Import(transit)
		tab.Add(private)
		tab.Add(transit)
		// Default: primary 20ms, transit 40ms. Overridden per altFaster.
		src[prefix+"|172.20.0.1"] = 20
		src[prefix+"|172.20.0.9"] = 40
		if gain, ok := altFaster[i]; ok {
			src[prefix+"|172.20.0.1"] = 20 + gain
			src[prefix+"|172.20.0.9"] = 20
		}
	}
	return tab, src
}

func prefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))
	}
	return out
}

func TestMeasurerDetectsFasterAlternate(t *testing.T) {
	tab, src := mkTable(t, 10, map[int]float64{3: 30}) // prefix 3: transit 30ms faster
	m, err := NewMeasurer(Config{Routes: tab, Source: src, Seed: 1, NoiseMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		m.MeasureRound(prefixes(10))
	}
	rep := m.Report(netip.MustParsePrefix("10.0.3.0/24"))
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.GapMS < 20 {
		t.Errorf("gap = %.1f ms, want ~30", rep.GapMS)
	}
	if rep.BestAlt == nil || rep.BestAlt.Route.PeerClass != rib.ClassTransit {
		t.Errorf("best alt = %+v", rep.BestAlt)
	}
	// A normal prefix: primary wins, gap negative.
	rep0 := m.Report(netip.MustParsePrefix("10.0.0.0/24"))
	if rep0 == nil || rep0.GapMS > 0 {
		t.Errorf("normal prefix gap = %+v", rep0)
	}
}

func TestMeasurerGapCDF(t *testing.T) {
	// 100 prefixes, 10 with a 25ms-faster alternate.
	faster := map[int]float64{}
	for i := 0; i < 10; i++ {
		faster[i*10] = 25
	}
	tab, src := mkTable(t, 100, faster)
	m, err := NewMeasurer(Config{Routes: tab, Source: src, Seed: 2, NoiseMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		m.MeasureRound(prefixes(100))
	}
	cdf := m.GapCDF(20, 100)
	if got := cdf[20]; math.Abs(got-0.10) > 0.03 {
		t.Errorf("fraction ≥20ms = %.3f, want ~0.10", got)
	}
	if got := cdf[100]; got != 0 {
		t.Errorf("fraction ≥100ms = %.3f, want 0", got)
	}
	if got := len(m.Reports()); got != 100 {
		t.Errorf("reports = %d", got)
	}
}

func TestMeasurerSkipsSingleRoutePrefixes(t *testing.T) {
	tab := rib.NewTable(rib.DefaultPolicy())
	p := netip.MustParsePrefix("10.0.0.0/24")
	only := &rib.Route{
		Prefix: p, NextHop: netip.MustParseAddr("172.20.0.1"),
		PeerAddr: netip.MustParseAddr("172.20.0.1"), PeerClass: rib.ClassPrivate,
		ASPath: []uint32{65010},
	}
	rib.DefaultPolicy().Import(only)
	tab.Add(only)
	m, _ := NewMeasurer(Config{Routes: tab, Source: modelSource{}, Seed: 3})
	if got := m.MeasureRound([]netip.Prefix{p}); got != 0 {
		t.Errorf("measured %d paths for a single-route prefix", got)
	}
	if m.Report(p) != nil {
		t.Error("report should be nil")
	}
}

func TestMeasurerIgnoresControllerRoutes(t *testing.T) {
	tab, src := mkTable(t, 1, nil)
	p := netip.MustParsePrefix("10.0.0.0/24")
	tab.Add(&rib.Route{
		Prefix:    p,
		NextHop:   netip.MustParseAddr("172.20.0.9"),
		PeerAddr:  netip.MustParseAddr("10.255.0.100"),
		PeerClass: rib.ClassController,
		FromIBGP:  true,
		LocalPref: rib.PrefController,
	})
	m, _ := NewMeasurer(Config{Routes: tab, Source: src, Seed: 4, NoiseMS: 0.5})
	m.MeasureRound([]netip.Prefix{p})
	rep := m.Report(p)
	if rep == nil {
		t.Fatal("no report")
	}
	// Primary must be the organic private route, not the injection.
	if rep.Paths[0].Route.PeerClass != rib.ClassPrivate {
		t.Errorf("primary = %v", rep.Paths[0].Route.PeerClass)
	}
	for _, ps := range rep.Paths {
		if ps.Route.PeerClass == rib.ClassController {
			t.Error("controller route was measured")
		}
	}
}

func TestMeasurerWindowBounded(t *testing.T) {
	tab, src := mkTable(t, 1, nil)
	m, _ := NewMeasurer(Config{
		Routes: tab, Source: src, Seed: 5,
		WindowSamples: 8, SamplesPerRound: 4,
	})
	for i := 0; i < 10; i++ {
		m.MeasureRound(prefixes(1))
	}
	rep := m.Report(netip.MustParsePrefix("10.0.0.0/24"))
	for _, ps := range rep.Paths {
		if ps.N > 8 {
			t.Errorf("window grew to %d", ps.N)
		}
	}
}

func TestMeasurerConfigValidation(t *testing.T) {
	if _, err := NewMeasurer(Config{}); err == nil {
		t.Error("missing Routes/Source should fail")
	}
}

// lossModelSource extends modelSource with per-(prefix, peer) loss.
type lossModelSource struct {
	modelSource
	loss map[string]float64
}

func (s lossModelSource) LossForRoute(p netip.Prefix, r *rib.Route) float64 {
	return s.loss[p.String()+"|"+r.PeerAddr.String()]
}

// Regression: a withdrawn route's window must be pruned, or Report can
// surface a BestAlt the controller can no longer steer onto.
func TestMeasurerPrunesWithdrawnRoutes(t *testing.T) {
	tab, src := mkTable(t, 1, map[int]float64{0: 30}) // transit 30ms faster
	p := netip.MustParsePrefix("10.0.0.0/24")
	m, _ := NewMeasurer(Config{Routes: tab, Source: src, Seed: 6, NoiseMS: 0.5})
	for i := 0; i < 6; i++ {
		m.MeasureRound([]netip.Prefix{p})
	}
	rep := m.Report(p)
	if rep == nil || rep.BestAlt == nil || rep.BestAlt.Route.PeerClass != rib.ClassTransit {
		t.Fatalf("setup: want transit BestAlt, got %+v", rep)
	}

	// Withdraw the transit route. Add a second private route so the
	// prefix keeps >= 2 organic paths and stays measurable.
	tab.Remove(p, netip.MustParseAddr("172.20.0.9"))
	private2 := &rib.Route{
		Prefix: p, NextHop: netip.MustParseAddr("172.20.0.5"),
		PeerAddr: netip.MustParseAddr("172.20.0.5"), PeerClass: rib.ClassPrivate,
		ASPath: []uint32{65011, 65010}, EgressIF: 1,
	}
	rib.DefaultPolicy().Import(private2)
	tab.Add(private2)
	src[p.String()+"|172.20.0.5"] = 60

	m.MeasureRound([]netip.Prefix{p})
	rep = m.Report(p)
	if rep == nil {
		t.Fatal("no report after withdraw")
	}
	for _, ps := range rep.Paths {
		if ps.Route.PeerAddr == netip.MustParseAddr("172.20.0.9") {
			t.Error("withdrawn transit route still present in report")
		}
	}
	if rep.BestAlt != nil && rep.BestAlt.Route.PeerAddr == netip.MustParseAddr("172.20.0.9") {
		t.Error("BestAlt points at a withdrawn route")
	}

	// Prefix dropping below two organic routes drops all its windows.
	tab.Remove(p, netip.MustParseAddr("172.20.0.5"))
	m.MeasureRound([]netip.Prefix{p})
	if m.Report(p) != nil {
		t.Error("report survives with a single remaining route")
	}
}

// Regression: when the preferred route flips, the old primary's window
// must lose its primary flag even when the new route ordering leaves it
// past the measured limit — otherwise reportLocked sorts a stale
// "primary" first and the report compares against the wrong baseline.
func TestMeasurerClearsStalePrimaryOnFlip(t *testing.T) {
	tab := rib.NewTable(rib.DefaultPolicy())
	p := netip.MustParsePrefix("10.0.0.0/24")
	src := modelSource{}
	// Three routes with MaxAltPaths=1 so only two are measured per
	// round; the third keeps a window only from before the flip.
	mk := func(addr string, class rib.PeerClass, pref uint32, ifidx int) *rib.Route {
		r := &rib.Route{
			Prefix: p, NextHop: netip.MustParseAddr(addr),
			PeerAddr: netip.MustParseAddr(addr), PeerClass: class,
			ASPath: []uint32{65010}, EgressIF: ifidx, LocalPref: pref,
		}
		tab.Add(r)
		return r
	}
	mk("172.20.0.1", rib.ClassPrivate, 400, 0)
	mk("172.20.0.2", rib.ClassPublic, 300, 1)
	mk("172.20.0.9", rib.ClassTransit, 200, 3)
	src[p.String()+"|172.20.0.1"] = 20
	src[p.String()+"|172.20.0.2"] = 30
	src[p.String()+"|172.20.0.9"] = 40

	m, _ := NewMeasurer(Config{Routes: tab, Source: src, Seed: 7, NoiseMS: 0.5, MaxAltPaths: 1})
	for i := 0; i < 4; i++ {
		m.MeasureRound([]netip.Prefix{p})
	}
	rep := m.Report(p)
	if rep == nil || rep.Paths[0].Route.PeerAddr != netip.MustParseAddr("172.20.0.1") {
		t.Fatalf("setup: want 172.20.0.1 primary, got %+v", rep)
	}

	// Flip preference: old primary drops below both others, so after the
	// flip it sits past the measured limit with (pre-fix) a stale
	// primary flag.
	tab.Add(&rib.Route{
		Prefix: p, NextHop: netip.MustParseAddr("172.20.0.1"),
		PeerAddr: netip.MustParseAddr("172.20.0.1"), PeerClass: rib.ClassPrivate,
		ASPath: []uint32{65010}, EgressIF: 0, LocalPref: 100,
	})
	m.MeasureRound([]netip.Prefix{p})
	rep = m.Report(p)
	if rep == nil {
		t.Fatal("no report after flip")
	}
	if got := rep.Paths[0].Route.PeerAddr; got != netip.MustParseAddr("172.20.0.2") {
		t.Errorf("primary after flip = %v, want 172.20.0.2", got)
	}
	nPrimary := 0
	for _, ps := range rep.Paths {
		if ps.Primary {
			nPrimary++
		}
	}
	if nPrimary != 1 {
		t.Errorf("%d windows flagged primary, want exactly 1", nPrimary)
	}
}

// Regression: GapCDF must divide by prefixes with a measured alternate,
// not all reports — a primary-only report (alternate routes exist but
// have produced no samples yet) must not dilute the fractions.
func TestMeasurerGapCDFDenominator(t *testing.T) {
	tab, src := mkTable(t, 4, map[int]float64{0: 25, 1: 25}) // 2 of 4 with 25ms-faster alt
	m, _ := NewMeasurer(Config{Routes: tab, Source: src, Seed: 8, NoiseMS: 0.5})
	for i := 0; i < 6; i++ {
		m.MeasureRound(prefixes(4))
	}
	// Fabricate a primary-only report for a fifth prefix: a window set
	// where only the primary has samples (its alternates were measured
	// zero times, e.g. the prefix just became multipath-visible).
	p5 := netip.MustParsePrefix("10.0.9.0/24")
	routes := tab.Routes(prefixes(1)[0])
	only := window{route: routes[0], primary: true}
	only.add(20, 0, 64)
	only.add(20, 0, 64)
	m.mu.Lock()
	m.byPrefix[p5] = &prefixWindows{paths: []window{only, {route: routes[1]}}}
	m.mu.Unlock()
	if rep := m.Report(p5); rep == nil || rep.BestAlt != nil {
		t.Fatalf("setup: want primary-only report, got %+v", rep)
	}
	cdf := m.GapCDF(20)
	// Denominator must be 4 (prefixes with a measured alternate), not 5.
	if got := cdf[20]; math.Abs(got-0.50) > 0.01 {
		t.Errorf("fraction >=20ms = %.3f, want 0.50 (denominator excludes BestAlt==nil)", got)
	}
}

func TestMeasurerRetransStats(t *testing.T) {
	tab, base := mkTable(t, 1, nil)
	p := netip.MustParsePrefix("10.0.0.0/24")
	src := lossModelSource{modelSource: base, loss: map[string]float64{
		p.String() + "|172.20.0.9": 0.08,
	}}
	m, _ := NewMeasurer(Config{Routes: tab, Source: src, Seed: 9, NoiseMS: 0.5})
	for i := 0; i < 4; i++ {
		m.MeasureRound([]netip.Prefix{p})
	}
	rep := m.Report(p)
	if rep == nil {
		t.Fatal("no report")
	}
	for _, ps := range rep.Paths {
		switch ps.Route.PeerAddr {
		case netip.MustParseAddr("172.20.0.1"):
			if ps.RetransFrac != 0 {
				t.Errorf("clean path RetransFrac = %.3f, want 0", ps.RetransFrac)
			}
		case netip.MustParseAddr("172.20.0.9"):
			if math.Abs(ps.RetransFrac-0.08) > 1e-9 {
				t.Errorf("lossy path RetransFrac = %.3f, want 0.08", ps.RetransFrac)
			}
		}
	}

	// A plain RTTSource still works, with zero retrans stats.
	m2, _ := NewMeasurer(Config{Routes: tab, Source: base, Seed: 10})
	m2.MeasureRound([]netip.Prefix{p})
	for _, ps := range m2.Report(p).Paths {
		if ps.RetransFrac != 0 {
			t.Errorf("RTT-only source produced RetransFrac %.3f", ps.RetransFrac)
		}
	}
}

// A route identity change (same peer, new next hop / egress interface)
// must reset the window rather than blend histories across paths.
func TestMeasurerResetsWindowOnRouteIdentityChange(t *testing.T) {
	tab, src := mkTable(t, 1, nil)
	p := netip.MustParsePrefix("10.0.0.0/24")
	m, _ := NewMeasurer(Config{Routes: tab, Source: src, Seed: 11, NoiseMS: 0.5})
	for i := 0; i < 8; i++ {
		m.MeasureRound([]netip.Prefix{p})
	}
	// Re-announce the transit route with a different egress interface
	// and a much slower RTT.
	replacement := &rib.Route{
		Prefix: p, NextHop: netip.MustParseAddr("172.20.0.9"),
		PeerAddr: netip.MustParseAddr("172.20.0.9"), PeerClass: rib.ClassTransit,
		ASPath: []uint32{64601, 65010}, EgressIF: 4,
	}
	rib.DefaultPolicy().Import(replacement)
	tab.Add(replacement)
	src[p.String()+"|172.20.0.9"] = 200
	m.MeasureRound([]netip.Prefix{p})
	rep := m.Report(p)
	for _, ps := range rep.Paths {
		if ps.Route.PeerAddr == netip.MustParseAddr("172.20.0.9") {
			// Fresh window: one round of samples at the new RTT, no
			// 40ms history dragging the percentile down.
			if ps.P50 < 150 {
				t.Errorf("transit P50 = %.1f after identity change, want ~200 (window not reset)", ps.P50)
			}
			if ps.N > 4 {
				t.Errorf("transit window N = %d after identity change, want fresh window", ps.N)
			}
		}
	}
}

// flatSource measures every path alike: a fixed RTT, and a fixed loss.
type flatSource struct{ loss float64 }

func (flatSource) RTTForRoute(netip.Prefix, *rib.Route) float64    { return 30 }
func (s flatSource) LossForRoute(netip.Prefix, *rib.Route) float64 { return s.loss }

// The bytes a measurer keeps per measured window once every window is
// full, with the round's arenas and per-prefix state shared out: a
// clean window holds its sample and order rings and no retransmit ring,
// a lossy one all three.
func TestMeasurerBytesPerWindow(t *testing.T) {
	const (
		n     = 4000 // prefixes, four measured routes each
		paths = 4
	)
	for _, tc := range []struct {
		name    string
		loss    float64
		ceiling float64 // bytes per window
	}{
		{"clean", 0, 900},     // ≈ 810 B; ≈ 1 320 B when every window held a retransmit ring
		{"lossy", 0.01, 1400}, // ≈ 1 320 B
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := rib.NewTable(rib.DefaultPolicy())
			ps := make([]netip.Prefix, n)
			for i := range ps {
				ps[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
				for k := range paths {
					addShapeRoute(tab, ps[i], k, shapePeers[k].pref, shapePeers[k].addr)
				}
			}
			heapLive := func() uint64 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heapLive()
			m, err := NewMeasurer(Config{Routes: tab, Source: flatSource{tc.loss}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for range 2 * m.cfg.WindowSamples / m.cfg.SamplesPerRound {
				m.measureRound(ps, 1)
			}
			perWindow := float64(heapLive()-before) / (n * paths)
			runtime.KeepAlive(m)
			runtime.KeepAlive(tab)
			if windows, _ := m.Windows(); windows != n*paths {
				t.Fatalf("%d windows, want %d", windows, n*paths)
			}
			t.Logf("measurer keeps %.0f B per %s window", perWindow, tc.name)
			if perWindow > tc.ceiling {
				t.Fatalf("measurer keeps %.0f B per %s window, ceiling %.0f", perWindow, tc.name, tc.ceiling)
			}
		})
	}
}
