package altpath

import (
	"fmt"
	"math"
	"net/netip"
	"sync"
	"testing"

	"edgefabric/internal/rib"
)

// shapeSource is a path model computed from the prefix and route
// identity alone (safe for concurrent use): RTT and loss by peer and
// next hop, shifted per prefix so prefixes differ.
type shapeSource struct{}

func (shapeSource) RTTForRoute(p netip.Prefix, r *rib.Route) float64 {
	a := p.Addr().As4()
	return 15 + 7*float64(r.PeerAddr.As4()[3]) + float64(r.NextHop.As4()[3]%5) + float64(a[2]%29)
}

func (shapeSource) LossForRoute(p netip.Prefix, r *rib.Route) float64 {
	if r.PeerAddr.As4()[3]%3 != 0 {
		return 0
	}
	return 0.001 * float64(p.Addr().As4()[2]%7)
}

var shapePeers = []struct {
	addr  netip.Addr
	class rib.PeerClass
	pref  uint32
}{
	{netip.MustParseAddr("172.20.0.1"), rib.ClassPrivate, 400},
	{netip.MustParseAddr("172.20.0.2"), rib.ClassPublic, 300},
	{netip.MustParseAddr("172.20.0.3"), rib.ClassPublic, 250},
	{netip.MustParseAddr("172.20.0.8"), rib.ClassTransit, 200},
	{netip.MustParseAddr("172.20.0.9"), rib.ClassTransit, 190},
}

// shapeTable builds n prefixes with 2–5 routes each.
func shapeTable(n int) (*rib.Table, []netip.Prefix) {
	tab := rib.NewTable(rib.DefaultPolicy())
	ps := make([]netip.Prefix, n)
	for i := range ps {
		ps[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		for k := 0; k < 2+i%4; k++ {
			addShapeRoute(tab, ps[i], k, shapePeers[k].pref, shapePeers[k].addr)
		}
	}
	return tab, ps
}

func addShapeRoute(tab *rib.Table, p netip.Prefix, peer int, pref uint32, nh netip.Addr) {
	pr := shapePeers[peer]
	tab.Add(&rib.Route{
		Prefix: p, NextHop: nh, PeerAddr: pr.addr, PeerClass: pr.class,
		ASPath: []uint32{65010}, EgressIF: peer, LocalPref: pref,
	})
}

// sameBits compares two reports field by field, floats by bit pattern.
func sameBits(a, b *PrefixReport) error {
	if err := sameReport(a, b); err != nil {
		return err
	}
	for i := range a.Paths {
		x, y := &a.Paths[i], &b.Paths[i]
		for _, f := range [][2]float64{{x.P50, y.P50}, {x.P90, y.P90}, {x.RetransFrac, y.RetransFrac}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return fmt.Errorf("path %d: %v vs %v", i, f[0], f[1])
			}
		}
	}
	return nil
}

// retransAt reads a window's retransmit sample in slot s; a window that
// holds no ring has seen no loss, so every slot reads zero.
func retransAt(w *window, s int) float64 {
	if w.retrans == nil {
		return 0
	}
	return w.retrans[s]
}

// tallyErr checks a measurer's window counts against a walk of its
// window sets.
func tallyErr(m *Measurer) error {
	var windows, rings int
	for _, pw := range m.byPrefix {
		for i := range pw.paths {
			windows++
			if pw.paths[i].retrans != nil {
				rings++
			}
		}
	}
	if gw, gr := m.Windows(); gw != windows || gr != rings {
		return fmt.Errorf("Windows() = %d, %d; the window sets hold %d, %d", gw, gr, windows, rings)
	}
	return nil
}

// sameWindows compares two measurers' window state, and each one's
// window counts with its window sets.
func sameWindows(a, b *Measurer) error {
	for _, m := range []*Measurer{a, b} {
		if err := tallyErr(m); err != nil {
			return err
		}
	}
	if len(a.byPrefix) != len(b.byPrefix) {
		return fmt.Errorf("%d vs %d prefixes", len(a.byPrefix), len(b.byPrefix))
	}
	for p, pa := range a.byPrefix {
		pb := b.byPrefix[p]
		if pb == nil || len(pa.paths) != len(pb.paths) || pa.gen != pb.gen || pa.last != pb.last {
			return fmt.Errorf("%v: window sets differ", p)
		}
		for i := range pa.paths {
			x, y := &pa.paths[i], &pb.paths[i]
			if x.route != y.route || x.primary != y.primary || x.next != y.next || x.lossy != y.lossy ||
				string(x.order) != string(y.order) || len(x.samples) != len(y.samples) {
				return fmt.Errorf("%v path %d: window state differs", p, i)
			}
			for s := range x.samples {
				if math.Float64bits(x.samples[s]) != math.Float64bits(y.samples[s]) ||
					math.Float64bits(retransAt(x, s)) != math.Float64bits(retransAt(y, s)) {
					return fmt.Errorf("%v path %d sample %d differs", p, i, s)
				}
			}
		}
	}
	return nil
}

// A round on four workers gives every window the samples one worker
// gives it, and the same reports in the same order, through route churn
// between rounds (withdrawals, a primary flip, a next-hop change, a
// controller injection, a prefix dropping below two routes and coming
// back, new prefixes).
func TestMeasureRoundWorkerCountInvariant(t *testing.T) {
	tab, ps := shapeTable(4 * minChunk)
	cfg := Config{Routes: tab, Source: shapeSource{}, Seed: 9, WindowSamples: 16}
	one, err := NewMeasurer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	four, _ := NewMeasurer(cfg)
	round := func(when string, ps []netip.Prefix) {
		t.Helper()
		n1, n4 := one.measureRound(ps, 1), four.measureRound(ps, 4)
		if n1 != n4 {
			t.Fatalf("%s: %d vs %d pairs measured", when, n1, n4)
		}
		r1, r4 := one.Reports(), four.Reports()
		if len(r1) != len(r4) {
			t.Fatalf("%s: %d vs %d reports", when, len(r1), len(r4))
		}
		for i := range r1 {
			if err := sameBits(r1[i], r4[i]); err != nil {
				t.Fatalf("%s: report %d (%v): %v", when, i, r1[i].Prefix, err)
			}
		}
		if err := sameWindows(one, four); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for i := 0; i < 3; i++ {
		round(fmt.Sprintf("steady %d", i), ps)
	}
	if len(four.workers) != 4 {
		t.Fatalf("%d workers ran, want 4", len(four.workers))
	}
	for i := 0; i < len(ps); i += 97 {
		switch i % 5 {
		case 0:
			tab.Remove(ps[i], shapePeers[1].addr)
		case 1:
			addShapeRoute(tab, ps[i], 0, 100, shapePeers[0].addr) // primary drops back
		case 2:
			addShapeRoute(tab, ps[i], 1, shapePeers[1].pref, netip.MustParseAddr("172.20.0.77"))
		case 3:
			tab.Add(&rib.Route{
				Prefix: ps[i], NextHop: shapePeers[3].addr, PeerAddr: netip.MustParseAddr("10.255.0.100"),
				PeerClass: rib.ClassController, FromIBGP: true, LocalPref: rib.PrefController,
			})
		case 4:
			for k := 1; k < len(shapePeers); k++ {
				tab.Remove(ps[i], shapePeers[k].addr)
			}
		}
	}
	extra, more := shapeTable(len(ps) + 300)
	extra.EachRoutes(func(p netip.Prefix, routes []*rib.Route) {
		if p.Addr().As4()[1] >= byte(len(ps)>>8) {
			for _, r := range routes {
				tab.Add(r)
			}
		}
	})
	for i := 0; i < 3; i++ {
		round(fmt.Sprintf("after churn %d", i), more)
	}
	round("half the prefixes", more[:len(more)/2])
}

// Writers keep changing the table while a round runs on several
// workers: the round reads only its snapshot (run with -race).
func TestMeasureRoundBesideTableWrites(t *testing.T) {
	tab, ps := shapeTable(2 * minChunk)
	m, err := NewMeasurer(Config{Routes: tab, Source: shapeSource{}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := ps[i%len(ps)]
			if i%2 == 0 {
				addShapeRoute(tab, p, 4, 100, netip.MustParseAddr("172.20.0.99"))
			} else {
				tab.Remove(p, shapePeers[4].addr)
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if m.measureRound(ps, 2) == 0 {
			t.Error("round measured nothing")
		}
		for _, rep := range m.Reports() {
			if len(rep.Paths) == 0 || !rep.Paths[0].Primary {
				t.Fatalf("%v: report without a primary", rep.Prefix)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A prefix gone unmeasured for WindowSamples/SamplesPerRound rounds
// loses its windows: when it returns it is judged on fresh samples only,
// and until then it has no report.
func TestMeasurerAgesOutUnmeasuredPrefixes(t *testing.T) {
	tab, src := mkTable(t, 2, nil)
	m, err := NewMeasurer(Config{Routes: tab, Source: src, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	gone, stays := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	for i := 0; i < 3; i++ {
		m.MeasureRound([]netip.Prefix{gone, stays})
	}
	for i := 0; i < 15; i++ { // one round short of a full window's worth
		m.MeasureRound([]netip.Prefix{stays})
	}
	if rep := m.Report(gone); rep == nil || rep.Paths[0].N != 3*4 {
		t.Fatalf("after 15 unmeasured rounds: report %+v, want the 12 samples kept", rep)
	}
	m.MeasureRound([]netip.Prefix{stays})
	if rep := m.Report(gone); rep != nil {
		t.Errorf("after 16 unmeasured rounds: report %+v, want none", rep)
	}
	m.MeasureRound([]netip.Prefix{gone, stays})
	if rep := m.Report(gone); rep == nil || rep.Paths[0].N != 4 {
		t.Errorf("returned prefix report %+v, want SamplesPerRound fresh samples", rep)
	}
	for i := 0; i < 32; i++ {
		m.MeasureRound([]netip.Prefix{stays})
	}
	if _, ok := m.byPrefix[gone]; ok {
		t.Error("windows of a prefix unmeasured for 32 rounds are still held")
	}
	if err := tallyErr(m); err != nil {
		t.Error(err)
	}
}

// A prefix's samples are keyed by the prefix, not by where it sits in
// the round: measuring a subset alone, in reverse order, gives its
// prefixes bit-identical windows to measuring every prefix in order.
func TestMeasureRoundSubsetAndOrderInvariant(t *testing.T) {
	tab, ps := shapeTable(2 * minChunk)
	cfg := Config{Routes: tab, Source: shapeSource{}, Seed: 12, WindowSamples: 16}
	all, err := NewMeasurer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	some, _ := NewMeasurer(cfg)
	var subset []netip.Prefix
	for i := len(ps) - 1; i >= 0; i -= 3 {
		subset = append(subset, ps[i])
	}
	for round := 0; round < 6; round++ {
		all.measureRound(ps, 2)
		some.measureRound(subset, 1)
		if n := len(some.Reports()); n != len(subset) {
			t.Fatalf("round %d: %d subset reports, want %d", round, n, len(subset))
		}
		for _, p := range subset {
			a, b := all.Report(p), some.Report(p)
			if a == nil || b == nil {
				t.Fatalf("round %d: %v unreported", round, p)
			}
			if err := sameBits(a, b); err != nil {
				t.Fatalf("round %d: %v: %v", round, p, err)
			}
		}
	}
}

// normalPair's deviates have a standard normal's mean, variance and
// one-σ mass.
func TestNormalPairMoments(t *testing.T) {
	const n = 1 << 17
	var sum, sq float64
	within := 0
	for i := range n / 2 {
		for _, z := range normalPair(mix64(uint64(i))) {
			sum += z
			sq += z * z
			if math.Abs(z) < 1 {
				within++
			}
		}
	}
	mean, variance := sum/n, sq/n-(sum/n)*(sum/n)
	if math.Abs(mean) > 0.01 || math.Abs(variance-1) > 0.02 || math.Abs(float64(within)/n-0.6827) > 0.005 {
		t.Errorf("mean %.4f, variance %.4f, P(|z|<1) %.4f; want 0, 1, 0.6827", mean, variance, float64(within)/n)
	}
}
