package netsim

import (
	"hash/fnv"
	"math"
	"net/netip"
	"testing"
	"time"

	"edgefabric/internal/rib"
)

func smallSynth(t *testing.T) *Scenario {
	t.Helper()
	sc, err := Synthesize(SynthConfig{
		Seed:               7,
		Prefixes:           300,
		EdgeASes:           40,
		PrivatePeers:       4,
		PublicPeers:        8,
		RouteServerMembers: 10,
		Transits:           2,
		Routers:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := smallSynth(t)
	b := smallSynth(t)
	if len(a.Prefixes) != len(b.Prefixes) {
		t.Fatalf("prefix counts differ: %d vs %d", len(a.Prefixes), len(b.Prefixes))
	}
	for i := range a.Prefixes {
		if a.Prefixes[i].Prefix != b.Prefixes[i].Prefix ||
			a.Prefixes[i].Weight != b.Prefixes[i].Weight {
			t.Fatalf("prefix %d differs", i)
		}
	}
	if len(a.Topo.Peers) != len(b.Topo.Peers) {
		t.Fatal("peer counts differ")
	}
}

func TestSynthesizeStructure(t *testing.T) {
	sc := smallSynth(t)
	if got := len(sc.Prefixes); got != 300 {
		t.Errorf("prefixes = %d, want 300", got)
	}
	var nPriv, nPub, nRS, nTransit int
	for i := range sc.Topo.Peers {
		switch sc.Topo.Peers[i].Class {
		case rib.ClassPrivate:
			nPriv++
		case rib.ClassPublic:
			nPub++
		case rib.ClassRouteServer:
			nRS++
		case rib.ClassTransit:
			nTransit++
		}
	}
	if nPriv != 4 || nPub != 8 || nTransit != 2 {
		t.Errorf("peers = %d private, %d public, %d transit", nPriv, nPub, nTransit)
	}
	if nRS != 2 { // one route-server session per router
		t.Errorf("route servers = %d, want 2", nRS)
	}
	// Weights normalized.
	var sum float64
	for _, p := range sc.Prefixes {
		sum += p.Weight
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("weights sum to %f", sum)
	}
	// Private peers are the heaviest ASes.
	var privW, otherW float64
	for _, as := range sc.ASes {
		if as.Class == rib.ClassPrivate {
			privW += as.Weight
		} else {
			otherW += as.Weight
		}
	}
	if privW < otherW*0.5 {
		t.Errorf("private peers carry too little: %.3f vs %.3f", privW, otherW)
	}
	// Transits announce everything.
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		if p.Class == rib.ClassTransit && len(p.Announces) != len(sc.Prefixes) {
			t.Errorf("transit %s announces %d prefixes, want %d", p.Name, len(p.Announces), len(sc.Prefixes))
		}
	}
}

func TestSynthesizeV6Share(t *testing.T) {
	sc := smallSynth(t)
	v6 := 0
	for _, p := range sc.Prefixes {
		if p.Prefix.Addr().Is6() {
			v6++
		}
	}
	frac := float64(v6) / float64(len(sc.Prefixes))
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("v6 fraction = %.2f, want ~0.2", frac)
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	bad := []Topology{
		{Name: "no-as"},
		{Name: "no-router", LocalAS: 1},
		{Name: "dup-router", LocalAS: 1, Routers: []Router{
			{Name: "r", RouterID: netip.MustParseAddr("1.1.1.1")},
			{Name: "r", RouterID: netip.MustParseAddr("1.1.1.2")},
		}},
		{Name: "bad-if-router", LocalAS: 1,
			Routers:    []Router{{Name: "r", RouterID: netip.MustParseAddr("1.1.1.1")}},
			Interfaces: []Interface{{ID: 0, Router: "nope", CapacityBps: 1}}},
		{Name: "bad-capacity", LocalAS: 1,
			Routers:    []Router{{Name: "r", RouterID: netip.MustParseAddr("1.1.1.1")}},
			Interfaces: []Interface{{ID: 0, Router: "r", CapacityBps: 0}}},
		{Name: "bad-peer-if", LocalAS: 1,
			Routers: []Router{{Name: "r", RouterID: netip.MustParseAddr("1.1.1.1")}},
			Peers: []Peer{{Name: "p", AS: 2, Addr: netip.MustParseAddr("172.20.0.1"),
				InterfaceID: 9, Router: "r"}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("topology %q should fail validation", bad[i].Name)
		}
	}
}

func TestClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewClock(start)
	if !c.Now().Equal(start) {
		t.Error("Now != start")
	}
	c.Advance(30 * time.Second)
	if got := c.Now().Sub(start); got != 30*time.Second {
		t.Errorf("advanced %v", got)
	}
}

func TestDemandDiurnal(t *testing.T) {
	sc := smallSynth(t)
	m, err := sc.NewDemand(DemandConfig{PeakBps: 100e9, PeakHourUTC: 20})
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	peak := m.Diurnal(day.Add(20 * time.Hour))
	trough := m.Diurnal(day.Add(8 * time.Hour))
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("peak multiplier = %f", peak)
	}
	if math.Abs(trough-0.5) > 1e-9 {
		t.Errorf("trough multiplier = %f", trough)
	}
	// Total demand at peak ≈ PeakBps (noise has mean 1; tolerance wide).
	tot := m.Total(day.Add(20 * time.Hour))
	if tot < 80e9 || tot > 120e9 {
		t.Errorf("total at peak = %.2g", tot)
	}
}

func TestDemandFlash(t *testing.T) {
	sc := smallSynth(t)
	var target *PrefixInfo
	for _, p := range sc.Prefixes {
		target = p
		break
	}
	start := time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC)
	m, err := sc.NewDemand(DemandConfig{
		PeakBps:    100e9,
		NoiseSigma: -1, // sentinel ignored; set below
	})
	if err != nil {
		t.Fatal(err)
	}
	m.AddMod(DemandMod{
		AS: target.OriginAS, Start: start, End: start.Add(time.Hour), Multiplier: 5,
	})
	before := m.Rate(target, start.Add(-time.Minute))
	during := m.Rate(target, start.Add(time.Minute))
	after := m.Rate(target, start.Add(2*time.Hour))
	if during < before*3 {
		t.Errorf("flash rate %.3g not >> base %.3g", during, before)
	}
	if after > before*2 {
		t.Errorf("rate after flash %.3g vs before %.3g", after, before)
	}
}

func TestDemandNoiseDeterministic(t *testing.T) {
	sc := smallSynth(t)
	m, _ := sc.NewDemand(DemandConfig{})
	at := time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)
	p := sc.Prefixes[0]
	if m.Rate(p, at) != m.Rate(p, at) {
		t.Error("Rate must be deterministic")
	}
}

func TestDemandRejectsBadWeights(t *testing.T) {
	_, err := NewDemandModel(DemandConfig{}, []*PrefixInfo{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Weight: 0.2},
	})
	if err == nil {
		t.Error("weights not summing to 1 should fail")
	}
	_, err = NewDemandModel(DemandConfig{}, nil)
	if err == nil {
		t.Error("empty prefixes should fail")
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.1)
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Fatal("weights must be non-increasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %f", sum)
	}
	if w[0] < 10*w[99] {
		t.Error("distribution should be heavy-tailed")
	}
}

func TestPathPerfModel(t *testing.T) {
	pp := NewPathPerf(PathPerfConfig{Seed: 3})
	sc := smallSynth(t)
	priv := &sc.Topo.Peers[0]
	var transit *Peer
	for i := range sc.Topo.Peers {
		if sc.Topo.Peers[i].Class == rib.ClassTransit {
			transit = &sc.Topo.Peers[i]
			break
		}
	}
	if priv.Class != rib.ClassPrivate || transit == nil {
		t.Fatal("unexpected synth peer order")
	}
	// Determinism.
	p := sc.Prefixes[0].Prefix
	if pp.BaseRTT(p, priv, uint8(rib.ClassPrivate)) != pp.BaseRTT(p, priv, uint8(rib.ClassPrivate)) {
		t.Error("BaseRTT must be deterministic")
	}
	// On non-anomalous prefixes, private beats transit most of the time.
	var privWins, total int
	var anomalies int
	for _, pi := range sc.Prefixes {
		if pp.Anomalous(pi.Prefix) {
			anomalies++
			continue
		}
		total++
		if pp.BaseRTT(pi.Prefix, priv, uint8(rib.ClassPrivate)) <
			pp.BaseRTT(pi.Prefix, transit, uint8(rib.ClassPrivate)) {
			privWins++
		}
	}
	if float64(privWins)/float64(total) < 0.7 {
		t.Errorf("private wins only %d/%d of clean prefixes", privWins, total)
	}
	// Anomaly rate near the configured 6%.
	frac := float64(anomalies) / float64(len(sc.Prefixes))
	if frac < 0.01 || frac > 0.15 {
		t.Errorf("anomaly rate = %.3f", frac)
	}
	// On anomalous prefixes, transit beats the impaired private path.
	for _, pi := range sc.Prefixes {
		if !pp.Anomalous(pi.Prefix) {
			continue
		}
		privRTT := pp.BaseRTT(pi.Prefix, priv, uint8(rib.ClassPrivate))
		transitRTT := pp.BaseRTT(pi.Prefix, transit, uint8(rib.ClassPrivate))
		if transitRTT >= privRTT {
			t.Logf("anomalous %s: transit %.1f >= private %.1f (allowed occasionally)",
				pi.Prefix, transitRTT, privRTT)
		}
	}
}

func TestCongestionModel(t *testing.T) {
	if CongestionDelay(0.5) != 0 {
		t.Error("no delay below the knee")
	}
	if d := CongestionDelay(0.9); d <= 0 || d >= 50 {
		t.Errorf("delay at 0.9 = %f", d)
	}
	if CongestionDelay(1.2) != 50 {
		t.Error("delay capped at saturation")
	}
	if LossFraction(0.99) != 0 {
		t.Error("no loss below capacity")
	}
	if got := LossFraction(2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("loss at 2x = %f", got)
	}
}

func TestBuildAnnouncementsBatching(t *testing.T) {
	spec := &Peer{
		Name: "t", AS: 65001, Addr: netip.MustParseAddr("172.20.0.1"),
		Class: rib.ClassTransit,
	}
	for i := 0; i < 450; i++ {
		p, _ := v4Prefix(i)
		spec.Announces = append(spec.Announces, Announcement{Prefix: p, Path: []uint32{65001, 65002}})
	}
	for i := 0; i < 10; i++ {
		p, _ := v6Prefix(i)
		spec.Announces = append(spec.Announces, Announcement{Prefix: p, Path: []uint32{65001, 65003}})
	}
	updates := BuildAnnouncements(spec)
	// 450 v4 at batch 200 → 3 updates; 10 v6 → 1 update.
	if len(updates) != 4 {
		t.Fatalf("updates = %d, want 4", len(updates))
	}
	nV4, nV6 := 0, 0
	for _, u := range updates {
		nV4 += len(u.NLRI)
		if u.Attrs.MPReach != nil {
			nV6 += len(u.Attrs.MPReach.NLRI)
			if !u.Attrs.MPReach.NextHop.Is6() {
				t.Error("v6 NLRI needs v6 next hop")
			}
		}
	}
	if nV4 != 450 || nV6 != 10 {
		t.Errorf("NLRI counts = %d/%d", nV4, nV6)
	}
}

// hash2 is FNV-1a inline; it must equal hash/fnv over the same
// big-endian bytes, or every seed's scenario and path model would move.
func TestHash2MatchesFNV(t *testing.T) {
	for _, c := range []struct {
		seed int64
		a, b uint64
	}{{0, 0, 0}, {7, 1, 2}, {-1, math.MaxUint64, 1 << 63}, {42, 0x0102030405060708, 0xabcd}} {
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range []uint64{uint64(c.seed), c.a, c.b} {
			putU64(buf[:], v)
			h.Write(buf[:])
		}
		if got, want := hash2(c.seed, c.a, c.b), h.Sum64(); got != want {
			t.Errorf("hash2(%d, %#x, %#x) = %#x, hash/fnv %#x", c.seed, c.a, c.b, got, want)
		}
	}
}
