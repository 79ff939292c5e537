package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"edgefabric/internal/altpath"
	"edgefabric/internal/rib"
)

// multipathGoldenDigest pins the k >= 2 decisions of the weighted
// multipath optimizer on goldenFixture: every field of every override
// except Reason, over two cycles (the second with the first's sets as
// hysteresis prior) at MaxPaths 2 and 3, with and without a move budget,
// untraced and traced. A change
// that claims to leave k >= 2 decisions alone must leave it unchanged.
const multipathGoldenDigest = "0e1f5225a666aa5589f34a23208cea6c137231c669e2c173b62a4ed402049e17"

// goldenFixture is a 3 000-prefix PoP modelled on
// BenchmarkMultipathAllocate's: one to four routes per prefix over six
// egress ports with two peers each (so ports repeat within a report),
// capacities that leave one port overloaded, four inside the congestion
// band and one roomy, one prefix in forty too heavy for most headroom,
// and the overload pass's result as prior.
// Demand is whole megabits, so every load sum is exact in any order.
type goldenFixture struct {
	tab   *rib.Table
	proj  *Projection
	inv   *Inventory
	prior *AllocResult
	alloc AllocatorConfig
	pfxs  []netip.Prefix // rib.SortPrefixes order
}

func newGoldenFixture(t testing.TB) *goldenFixture {
	t.Helper()
	const nIFs = 6
	rng := rand.New(rand.NewSource(31))
	tab := rib.NewTable(rib.DefaultPolicy())
	demand := make(map[netip.Prefix]float64)
	for i := 0; i < 3000; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		for _, ord := range rng.Perm(2 * nIFs)[:1+rng.Intn(4)] {
			addr := netip.AddrFrom4([4]byte{172, 20, 0, byte(ord)})
			r := &rib.Route{
				Prefix: p, NextHop: addr, PeerAddr: addr,
				PeerAS:    uint32(65000 + ord),
				PeerClass: rib.PeerClass(ord%3) + rib.ClassPrivate,
				EgressIF:  ord % nIFs,
				ASPath:    []uint32{uint32(65000 + ord), 64512},
			}
			rib.DefaultPolicy().Import(r)
			tab.Add(r)
		}
		demand[p] = float64(50+rng.Intn(950)) * 1e6
		if rng.Intn(40) == 0 {
			demand[p] = float64(20_000+rng.Intn(40_000)) * 1e6 // too big for most headroom
		}
	}
	proj := Project(tab, demand)
	util := [nIFs]float64{1.02, 0.93, 0.9, 0.85, 0.76, 0.4}
	ifs := make([]InterfaceInfo, nIFs)
	for id := range ifs {
		ifs[id] = InterfaceInfo{ID: id, Name: fmt.Sprintf("if%d", id), Router: "r1",
			CapacityBps: math.Max(1e9, math.Round(proj.IfLoadBps[id]/util[id]/1e6)*1e6)}
	}
	inv, err := NewInventory(nil, ifs)
	if err != nil {
		t.Fatal(err)
	}
	f := &goldenFixture{tab: tab, proj: proj, inv: inv, alloc: AllocatorConfig{Threshold: 0.95}}
	f.prior = AllocateStickyTraced(proj, inv, f.alloc, nil, nil)
	for p := range proj.Plans {
		f.pfxs = append(f.pfxs, p)
	}
	rib.SortPrefixes(f.pfxs)
	return f
}

// reports builds one cycle's measurements in prefix order: a measured
// primary and up to three alternates, alternates P50-ascending as
// altpath orders them. About a fifth of the paths are lossy, a tenth of
// the alternates are under-sampled, and alternates range from 45 ms
// faster to 35 ms slower than the primary. cycle perturbs the medians
// by a few ms so the second cycle exercises hysteresis.
func (f *goldenFixture) reports(cycle int) []*altpath.PrefixReport {
	rng := rand.New(rand.NewSource(int64(97 + cycle)))
	out := make([]*altpath.PrefixReport, 0, len(f.pfxs))
	for _, p := range f.pfxs {
		routes := f.tab.Routes(p)
		stat := func(r *rib.Route, p50 float64) altpath.PathStat {
			s := altpath.PathStat{Route: r, P50: p50, P90: p50 + 20, N: 64, RetransFrac: float64(rng.Intn(5)) / 100}
			if rng.Intn(5) == 0 {
				s.RetransFrac = 0.12 + float64(rng.Intn(18))/100
			}
			if rng.Intn(10) == 0 {
				s.N = 8
			}
			return s
		}
		base := float64(40 + rng.Intn(60))
		primary := stat(routes[0], base+float64(rng.Intn(3*cycle+1)))
		primary.Primary = true
		if primary.N < 16 && rng.Intn(2) == 0 {
			primary.N = 64 // keep under-sampled primaries rarer than alternates
		}
		paths := []altpath.PathStat{primary}
		for _, r := range routes[1:min(len(routes), 4)] {
			paths = append(paths, stat(r, math.Max(5, base+float64(rng.Intn(81)-45))))
		}
		slices.SortStableFunc(paths[1:], func(a, b altpath.PathStat) int { return cmp.Compare(a.P50, b.P50) })
		rep := &altpath.PrefixReport{Prefix: p, Paths: paths}
		if len(paths) > 1 {
			rep.BestAlt = &paths[1]
			rep.GapMS = paths[0].P50 - rep.BestAlt.P50
		}
		out = append(out, rep)
	}
	return out
}

// hashOverrides folds every field of an override set except Reason.
func hashOverrides(h hash.Hash, out []Override) {
	var buf [8]byte
	num := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	via := func(r *rib.Route) {
		if r == nil {
			h.Write([]byte("nil"))
			return
		}
		h.Write([]byte(r.Prefix.String() + " " + r.PeerAddr.String() + " " + r.NextHop.String()))
		num(uint64(r.EgressIF))
	}
	num(uint64(len(out)))
	for _, o := range out {
		h.Write([]byte(o.Prefix.String() + " " + o.SplitOf.String()))
		via(o.Via)
		num(uint64(o.FromIF))
		num(uint64(o.ToIF))
		num(math.Float64bits(o.RateBps))
		num(uint64(len(o.Multipath)))
		for _, pw := range o.Multipath {
			via(pw.Via)
			num(uint64(pw.ToIF))
			num(uint64(pw.WeightPct))
			num(math.Float64bits(pw.RateBps))
		}
	}
}

// TestMultipathGoldenK2K3 is the differential golden for k >= 2: the
// override sets of two cycles at MaxPaths 2 and 3, unbudgeted and with
// MaxMoves 150, each run untraced and traced, hash to
// multipathGoldenDigest. Traced and untraced runs must
// also agree with each other.
func TestMultipathGoldenK2K3(t *testing.T) {
	f := newGoldenFixture(t)
	h := sha256.New()
	sets, moves := 0, 0
	for _, cfg := range []MultipathConfig{
		{MaxPaths: 2}, {MaxPaths: 2, MaxMoves: 150}, {MaxPaths: 3}, {MaxPaths: 3, MaxMoves: 150},
	} {
		var untraced [][]Override
		for _, traced := range []bool{false, true} {
			var prev map[netip.Prefix]Override
			for cycle := 0; cycle < 2; cycle++ {
				var tr *CycleTrace
				if traced {
					tr = NewCycleTrace(0)
				}
				out := MultipathAllocateTraced(f.proj, f.inv, f.reports(cycle), f.prior, prev, f.alloc, cfg, tr)
				prev = MultipathPrior(out)
				hashOverrides(h, out)
				if !traced {
					untraced = append(untraced, out)
					for _, o := range out {
						moves++
						if len(o.Multipath) > 0 {
							sets++
						}
					}
				} else if !reflect.DeepEqual(out, untraced[cycle]) {
					t.Errorf("%+v cycle %d: traced run decided differently from untraced", cfg, cycle)
				}
			}
		}
	}
	if sets == 0 || sets == moves {
		t.Fatalf("fixture is vacuous: %d overrides, %d weighted sets", moves, sets)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != multipathGoldenDigest {
		t.Errorf("k>=2 multipath decisions changed: digest %s, want %s", got, multipathGoldenDigest)
	}
}
