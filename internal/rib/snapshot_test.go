package rib

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func TestSnapshotRoutesSortedAndGen(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	p := netip.MustParsePrefix("10.1.0.0/24")
	tab.Add(mkRoute("10.1.0.0/24", "192.0.2.9", ClassTransit, 65001))
	tab.Add(mkRoute("10.1.0.0/24", "192.0.2.5", ClassPrivate, 65002))
	tab.Add(mkRoute("10.1.0.0/24", "192.0.2.7", ClassPublic, 65003))

	view := tab.SnapshotRoutesInto([]netip.Prefix{p}, nil)[0]
	if len(view.Routes) != 3 {
		t.Fatalf("snapshot has %d routes, want 3", len(view.Routes))
	}
	if view.Routes[0].PeerClass != ClassPrivate || view.Routes[2].PeerClass != ClassTransit {
		t.Errorf("snapshot not preference-sorted: %v %v %v",
			view.Routes[0].PeerClass, view.Routes[1].PeerClass, view.Routes[2].PeerClass)
	}
	if view.Gen == 0 {
		t.Error("generation should be nonzero for a populated entry")
	}
	if got := tab.Generation(p); got != view.Gen {
		t.Errorf("Generation = %d, snapshot gen = %d", got, view.Gen)
	}

	// A mutation bumps the generation; the old view is unaffected.
	tab.Add(mkRoute("10.1.0.0/24", "192.0.2.2", ClassPrivate, 65004))
	if got := tab.Generation(p); got <= view.Gen {
		t.Errorf("Generation after Add = %d, want > %d", got, view.Gen)
	}
	if len(view.Routes) != 3 {
		t.Errorf("old snapshot mutated: now %d routes", len(view.Routes))
	}

	// No mutation: generation stable, snapshot identical.
	before := tab.Generation(p)
	snap2 := tab.SnapshotRoutesInto([]netip.Prefix{p}, nil)
	if snap2[0].Gen != before {
		t.Errorf("generation moved without mutation: %d -> %d", before, snap2[0].Gen)
	}

	// An absent prefix reads as the zero view, in its own slot.
	absent := netip.MustParsePrefix("192.168.0.0/24")
	snap3 := tab.SnapshotRoutesInto([]netip.Prefix{p, absent}, snap2)
	if len(snap3) != 2 || snap3[0].Gen != before {
		t.Errorf("snapshot of [present, absent] = %+v", snap3)
	}
	if v := snap3[1]; v.Routes != nil || v.Gen != 0 || v.Injected != 0 {
		t.Errorf("absent prefix reads %+v, want the zero view", v)
	}
}

// TestTableConcurrentSnapshotInvariants hammers the table from writer
// goroutines while readers loop snapshots, asserting that every view is
// preference-sorted and per-prefix generations never go backwards. Run
// with -race to exercise the copy-on-write discipline.
func TestTableConcurrentSnapshotInvariants(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	var prefixes []netip.Prefix
	for i := 0; i < 48; i++ {
		prefixes = append(prefixes, netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i)))
	}
	peers := make([]netip.Addr, 8)
	for i := range peers {
		peers[i] = netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})
	}

	const writers = 4
	const opsPerWriter = 3000
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWriter; i++ {
				p := prefixes[rng.Intn(len(prefixes))]
				peer := peers[rng.Intn(len(peers))]
				switch rng.Intn(10) {
				case 0:
					tab.RemovePeer(peer)
				case 1, 2:
					tab.Remove(p, peer)
				default:
					class := PeerClass(rng.Intn(4)) + ClassPrivate
					if rng.Intn(16) == 0 {
						class = ClassController
					}
					r := &Route{
						Prefix:    p,
						NextHop:   peer,
						PeerAddr:  peer,
						PeerClass: class,
						ASPath:    make([]uint32, rng.Intn(4)+1),
					}
					for j := range r.ASPath {
						r.ASPath[j] = uint32(65000 + j)
					}
					tab.Accept(r)
				}
			}
		}(int64(w) + 1)
	}

	readerErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			lastGen := make(map[netip.Prefix]uint64)
			var snap []RouteView
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap = tab.SnapshotRoutesInto(prefixes, snap)
				for i, view := range snap {
					p := prefixes[i]
					if view.Gen == 0 {
						continue // absent
					}
					if len(view.Routes) == 0 {
						readerErr <- fmt.Errorf("empty view for present prefix %v", p)
						return
					}
					for i := 0; i+1 < len(view.Routes); i++ {
						if Better(view.Routes[i+1], view.Routes[i], tab.Policy()) {
							readerErr <- fmt.Errorf("view for %v not sorted at %d", p, i)
							return
						}
					}
					if view.Gen < lastGen[p] {
						readerErr <- fmt.Errorf("generation went backwards for %v: %d < %d",
							p, view.Gen, lastGen[p])
						return
					}
					lastGen[p] = view.Gen
					ninj := 0
					for _, r := range view.Routes {
						if r.PeerClass == ClassController {
							ninj++
						}
					}
					if ninj != view.Injected {
						readerErr <- fmt.Errorf("view for %v counts %d injected, has %d",
							p, view.Injected, ninj)
						return
					}
				}
			}
		}()
	}

	// Stop the readers once the writers drain, then check for invariant
	// violations the readers reported along the way.
	writersDone := make(chan struct{})
	go func() { writerWG.Wait(); close(writersDone) }()
	select {
	case <-writersDone:
	case err := <-readerErr:
		close(stop)
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("writers wedged")
	}
	close(stop)
	readerWG.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
}

func TestTableWaitRouteCount(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() { done <- tab.WaitRouteCount(ctx, 3) }()
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		tab.Add(mkRoute(fmt.Sprintf("10.%d.0.0/24", i), "192.0.2.1", ClassPrivate, 65001))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitRouteCount = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("WaitRouteCount did not wake")
	}

	// Cancellation unblocks a waiter that can never be satisfied.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- tab.WaitRouteCount(ctx2, 1000) }()
	cancel2()
	select {
	case err := <-done2:
		if err == nil {
			t.Fatal("expected context error")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled WaitRouteCount did not return")
	}
}

func TestTableWaitChange(t *testing.T) {
	tab := NewTable(DefaultPolicy())
	tab.Add(mkRoute("10.0.0.0/24", "192.0.2.1", ClassPrivate, 65001))
	v := tab.Version()

	// Already-newer version returns immediately.
	if err := tab.WaitChange(context.Background(), v-1); err != nil {
		t.Fatalf("WaitChange(past) = %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- tab.WaitChange(ctx, v) }()
	time.Sleep(time.Millisecond)
	tab.Remove(netip.MustParsePrefix("10.0.0.0/24"), netip.MustParseAddr("192.0.2.1"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitChange = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("WaitChange did not wake on mutation")
	}
}

func BenchmarkSnapshotRoutesInto(b *testing.B) {
	tab := NewTable(DefaultPolicy())
	var prefixes []netip.Prefix
	for i := 0; i < 4096; i++ {
		p := fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)
		prefixes = append(prefixes, netip.MustParsePrefix(p))
		for j := 0; j < 8; j++ {
			tab.Add(mkRoute(p, fmt.Sprintf("192.0.2.%d", j+1), PeerClass(j%4)+ClassPrivate, uint32(65001+j)))
		}
	}
	var snap []RouteView
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = tab.SnapshotRoutesInto(prefixes, snap)
	}
	if len(snap) != len(prefixes) || snap[len(snap)-1].Routes == nil {
		b.Fatal("snapshot incomplete")
	}
}
