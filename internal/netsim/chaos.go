package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"edgefabric/internal/rib"
)

// ChaosConfig parameterizes the chaos scheduler: a seeded generator of
// composed event timelines over a scenario. Every draw comes from one
// rand.Rand seeded with Seed, so a timeline is fully determined by
// (scenario, config) and any soak failure replays exactly.
type ChaosConfig struct {
	// Seed drives all randomness. Required (zero is a valid seed but a
	// suspicious one; the soak harness always passes its run seed).
	Seed int64
	// Horizon is the window events must complete within. Default 4h.
	Horizon time.Duration
	// Events is how many events to compose. Default 12.
	Events int
}

// chaosQuiet is the leading quiet period before the first event, giving
// the controller time to converge and establish a steady baseline.
const chaosQuiet = 5 * time.Minute

func (c *ChaosConfig) setDefaults() {
	if c.Horizon == 0 {
		c.Horizon = 4 * time.Hour
	}
	if c.Events == 0 {
		c.Events = 12
	}
}

// chaosTargets is the pre-extracted target universe the scheduler draws
// from.
type chaosTargets struct {
	peeredAS []*EdgeAS     // non-transit-only ASes, for flash crowds
	heavy    []*PrefixInfo // heaviest prefixes, for surges
	peers    []*Peer       // non-transit peers, for depeering
	allPeers []*Peer       // every peer incl. transit, for path-perf events
	peerIfs  []int         // non-transit interface IDs, for drain/brownout
	routers  []string
}

// ChaosSchedule composes a seeded random event timeline over the
// scenario: demand distortions on real heavy-hitters, depeerings and
// capacity events on non-transit attachments (transit is the paper's
// escape valve — chaos must not close it), and telemetry faults. Events
// overlap freely; every event ends within cfg.Horizon.
func ChaosSchedule(sc *Scenario, cfg ChaosConfig) ([]Event, error) {
	cfg.setDefaults()
	t, err := chaosUniverse(sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dur := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	mag := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

	// Family weights: demand distortions dominate (they are the paper's
	// daily reality), structural and telemetry faults season the mix.
	kinds := []struct {
		kind   EventKind
		weight int
	}{
		{EventFlashCrowd, 5},
		{EventSurge, 4},
		{EventLiveEvent, 2},
		{EventDemandShift, 2},
		{EventDepeer, 3},
		{EventDrain, 2},
		{EventBrownout, 3},
		{EventBMPKill, 2},
		{EventIBGPReset, 2},
		{EventSFlowLoss, 3},
		{EventPathRTT, 3},
		{EventLossyPath, 3},
	}
	totalW := 0
	for _, k := range kinds {
		totalW += k.weight
	}

	var events []Event
	for len(events) < cfg.Events {
		pick := rng.Intn(totalW)
		var kind EventKind
		for _, k := range kinds {
			if pick < k.weight {
				kind = k.kind
				break
			}
			pick -= k.weight
		}
		ev := Event{Kind: kind}
		switch kind {
		case EventFlashCrowd:
			as := weightedAS(rng, t.peeredAS)
			ev.AS = as.AS
			ev.Duration = dur(10*time.Minute, 40*time.Minute)
			ev.Magnitude = mag(1.5, 4)
		case EventSurge:
			ev.Prefix = t.heavy[rng.Intn(len(t.heavy))].Prefix
			ev.Duration = dur(2*time.Minute, 10*time.Minute)
			ev.Magnitude = mag(5, 25)
		case EventLiveEvent:
			ev.Duration = dur(30*time.Minute, 2*time.Hour)
			ev.Magnitude = mag(1.2, 1.8)
		case EventDemandShift:
			// Cross-PoP shift as this PoP sees it: half the draws drain
			// demand away (region loss), half dump a neighbor's users
			// here (anycast re-homing).
			ev.Duration = dur(10*time.Minute, 45*time.Minute)
			if rng.Float64() < 0.5 {
				ev.Magnitude = mag(0.4, 0.85)
			} else {
				ev.Magnitude = mag(1.2, 1.7)
			}
		case EventDepeer:
			ev.Peer = t.peers[rng.Intn(len(t.peers))].Name
			ev.Duration = dur(5*time.Minute, 30*time.Minute)
		case EventDrain:
			ev.Interface = t.peerIfs[rng.Intn(len(t.peerIfs))]
			ev.Duration = dur(10*time.Minute, 30*time.Minute)
			ev.Magnitude = 0.05
		case EventBrownout:
			ev.Interface = t.peerIfs[rng.Intn(len(t.peerIfs))]
			ev.Duration = dur(10*time.Minute, 30*time.Minute)
			ev.Magnitude = mag(0.3, 0.7)
		case EventBMPKill:
			ev.Router = t.routers[rng.Intn(len(t.routers))]
			ev.Duration = dur(60*time.Second, 180*time.Second)
		case EventIBGPReset:
			ev.Router = t.routers[rng.Intn(len(t.routers))]
		case EventPathRTT:
			// Impair a preferred (non-transit) attachment so the
			// optimizer has a reason to detour or split away from it.
			ev.Peer = t.peers[rng.Intn(len(t.peers))].Name
			ev.Duration = dur(10*time.Minute, 30*time.Minute)
			ev.Magnitude = mag(20, 80)
		case EventLossyPath:
			// Any attachment, transit included: a lossy alternate must
			// not attract weighted demand just because it has headroom.
			ev.Peer = t.allPeers[rng.Intn(len(t.allPeers))].Name
			ev.Duration = dur(10*time.Minute, 30*time.Minute)
			ev.Magnitude = mag(0.02, 0.2)
		case EventSFlowLoss:
			if rng.Float64() < 0.25 {
				// Deep blackout: long enough that the health ladder
				// walks through fail-static (and sometimes fail-back).
				ev.Magnitude = 1
				ev.Duration = dur(6*time.Minute, 8*time.Minute)
			} else {
				ev.Magnitude = mag(0.5, 1.0)
				ev.Duration = dur(1*time.Minute, 4*time.Minute)
			}
		}
		// Place the event: start after the quiet lead, end within the
		// horizon.
		span := cfg.Horizon - chaosQuiet - ev.Duration
		if span <= 0 {
			continue // event family too long for this horizon; redraw
		}
		ev.At = chaosQuiet + time.Duration(rng.Int63n(int64(span)))
		events = append(events, ev)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	return events, nil
}

// chaosUniverse extracts the target sets chaos events draw from.
func chaosUniverse(sc *Scenario) (*chaosTargets, error) {
	t := &chaosTargets{}
	for _, as := range sc.ASes {
		if as.Class != rib.ClassTransit && as.Weight > 0 {
			t.peeredAS = append(t.peeredAS, as)
		}
	}
	// Deterministic iteration order for the weighted draw.
	sort.Slice(t.peeredAS, func(a, b int) bool { return t.peeredAS[a].AS < t.peeredAS[b].AS })

	heavy := append([]*PrefixInfo(nil), sc.Prefixes...)
	sort.SliceStable(heavy, func(a, b int) bool { return heavy[a].Weight > heavy[b].Weight })
	if len(heavy) > 32 {
		heavy = heavy[:32]
	}
	t.heavy = heavy

	seenIf := make(map[int]bool)
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		t.allPeers = append(t.allPeers, p)
		if p.Class == rib.ClassTransit {
			continue
		}
		t.peers = append(t.peers, p)
		if !seenIf[p.InterfaceID] {
			seenIf[p.InterfaceID] = true
			t.peerIfs = append(t.peerIfs, p.InterfaceID)
		}
	}
	for _, r := range sc.Topo.Routers {
		t.routers = append(t.routers, r.Name)
	}
	if len(t.peeredAS) == 0 || len(t.heavy) == 0 || len(t.peers) == 0 ||
		len(t.peerIfs) == 0 || len(t.routers) == 0 {
		return nil, fmt.Errorf("netsim: scenario too sparse for chaos (need peered ASes, prefixes, non-transit peers, routers)")
	}
	return t, nil
}

// weightedAS draws an AS proportionally to its demand weight.
func weightedAS(rng *rand.Rand, ases []*EdgeAS) *EdgeAS {
	var total float64
	for _, as := range ases {
		total += as.Weight
	}
	x := rng.Float64() * total
	for _, as := range ases {
		x -= as.Weight
		if x <= 0 {
			return as
		}
	}
	return ases[len(ases)-1]
}
