package netsim

import (
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
)

// PathPerfConfig parameterizes the path performance model.
type PathPerfConfig struct {
	// Seed decorrelates the per-(prefix, peer) skews.
	Seed int64
	// AnomalyProb is the probability that a prefix's best-class path is
	// remotely impaired, making an alternate (often transit) faster by
	// a clear margin — the §6 phenomenon performance-aware routing
	// detects. Default 0.06.
	AnomalyProb float64
}

func (c *PathPerfConfig) setDefaults() {
	if c.AnomalyProb == 0 {
		c.AnomalyProb = 0.06
	}
}

// The path model's fixed shape.
const (
	// geoSkewMS is the maximum per-prefix distance offset added to all
	// of a prefix's paths (destination remoteness).
	geoSkewMS = 40
	// pathSkewMS is the maximum per-(prefix, peer) skew differentiating
	// paths to the same prefix.
	pathSkewMS = 12
	// anomalyExtraMinMS and anomalyExtraMaxMS bound the impairment range
	// [min,max) added to an anomalous prefix's preferred-class paths.
	anomalyExtraMinMS, anomalyExtraMaxMS = 25, 80
)

// PathPerf models the propagation RTT of each (prefix, peer) path,
// before congestion. The base model is a pure function of the seed, so
// the whole simulation sees one consistent Internet; on top of it sits a
// mutable per-peer impairment overlay the scenario event layer scripts
// (path-rtt inflation and lossy alternates) to exercise the
// performance-aware optimizer.
type PathPerf struct {
	cfg PathPerfConfig

	mu sync.Mutex // serializes overlay writers
	// overlay is the scripted impairment overlay: an immutable snapshot
	// readers load without a lock (a measurement round reads it from
	// every worker); writers copy, edit and swap it under mu.
	overlay atomic.Pointer[impairments]
}

// impairments is one snapshot of the per-peer impairment overlay.
type impairments struct {
	// extraMS is active RTT inflation per peer address (summed across
	// overlapping events by the engine before it calls SetRTTInflation).
	extraMS map[netip.Addr]float64
	// lossFrac is the scripted transport-loss fraction per peer address.
	lossFrac map[netip.Addr]float64
}

// NewPathPerf returns a model for cfg.
func NewPathPerf(cfg PathPerfConfig) *PathPerf {
	cfg.setDefaults()
	pp := &PathPerf{cfg: cfg}
	pp.overlay.Store(&impairments{})
	return pp
}

// SetRTTInflation sets the scripted RTT inflation (milliseconds) on
// every path via the given peer; zero clears it.
func (pp *PathPerf) SetRTTInflation(peer netip.Addr, ms float64) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	next := *pp.overlay.Load()
	next.extraMS = withPeer(next.extraMS, peer, ms)
	pp.overlay.Store(&next)
}

// SetPathLoss sets the scripted transport-loss fraction on every path
// via the given peer; zero clears it.
func (pp *PathPerf) SetPathLoss(peer netip.Addr, frac float64) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	next := *pp.overlay.Load()
	next.lossFrac = withPeer(next.lossFrac, peer, min(frac, 1))
	pp.overlay.Store(&next)
}

// withPeer returns a copy of m with peer set to v, or removed when v is
// not positive.
func withPeer(m map[netip.Addr]float64, peer netip.Addr, v float64) map[netip.Addr]float64 {
	out := make(map[netip.Addr]float64, len(m)+1)
	for k, x := range m {
		out[k] = x
	}
	if v > 0 {
		out[peer] = v
	} else {
		delete(out, peer)
	}
	return out
}

// rttInflation returns the active scripted inflation for a peer.
func (pp *PathPerf) rttInflation(peer netip.Addr) float64 {
	return pp.overlay.Load().extraMS[peer]
}

// PathLoss returns the active scripted loss fraction for a peer.
func (pp *PathPerf) PathLoss(peer netip.Addr) float64 {
	return pp.overlay.Load().lossFrac[peer]
}

// unit maps a hash to [0,1).
func unitHash(seed int64, p netip.Prefix, salt uint64) float64 {
	b := p.Addr().As16()
	var key uint64
	for i := 0; i < 8; i++ {
		key = key<<8 | uint64(b[i]^b[i+8])
	}
	v := hash2(seed, key^uint64(p.Bits())<<56, salt)
	return float64(v>>11) / float64(1<<53)
}

// geoSkew is the per-prefix remoteness offset shared by all paths.
func (pp *PathPerf) geoSkew(p netip.Prefix) float64 {
	return unitHash(pp.cfg.Seed, p, 0x9e01) * geoSkewMS
}

// Anomalous reports whether the prefix's preferred-class paths are
// remotely impaired.
func (pp *PathPerf) Anomalous(p netip.Prefix) bool {
	return unitHash(pp.cfg.Seed, p, 0x517a) < pp.cfg.AnomalyProb
}

// anomalyExtra is the impairment magnitude for an anomalous prefix.
func (pp *PathPerf) anomalyExtra(p netip.Prefix) float64 {
	u := unitHash(pp.cfg.Seed, p, 0xc0de)
	return anomalyExtraMinMS + u*(anomalyExtraMaxMS-anomalyExtraMinMS)
}

// BaseRTT returns the uncongested RTT in milliseconds for reaching
// prefix via peer. bestClass is the best (lowest) peer class among the
// routes available for the prefix; anomalies impair paths of that class
// so that a worse-class path can win.
func (pp *PathPerf) BaseRTT(p netip.Prefix, peer *Peer, bestClass uint8) float64 {
	rtt := peer.BaseRTTMS + pp.geoSkew(p) +
		unitHash(pp.cfg.Seed^int64(peer.AS)<<16, p, 0xabcd)*pathSkewMS
	if pp.Anomalous(p) && uint8(peer.Class) == bestClass {
		rtt += pp.anomalyExtra(p)
	}
	return rtt + pp.rttInflation(peer.Addr)
}

// CongestionDelay returns the added queueing delay in milliseconds for
// an egress interface at the given utilization (load/capacity). It is
// negligible below 70 % utilization and grows steeply toward saturation,
// a standard M/M/1-flavored knee clipped for stability.
func CongestionDelay(utilization float64) float64 {
	if utilization <= 0.7 {
		return 0
	}
	if utilization >= 1 {
		return 50
	}
	x := (utilization - 0.7) / 0.3
	return 50 * math.Pow(x, 3)
}

// LossFraction returns the fraction of offered load dropped at an
// interface with the given utilization: zero below saturation, and the
// excess fraction above it (tail drop of an unbuffered bottleneck).
func LossFraction(utilization float64) float64 {
	if utilization <= 1 {
		return 0
	}
	return 1 - 1/utilization
}
