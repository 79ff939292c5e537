package sflow

import (
	"math"
	"math/rand"
	"net/netip"
	"sync"
)

// Sink consumes encoded datagrams. Implementations include a UDP
// net.PacketConn writer and the in-process channel transport the
// simulator uses.
type Sink interface {
	// SendDatagram delivers one encoded sFlow datagram.
	SendDatagram(b []byte) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(b []byte) error

// SendDatagram implements Sink.
func (f SinkFunc) SendDatagram(b []byte) error { return f(b) }

// AgentConfig configures an Agent.
type AgentConfig struct {
	// Agent identifies the exporting router in datagram headers.
	Agent netip.Addr
	// SamplingRate is the 1-in-N sampling rate. Default 1024.
	SamplingRate uint32
	// AvgFrameLen is the mean simulated frame size in bytes.
	// Default 1000.
	AvgFrameLen uint32
	// Seed seeds the sampler's deterministic randomness.
	Seed int64
	// Sink receives encoded datagrams; required.
	Sink Sink
}

// maxRecordsPerDatagram is the pending record count at which an Agent
// flushes a datagram.
const maxRecordsPerDatagram = 64

// Agent is the router-side sampler: the simulated dataplane reports the
// bytes each prefix sent through each interface per tick, and the agent
// emits 1-in-N flow samples matching that volume in expectation,
// reproducing real sampling noise. Methods are not safe for concurrent
// use except where noted; the simulator drives one agent per router from
// its tick loop.
type Agent struct {
	cfg AgentConfig

	mu         sync.Mutex
	rng        *rand.Rand
	seq        uint32
	sampleSeq  uint32
	pool       uint32 // frames observed since start (mod 2^32)
	pending    []FlowRecord
	uptimeMS   uint32
	datagrams  uint64
	sampled    uint64
	underlying uint64 // total bytes reported by the dataplane
}

// NewAgent returns an Agent for cfg.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.SamplingRate == 0 {
		cfg.SamplingRate = 1024
	}
	if cfg.AvgFrameLen == 0 {
		cfg.AvgFrameLen = 1000
	}
	return &Agent{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// ObserveBytes reports that nbytes egressed toward dst through egressIF
// since the last call for that flow. The agent converts the byte count
// into a frame count at AvgFrameLen and samples ~1-in-N frames,
// binomially, so short ticks on small prefixes often produce zero
// samples — exactly the estimation error a real 1-in-N sampler has.
func (a *Agent) ObserveBytes(dst netip.Addr, egressIF int, nbytes uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.underlying += nbytes
	frames := nbytes / uint64(a.cfg.AvgFrameLen)
	if nbytes%uint64(a.cfg.AvgFrameLen) != 0 {
		// Probabilistically round the remainder so expectation is exact.
		if a.rng.Float64() < float64(nbytes%uint64(a.cfg.AvgFrameLen))/float64(a.cfg.AvgFrameLen) {
			frames++
		}
	}
	a.pool += uint32(frames)
	// Binomial(frames, 1/rate), approximated for speed: at the small
	// means typical of per-tick sampling a Poisson draw is accurate and
	// O(mean); at large means the normal approximation takes over. The
	// expectation is exact in both regimes, which is what the
	// collector's scale-back relies on.
	p := 1.0 / float64(a.cfg.SamplingRate)
	mean := float64(frames) * p
	var nsamples uint64
	switch {
	case frames == 0:
	case p >= 1:
		nsamples = frames // sample-everything configuration
	case mean < 30 && p < 0.05:
		nsamples = poisson(a.rng, mean)
	case frames <= 1024:
		for i := uint64(0); i < frames; i++ {
			if a.rng.Float64() < p {
				nsamples++
			}
		}
	default:
		sd := math.Sqrt(mean * (1 - p))
		nsamples = uint64(max(0, mean+a.rng.NormFloat64()*sd+0.5))
	}
	for i := uint64(0); i < nsamples; i++ {
		a.pending = append(a.pending, FlowRecord{
			Dst:      dst,
			FrameLen: a.cfg.AvgFrameLen,
			EgressIF: uint32(egressIF),
		})
		a.sampled++
		if len(a.pending) >= maxRecordsPerDatagram {
			if err := a.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// poisson draws from Poisson(mean) by Knuth's multiplication method;
// cost is O(mean) uniform draws, used only for small means.
func poisson(rng *rand.Rand, mean float64) uint64 {
	l := math.Exp(-mean)
	var k uint64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Tick advances the agent's uptime clock by ms milliseconds and flushes
// pending samples.
func (a *Agent) Tick(ms uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.uptimeMS += ms
	return a.flushLocked()
}

// Flush sends any pending samples immediately.
func (a *Agent) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}

func (a *Agent) flushLocked() error {
	if len(a.pending) == 0 {
		return nil
	}
	a.sampleSeq++
	a.seq++
	d := &Datagram{
		Agent:    a.cfg.Agent,
		Seq:      a.seq,
		UptimeMS: a.uptimeMS,
		Samples: []FlowSample{{
			Seq:          a.sampleSeq,
			SamplingRate: a.cfg.SamplingRate,
			SamplePool:   a.pool,
			Records:      a.pending,
		}},
	}
	b, err := MarshalBytes(d)
	if err != nil {
		return err
	}
	a.pending = nil
	a.datagrams++
	return a.cfg.Sink.SendDatagram(b)
}

// Stats reports datagrams sent, records sampled, and underlying bytes
// observed.
func (a *Agent) Stats() (datagrams, sampled, underlyingBytes uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.datagrams, a.sampled, a.underlying
}
