package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"sync"
	"time"
)

// DemandConfig parameterizes the synthetic traffic model.
type DemandConfig struct {
	// PeakBps is the PoP's total egress demand at the diurnal peak.
	PeakBps float64
	// DiurnalAmplitude in [0,1) is the peak-to-trough swing: trough
	// demand is Peak×(1−amplitude). Default 0.5.
	DiurnalAmplitude float64
	// PeakHourUTC is the hour of day demand peaks. Default 20.
	PeakHourUTC float64
	// NoiseSigma is the σ of multiplicative lognormal per-prefix noise
	// re-drawn every NoisePeriod. Default 0.15.
	NoiseSigma float64
	// NoisePeriod is how often noise re-draws. Default 5 minutes.
	NoisePeriod time.Duration
	// Seed decorrelates noise across scenarios.
	Seed int64
}

func (c *DemandConfig) setDefaults() {
	if c.PeakBps == 0 {
		c.PeakBps = 400e9
	}
	if c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = 0.5
	}
	if c.PeakHourUTC == 0 {
		c.PeakHourUTC = 20
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.15
	}
	if c.NoisePeriod == 0 {
		c.NoisePeriod = 5 * time.Minute
	}
}

// PrefixInfo carries the static per-prefix facts the demand model and
// the experiments need.
type PrefixInfo struct {
	// Prefix is the user /24 (or /48) this entry describes.
	Prefix netip.Prefix
	// OriginAS is the edge AS originating it.
	OriginAS uint32
	// Weight is the normalized share of PoP demand (sums to 1 across
	// all prefixes).
	Weight float64
	// RepAddr is a representative host address inside the prefix, used
	// for forwarding lookups and sFlow records.
	RepAddr netip.Addr
}

// DemandMod is a runtime demand modifier installed by the event engine:
// every prefix in scope gets its demand multiplied during [Start, End).
// Scope is the most specific non-zero target — Prefix, else AS, else the
// whole PoP. The modifier is self-checking against its window, so the
// engine's apply/revert ordering only controls when it is *visible*, not
// what it computes.
type DemandMod struct {
	Start time.Time
	End   time.Time
	// Prefix scopes the modifier to one prefix when valid.
	Prefix netip.Prefix
	// AS scopes the modifier to one origin AS when non-zero (and Prefix
	// is not set).
	AS uint32
	// Multiplier is the peak demand factor.
	Multiplier float64
	// Ramp selects a triangular shape — the factor rises linearly from 1
	// to Multiplier at the window midpoint and back — instead of a
	// square pulse. Live events bend the curve; DDoS steps on it.
	Ramp bool
}

// factor returns the modifier's multiplier for prefix p at time t
// (1 when out of window or scope).
func (m *DemandMod) factor(p *PrefixInfo, t time.Time) float64 {
	if t.Before(m.Start) || !t.Before(m.End) {
		return 1
	}
	if m.Prefix.IsValid() {
		if p.Prefix != m.Prefix {
			return 1
		}
	} else if m.AS != 0 && p.OriginAS != m.AS {
		return 1
	}
	if !m.Ramp {
		return m.Multiplier
	}
	x := float64(t.Sub(m.Start)) / float64(m.End.Sub(m.Start))
	return 1 + (m.Multiplier-1)*(1-math.Abs(2*x-1))
}

// DemandModel produces per-prefix egress demand over time:
// Zipf-weighted prefix volumes × diurnal curve × lognormal noise ×
// the event engine's demand modifiers (flash crowds among them). All randomness is a pure function of
// (Seed, prefix, time), so replays are deterministic; the only mutable
// state is the event engine's modifier overlay, guarded by modMu.
type DemandModel struct {
	cfg      DemandConfig
	prefixes []*PrefixInfo

	modMu sync.RWMutex
	mods  []*DemandMod
}

// NewDemandModel builds a model over the given prefixes. Weights must be
// normalized (the synthesizer guarantees it; Validate checks loosely).
func NewDemandModel(cfg DemandConfig, prefixes []*PrefixInfo) (*DemandModel, error) {
	cfg.setDefaults()
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("netsim: demand model needs prefixes")
	}
	var sum float64
	for _, p := range prefixes {
		if p.Weight < 0 {
			return nil, fmt.Errorf("netsim: prefix %s has negative weight", p.Prefix)
		}
		sum += p.Weight
	}
	if math.Abs(sum-1) > 0.01 {
		return nil, fmt.Errorf("netsim: prefix weights sum to %.4f, want 1", sum)
	}
	return &DemandModel{cfg: cfg, prefixes: prefixes}, nil
}

// Prefixes returns the model's prefix set.
func (m *DemandModel) Prefixes() []*PrefixInfo { return m.prefixes }

// Diurnal returns the time-of-day multiplier in [1−amplitude, 1].
func (m *DemandModel) Diurnal(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	phase := 2 * math.Pi * (h - m.cfg.PeakHourUTC) / 24
	return 1 - m.cfg.DiurnalAmplitude*0.5*(1-math.Cos(phase))
}

// noise returns the deterministic lognormal noise factor for a prefix in
// the noise period containing t.
func (m *DemandModel) noise(p netip.Prefix, t time.Time) float64 {
	if m.cfg.NoiseSigma == 0 {
		return 1
	}
	epoch := t.UnixNano() / int64(m.cfg.NoisePeriod)
	h := fnv.New64a()
	var buf [8]byte
	putU64(buf[:], uint64(m.cfg.Seed))
	h.Write(buf[:])
	b := p.Addr().As16()
	h.Write(b[:])
	putU64(buf[:], uint64(p.Bits()))
	h.Write(buf[:])
	putU64(buf[:], uint64(epoch))
	h.Write(buf[:])
	// Two uniforms from the hash → one standard normal (Box–Muller).
	v := h.Sum64()
	u1 := float64(v>>11)/float64(1<<53) + 1e-12
	u2 := float64(v&((1<<11)-1))/float64(1<<11) + 1e-12
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	// Lognormal with mean 1: exp(σz − σ²/2).
	s := m.cfg.NoiseSigma
	return math.Exp(s*z - s*s/2)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// AddMod installs a runtime demand modifier and returns the handle to
// pass to RemoveMod. The event engine owns the lifecycle.
func (m *DemandModel) AddMod(mod DemandMod) *DemandMod {
	h := &mod
	m.modMu.Lock()
	m.mods = append(m.mods, h)
	m.modMu.Unlock()
	return h
}

// RemoveMod uninstalls a modifier previously returned by AddMod.
func (m *DemandModel) RemoveMod(h *DemandMod) {
	m.modMu.Lock()
	for i, mod := range m.mods {
		if mod == h {
			m.mods = append(m.mods[:i], m.mods[i+1:]...)
			break
		}
	}
	m.modMu.Unlock()
}

// modFactor returns the product of all active modifier factors for p at
// t. The empty-overlay fast path keeps steady-state Rate calls cheap.
func (m *DemandModel) modFactor(p *PrefixInfo, t time.Time) float64 {
	m.modMu.RLock()
	defer m.modMu.RUnlock()
	if len(m.mods) == 0 {
		return 1
	}
	f := 1.0
	for _, mod := range m.mods {
		f *= mod.factor(p, t)
	}
	return f
}

// Rate returns prefix p's demand in bits per second at time t.
func (m *DemandModel) Rate(p *PrefixInfo, t time.Time) float64 {
	return m.cfg.PeakBps * p.Weight * m.Diurnal(t) * m.noise(p.Prefix, t) *
		m.modFactor(p, t)
}

// Total returns the PoP's total demand at t (sum over prefixes).
func (m *DemandModel) Total(t time.Time) float64 {
	var sum float64
	for _, p := range m.prefixes {
		sum += m.Rate(p, t)
	}
	return sum
}

// ZipfWeights returns n weights following a Zipf distribution with
// exponent s, normalized to sum to 1; rank 0 is the heaviest. The Edge
// Fabric paper's demand concentrates this way: a small number of user
// networks carry most traffic.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
