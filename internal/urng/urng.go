// Package urng provides the uniform random number generators used by
// the DP-Box datapath and by the simulation harness.
//
// The hardware-faithful generators are combined Tausworthe generators:
// Taus88 (three-component, the generator cited by the paper's RNG
// reference) and LFSR113 (four-component, longer period). Both emit
// 32-bit words from which the FxP RNG draws its B_u-bit uniform
// input u = m·2^-B_u with m ∈ {1, …, 2^B_u} (the value 0 is excluded
// because log(0) is undefined in the inverse-CDF map).
//
// SplitMix64 is a small, fast, seedable generator used only for
// simulation-level randomness (dataset synthesis, shuffling); it does
// not model hardware.
package urng

import "math"

// Source is a stream of uniformly distributed 32-bit words.
type Source interface {
	// Uint32 returns the next 32 uniform bits.
	Uint32() uint32
}

// Bits draws a B-bit uniform integer m in {1, …, 2^B} from src.
// It rejects the all-zero pattern and maps it to 2^B, preserving
// uniformity exactly (both 0 and 2^B correspond to a single pattern).
// B must be in [1, 32].
func Bits(src Source, b int) uint64 {
	if b < 1 || b > 32 {
		panic("urng: bit count out of range [1,32]")
	}
	m := uint64(src.Uint32())
	if b < 32 {
		m &= (1 << uint(b)) - 1
	}
	if m == 0 {
		m = 1 << uint(b)
	}
	return m
}

// Unit draws u = m·2^-B ∈ (0, 1] exactly as the hardware URNG block
// presents it to the inverse-CDF stage.
func Unit(src Source, b int) float64 {
	return math.Ldexp(float64(Bits(src, b)), -b)
}

// Taus88 is the three-component combined Tausworthe generator of
// L'Ecuyer (1996) with period ≈ 2^88. The state components must stay
// above small thresholds (s0 ≥ 2, s1 ≥ 8, s2 ≥ 16) or the component
// degenerates to all-zero; Seed enforces this.
type Taus88 struct {
	s0, s1, s2 uint32
}

// NewTaus88 returns a seeded Taus88 generator.
func NewTaus88(seed uint64) *Taus88 {
	t := &Taus88{}
	t.Seed(seed)
	return t
}

// Seed initializes the state from a 64-bit seed via SplitMix64,
// enforcing the per-component minimums.
func (t *Taus88) Seed(seed uint64) {
	sm := NewSplitMix64(seed)
	t.s0 = uint32(sm.Uint64())
	t.s1 = uint32(sm.Uint64())
	t.s2 = uint32(sm.Uint64())
	if t.s0 < 2 {
		t.s0 += 2
	}
	if t.s1 < 8 {
		t.s1 += 8
	}
	if t.s2 < 16 {
		t.s2 += 16
	}
}

// Uint32 advances the generator and returns the next word.
func (t *Taus88) Uint32() uint32 {
	b := ((t.s0 << 13) ^ t.s0) >> 19
	t.s0 = ((t.s0 & 0xFFFFFFFE) << 12) ^ b
	b = ((t.s1 << 2) ^ t.s1) >> 25
	t.s1 = ((t.s1 & 0xFFFFFFF8) << 4) ^ b
	b = ((t.s2 << 3) ^ t.s2) >> 11
	t.s2 = ((t.s2 & 0xFFFFFFF0) << 17) ^ b
	return t.s0 ^ t.s1 ^ t.s2
}

// LFSR113 is the four-component combined Tausworthe generator of
// L'Ecuyer (1999) with period ≈ 2^113.
type LFSR113 struct {
	z0, z1, z2, z3 uint32
}

// NewLFSR113 returns a seeded LFSR113 generator.
func NewLFSR113(seed uint64) *LFSR113 {
	g := &LFSR113{}
	g.Seed(seed)
	return g
}

// Seed initializes the state, enforcing the per-component minimums
// (z0 ≥ 2, z1 ≥ 8, z2 ≥ 16, z3 ≥ 128).
func (g *LFSR113) Seed(seed uint64) {
	sm := NewSplitMix64(seed)
	g.z0 = uint32(sm.Uint64())
	g.z1 = uint32(sm.Uint64())
	g.z2 = uint32(sm.Uint64())
	g.z3 = uint32(sm.Uint64())
	if g.z0 < 2 {
		g.z0 += 2
	}
	if g.z1 < 8 {
		g.z1 += 8
	}
	if g.z2 < 16 {
		g.z2 += 16
	}
	if g.z3 < 128 {
		g.z3 += 128
	}
}

// Uint32 advances the generator and returns the next word.
func (g *LFSR113) Uint32() uint32 {
	b := ((g.z0 << 6) ^ g.z0) >> 13
	g.z0 = ((g.z0 & 0xFFFFFFFE) << 18) ^ b
	b = ((g.z1 << 2) ^ g.z1) >> 27
	g.z1 = ((g.z1 & 0xFFFFFFF8) << 2) ^ b
	b = ((g.z2 << 13) ^ g.z2) >> 21
	g.z2 = ((g.z2 & 0xFFFFFFF0) << 7) ^ b
	b = ((g.z3 << 3) ^ g.z3) >> 12
	g.z3 = ((g.z3 & 0xFFFFFF80) << 13) ^ b
	return g.z0 ^ g.z1 ^ g.z2 ^ g.z3
}

// SplitMix64 is Steele, Lea & Flood's 64-bit mixer. It is used for
// seeding and for simulation-level randomness where hardware fidelity
// is irrelevant.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next 64 uniform bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniform bits, satisfying Source.
func (s *SplitMix64) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar).
func (s *SplitMix64) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an exponential variate with mean 1.
func (s *SplitMix64) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("urng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}
