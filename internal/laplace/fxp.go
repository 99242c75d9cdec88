package laplace

import (
	"fmt"
	"math"
	"math/bits"

	"ulpdp/internal/cordic"
	"ulpdp/internal/noisedist"
	"ulpdp/internal/urng"
)

// FxPParams describes a fixed-point Laplace RNG in the terms of
// Section III-A2: a B_u-bit uniform magnitude draw u = m·2^-B_u, an
// inverse-CDF map -λ·ln(u), rounding to the nearest multiple of the
// quantization step Δ, saturation at the B_y-bit signed output word,
// and an independent sign bit.
type FxPParams struct {
	Bu     int     // URNG magnitude bits, 2..30
	By     int     // signed output bits, 2..30
	Delta  float64 // quantization step Δ > 0
	Lambda float64 // Laplace scale λ = d/ε > 0
}

// Validate reports whether the parameters are usable.
func (p FxPParams) Validate() error {
	if p.Bu < 2 || p.Bu > 30 {
		return fmt.Errorf("laplace: Bu %d out of range [2,30]", p.Bu)
	}
	if p.By < 2 || p.By > 30 {
		return fmt.Errorf("laplace: By %d out of range [2,30]", p.By)
	}
	if !(p.Delta > 0) {
		return fmt.Errorf("laplace: Delta %g must be positive", p.Delta)
	}
	if !(p.Lambda > 0) {
		return fmt.Errorf("laplace: Lambda %g must be positive", p.Lambda)
	}
	return nil
}

// KCap returns the saturation limit of the output magnitude in steps:
// |k| <= KCap.
func (p FxPParams) KCap() int64 { return int64(1)<<(p.By-1) - 1 }

// MaxNoise returns L = λ·B_u·ln2, the largest magnitude the inverse
// CDF can produce before output saturation (the paper's bound on the
// FxP RNG range).
func (p FxPParams) MaxNoise() float64 {
	return p.Lambda * float64(p.Bu) * math.Ln2
}

// MaxK returns the largest k the RNG actually emits: the inverse-CDF
// bound and the output-word bound, whichever is smaller.
func (p FxPParams) MaxK() int64 {
	k := int64(math.Round(p.MaxNoise() / p.Delta))
	if cap := p.KCap(); k > cap {
		return cap
	}
	return k
}

// Dist is the exact output distribution of the fixed-point Laplace
// RNG, the closed form of eq. 11, computed by the generic engine in
// internal/noisedist.
type Dist = noisedist.Dist

// NewDist returns the exact distribution of the RNG with parameters
// par. It panics on invalid parameters.
func NewDist(par FxPParams) Dist {
	if err := par.Validate(); err != nil {
		panic(err)
	}
	// Validate checks every geometry field, so this cannot fail.
	d, _ := noisedist.NewDist(noisedist.Laplace{Lambda: par.Lambda}, noisedist.Geometry{Bu: par.Bu, By: par.By, Delta: par.Delta})
	return d
}

// LogUnit is the log datapath the sampler uses: the CORDIC core, the
// polynomial approximation, or an exact float64 log (the idealized
// datapath the closed-form analysis assumes).
type LogUnit interface {
	// LnRaw returns ln(v·2^-frac) with Frac() fractional bits.
	LnRaw(v int64, frac int) int64
	// Frac is the fixed-point resolution of the result.
	Frac() int
}

// FloatLog is a LogUnit evaluating ln exactly in float64 and
// quantizing to Frac fractional bits — the reference datapath.
type FloatLog struct{ FracBits int }

// LnRaw implements LogUnit.
func (f FloatLog) LnRaw(v int64, frac int) int64 {
	if v <= 0 {
		panic("laplace: ln of non-positive value")
	}
	return int64(math.Round(math.Ldexp(math.Log(math.Ldexp(float64(v), -frac)), f.FracBits)))
}

// Frac implements LogUnit.
func (f FloatLog) Frac() int { return f.FracBits }

// Sampler is the fixed-point Laplace RNG datapath of Fig. 3.
type Sampler struct {
	par FxPParams
	log LogUnit
	src urng.Source
	// tab is the memoized magnitude map (table.go); nil evaluates the
	// log unit per draw.
	tab *magTable
	// buLn2 is B_u·ln2 in the log unit's fixed point, so the
	// magnitude -λ·ln(m·2^-Bu) = λ·(B_u·ln2 - ln m) is formed with a
	// single subtract, as the hardware does.
	buLn2 int64
	// Integer scaling datapath (hardware mode): the ratio λ/Δ as
	// scaleNum·2^-scaleShift, applied with a 128-bit multiply and a
	// round-half-up shift — the DP-Box's shift-based ε = 2^-n_m
	// multiply. Zero scaleNum selects the float64 reference scaling.
	scaleNum   int64
	scaleShift uint
}

// NewSampler wires a fixed-point Laplace RNG from its parameters, a
// log unit and a uniform source. Pass log == nil for the shared
// default CORDIC core, whose magnitude map is read from a memoized
// table (table.go) up to B_u = 20. Parameters are caller
// configuration, so invalid ones are a returned error, not a panic
// (DESIGN.md §6).
func NewSampler(par FxPParams, log LogUnit, src urng.Source) (*Sampler, error) {
	s := new(Sampler)
	if err := s.Init(par, log, src, false); err != nil {
		return nil, err
	}
	return s, nil
}

// Init wires s in place, so an owner can embed its sampler instead of
// allocating one: with hw false as NewSampler builds it, with hw true
// as NewHWSampler does. On error s is left unchanged.
func (s *Sampler) Init(par FxPParams, log LogUnit, src urng.Source, hw bool) error {
	if err := par.Validate(); err != nil {
		return err
	}
	if log == nil {
		log = cordic.Default()
	}
	var num int64
	var shift uint
	if hw {
		ratio := par.Lambda / par.Delta
		var ok bool
		if num, shift, ok = dyadic(ratio); !ok {
			return fmt.Errorf("laplace: λ/Δ = %g is not exactly dyadic; use NewSampler", ratio)
		}
	}
	*s = Sampler{
		par:        par,
		log:        log,
		src:        src,
		buLn2:      int64(math.Round(math.Ldexp(float64(par.Bu)*math.Ln2, log.Frac()))),
		scaleNum:   num,
		scaleShift: shift,
	}
	if tabulable(par, log) {
		s.tab = fetchTable(par, hw)
	}
	return nil
}

// Params returns the sampler's parameters.
func (s *Sampler) Params() FxPParams { return s.par }

// SampleK draws one noise value and returns it as the signed step
// count k (the noise value is k·Δ).
func (s *Sampler) SampleK() int64 {
	k := s.MagnitudeForDraw(urng.Bits(s.src, s.par.Bu))
	if s.signBit() {
		return -k
	}
	return k
}

// Sample draws one noise value k·Δ as a float64 (exactly on the grid).
func (s *Sampler) Sample() float64 { return float64(s.SampleK()) * s.par.Delta }

// NewHWSampler wires the sampler with the integer scaling datapath:
// the ratio λ/Δ must be exactly representable as num·2^-shift with
// num < 2^40 (the DP-Box always satisfies this — its ε is a power of
// two and its port values are grid steps, eq. 19). Bit-for-bit
// reproducibility then extends through the entire datapath: no
// float64 operation touches the noise.
func NewHWSampler(par FxPParams, log LogUnit, src urng.Source) (*Sampler, error) {
	s := new(Sampler)
	if err := s.Init(par, log, src, true); err != nil {
		return nil, err
	}
	return s, nil
}

// dyadic decomposes v into num·2^-shift exactly, with num < 2^40 and
// shift <= 40.
func dyadic(v float64) (int64, uint, bool) {
	if !(v > 0) || math.IsInf(v, 0) {
		return 0, 0, false
	}
	for shift := uint(0); shift <= 40; shift++ {
		scaled := math.Ldexp(v, int(shift))
		if scaled != math.Trunc(scaled) {
			continue
		}
		if scaled >= 1<<40 {
			return 0, 0, false
		}
		return int64(scaled), shift, true
	}
	return 0, 0, false
}

// magnitudeK evaluates the log unit to map the URNG draw m to the
// rounded, saturated magnitude in steps — the deterministic part of
// the datapath, and what a magnitude table holds.
func (s *Sampler) magnitudeK(m uint64) int64 {
	lnU := s.log.LnRaw(int64(m), s.par.Bu) // ln(m·2^-Bu) <= 0
	var k int64
	if s.scaleNum != 0 {
		k = s.integerScale(-lnU)
	} else {
		mag := -math.Ldexp(float64(lnU), -s.log.Frac()) * s.par.Lambda
		k = int64(math.Round(mag / s.par.Delta))
	}
	if cap := s.par.KCap(); k > cap {
		k = cap
	}
	if k < 0 {
		k = 0
	}
	return k
}

// integerScale computes round_half_up((scaleNum × negLn) >>
// (scaleShift + log.Frac())) with a full 128-bit product.
func (s *Sampler) integerScale(negLn int64) int64 {
	if negLn <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(s.scaleNum), uint64(negLn))
	shift := s.scaleShift + uint(s.log.Frac())
	// Add half an output step before shifting for round-half-up.
	halfHi, halfLo := uint64(0), uint64(0)
	if shift > 0 {
		if shift <= 64 {
			halfLo = 1 << (shift - 1)
		} else {
			halfHi = 1 << (shift - 65)
		}
	}
	var carry uint64
	lo, carry = bits.Add64(lo, halfLo, 0)
	hi, _ = bits.Add64(hi, halfHi, carry)
	if shift >= 64 {
		return int64(hi >> (shift - 64))
	}
	return int64(hi<<(64-shift) | lo>>shift)
}

// MagnitudeForDraw is the deterministic URNG→magnitude map for a draw
// m ∈ [1, 2^Bu]: the sampler's table entry, or the log unit evaluated
// when it has no table. Exhaustive equivalence tests enumerate it
// against Dist.
func (s *Sampler) MagnitudeForDraw(m uint64) int64 {
	if s.tab == nil {
		return s.magnitudeK(m)
	}
	e := &s.tab.k[m-1]
	if v := e.Load(); v != 0 {
		return int64(v - 1)
	}
	k := s.magnitudeK(m)
	e.Store(int32(k) + 1)
	return k
}

func (s *Sampler) signBit() bool { return s.src.Uint32()&1 == 1 }
