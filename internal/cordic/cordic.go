// Package cordic implements the fixed-point natural-logarithm
// datapath of an ultra-low-power RNG: a hyperbolic CORDIC core (the
// option DP-Box uses, single-cycle when fully unrolled).
//
// It evaluates ln(x) for x > 0 by normalizing x = w·2^p with
// w ∈ [1, 2) and computing ln(x) = ln(w) + p·ln 2. All internal
// arithmetic is integer (two's-complement fixed point with guard
// bits), so the result is bit-reproducible — exactly what the privacy
// analysis of the FxP RNG requires.
package cordic

import (
	"fmt"
	"math"
	"math/bits"
)

// Config parameterizes the CORDIC core.
type Config struct {
	// Iterations is the number of hyperbolic rotations. Each adds
	// roughly one bit of precision; DP-Box unrolls all of them into
	// one combinational cycle. Valid range [4, 60].
	Iterations int
	// Frac is the number of fractional bits of the internal datapath.
	// Valid range [8, 58].
	Frac int
}

// DefaultConfig is sized for the paper's 20-bit datapath: enough
// iterations and guard bits that CORDIC error is below half an output
// LSB for every B_u <= 24.
var DefaultConfig = Config{Iterations: 30, Frac: 40}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Iterations < 4 || c.Iterations > 60 {
		return fmt.Errorf("cordic: iterations %d out of range [4,60]", c.Iterations)
	}
	if c.Frac < 8 || c.Frac > 58 {
		return fmt.Errorf("cordic: frac %d out of range [8,58]", c.Frac)
	}
	return nil
}

// Core is a hyperbolic-vectoring CORDIC logarithm unit with a
// precomputed atanh(2^-i) table quantized to the datapath width.
type Core struct {
	cfg   Config
	atanh []int64 // atanh(2^-i), i = 1..Iterations, in cfg.Frac fixed point
	ln2   int64   // ln 2 in cfg.Frac fixed point
}

// New builds a Core. It panics if cfg is invalid (a construction-time
// programming error, not a runtime condition).
func New(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{cfg: cfg}
	c.atanh = make([]int64, cfg.Iterations+1)
	for i := 1; i <= cfg.Iterations; i++ {
		c.atanh[i] = toFixed(math.Atanh(math.Ldexp(1, -i)), cfg.Frac)
	}
	c.ln2 = toFixed(math.Ln2, cfg.Frac)
	return c
}

// defaultCore is the DefaultConfig core, built once: a Core is
// immutable after New, so every sampler can share it.
var defaultCore = New(DefaultConfig)

// Default returns the shared DefaultConfig core.
func Default() *Core { return defaultCore }

func toFixed(x float64, frac int) int64 {
	return int64(math.Round(math.Ldexp(x, frac)))
}

// LnRaw computes ln(v·2^-frac) for a positive integer mantissa v,
// returning the result in the core's internal fixed point (Frac
// fractional bits). It panics if v <= 0: the FxP RNG never feeds the
// log unit zero (the URNG output u is in (0, 1]).
func (c *Core) LnRaw(v int64, frac int) int64 {
	if v <= 0 {
		panic("cordic: ln of non-positive value")
	}
	// Normalize: v·2^-frac = w·2^p with w in [1, 2).
	msb := 63 - bits.LeadingZeros64(uint64(v))
	p := msb - frac
	// Mantissa w with cfg.Frac fractional bits.
	var w int64
	if shift := c.cfg.Frac - msb; shift >= 0 {
		w = v << uint(shift)
	} else {
		w = v >> uint(-shift)
	}
	return c.lnMantissa(w) + int64(p)*c.ln2
}

// lnMantissa computes ln(w) for w in [1,2) with cfg.Frac fractional
// bits via atanh: ln w = 2·atanh((w-1)/(w+1)).
func (c *Core) lnMantissa(w int64) int64 {
	one := int64(1) << uint(c.cfg.Frac)
	x := w + one
	y := w - one
	var z int64
	// Hyperbolic vectoring with the classical repeated iterations at
	// i = 4, 13, 40 to guarantee convergence.
	i := 1
	next := 4
	for n := 0; n < c.cfg.Iterations; n++ {
		xi := x >> uint(i)
		yi := y >> uint(i)
		if y >= 0 {
			x -= yi
			y -= xi
			z += c.atanh[i]
		} else {
			x += yi
			y += xi
			z -= c.atanh[i]
		}
		if i == next && n+1 < c.cfg.Iterations {
			// Repeat this i once; schedule the following repeat.
			next = 3*next + 1
			continue
		}
		i++
		if i > c.cfg.Iterations {
			break
		}
	}
	return 2 * z
}

// LnUnit computes ln(u) for u = mVal·2^-b ∈ (0, 1] (the URNG output)
// and returns it in the core's internal fixed point. This is the
// exact operation in the inverse-CDF stage of Fig. 3.
func (c *Core) LnUnit(mVal uint64, b int) int64 {
	return c.LnRaw(int64(mVal), b)
}

// Frac returns the internal fixed-point resolution.
func (c *Core) Frac() int { return c.cfg.Frac }
