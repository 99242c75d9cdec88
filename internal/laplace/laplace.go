// Package laplace implements the noise sources of the paper: the
// ideal (real-valued) Laplace distribution used as the privacy
// reference, and the fixed-point inverse-CDF Laplace RNG of Fig. 3
// whose quantized, bounded output is the root cause of the infinite
// privacy loss the paper demonstrates.
//
// Sampler draws concrete noise values through a hardware-faithful
// datapath (Tausworthe URNG → log unit → scale → round → sign). Dist,
// the exact probability mass function of that datapath (the closed
// form of eq. 11), is the Laplace member of internal/noisedist's
// exact-PMF engine, the one every analysis consumes. The tests check
// that Sampler and Dist agree bit-for-bit by enumerating the URNG
// input space.
package laplace

import (
	"fmt"
	"math"

	"ulpdp/internal/urng"
)

// Ideal is a real-valued Laplace noise source with mean zero and
// scale lambda (density 1/(2λ)·exp(-|x|/λ)).
type Ideal struct {
	lambda float64
	src    *urng.SplitMix64
}

// NewIdeal returns an ideal Laplace sampler. The scale is caller
// configuration, so a non-positive lambda is a returned error, not a
// panic (DESIGN.md §6).
func NewIdeal(lambda float64, seed uint64) (*Ideal, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("laplace: non-positive scale %g", lambda)
	}
	return &Ideal{lambda: lambda, src: urng.NewSplitMix64(seed)}, nil
}

// Sample draws one variate.
func (l *Ideal) Sample() float64 {
	u := l.src.Float64()
	// Inverse CDF on (−1/2, 1/2]: F⁻¹(p) = −λ·sgn(p)·ln(1−2|p|).
	p := u - 0.5
	if p == 0 {
		return 0
	}
	mag := -l.lambda * math.Log(1-2*math.Abs(p))
	if p < 0 {
		return -mag
	}
	return mag
}

// Scale returns λ.
func (l *Ideal) Scale() float64 { return l.lambda }

// PDF evaluates the Laplace density with scale lambda at x.
func PDF(x, lambda float64) float64 {
	return math.Exp(-math.Abs(x)/lambda) / (2 * lambda)
}

// CDF evaluates the Laplace cumulative distribution at x.
func CDF(x, lambda float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/lambda)
	}
	return 1 - 0.5*math.Exp(-x/lambda)
}

// Quantile is the inverse CDF for p in (0, 1).
func Quantile(p, lambda float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("laplace: quantile of p=%g", p))
	}
	if p < 0.5 {
		return lambda * math.Log(2*p)
	}
	return -lambda * math.Log(2*(1-p))
}
