// Package noisedist generalizes the fixed-point RNG analysis beyond
// the Laplace distribution. Section III-A4 of the paper argues that
// *any* DP-guaranteeing noise distribution — Laplace, Gaussian, or
// the staircase mechanism — fails on finite-precision hardware for
// the same two reasons (bounded range, quantized tail probabilities).
// This package makes that claim executable: a Family abstracts the
// ideal magnitude distribution, Dist derives the exact PMF of its
// inverse-CDF fixed-point implementation, and the tests show the
// bounded-support/tail-hole pathology for every family.
//
// Dist is the repo's only exact-PMF engine: with the Laplace family it
// is also the PMF the analyzer, the DP-Box and the budget certify the
// paper's own RNG against (laplace.Dist is an alias).
package noisedist

import (
	"fmt"
	"math"
)

// Family is an ideal symmetric noise distribution, described through
// its positive magnitude half: the hardware draws a sign bit and a
// magnitude mag = Quantile(u) from a uniform u ∈ (0, 1].
type Family interface {
	// Name identifies the family.
	Name() string
	// Quantile maps a uniform draw u ∈ (0, 1] to the magnitude with
	// survival probability u: Pr[mag >= Quantile(u)] = u. It must be
	// non-increasing in u with Quantile(1) = 0.
	Quantile(u float64) float64
	// Survival is the inverse map: Pr[mag >= x] for x >= 0.
	Survival(x float64) float64
	// Density is the signed noise density at x (for plots and bulk
	// comparisons).
	Density(x float64) float64
}

// Laplace is the Lap(λ) family (the paper's default).
type Laplace struct {
	// Lambda is the scale λ = d/ε.
	Lambda float64
}

// Name implements Family.
func (l Laplace) Name() string { return "laplace" }

// Quantile implements Family: mag = −λ·ln(u).
func (l Laplace) Quantile(u float64) float64 {
	if u <= 0 || u > 1 {
		panic(fmt.Sprintf("noisedist: uniform draw %g out of (0,1]", u))
	}
	return -l.Lambda * math.Log(u)
}

// Survival implements Family.
func (l Laplace) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-x / l.Lambda)
}

// Density implements Family.
func (l Laplace) Density(x float64) float64 {
	return math.Exp(-math.Abs(x)/l.Lambda) / (2 * l.Lambda)
}

// Gaussian is the N(0, σ²) family. For (ε, δ)-DP the scale is
// σ = d·sqrt(2·ln(1.25/δ))/ε; the caller supplies σ directly.
type Gaussian struct {
	// Sigma is the standard deviation.
	Sigma float64
}

// Name implements Family.
func (g Gaussian) Name() string { return "gaussian" }

// Quantile implements Family: the half-normal inverse survival,
// mag = σ·√2·erfinv(1−u) (so u = erfc(mag/(σ√2))).
func (g Gaussian) Quantile(u float64) float64 {
	if u <= 0 || u > 1 {
		panic(fmt.Sprintf("noisedist: uniform draw %g out of (0,1]", u))
	}
	if u == 1 {
		return 0
	}
	return g.Sigma * math.Sqrt2 * math.Erfinv(1-u)
}

// Survival implements Family.
func (g Gaussian) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Erfc(x / (g.Sigma * math.Sqrt2))
}

// Density implements Family.
func (g Gaussian) Density(x float64) float64 {
	return math.Exp(-x*x/(2*g.Sigma*g.Sigma)) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// Staircase is the geometric-mixture staircase mechanism of Geng &
// Viswanath, the optimal ε-DP additive noise: the density is a
// staircase with steps of width γ·d and (1−γ)·d, dropping by e^−ε
// every period d. Gamma in (0, 1); γ* = 1/(1+e^{ε/2}) minimizes the
// expected magnitude.
type Staircase struct {
	// Eps is the privacy parameter ε.
	Eps float64
	// D is the query sensitivity (the sensor range length).
	D float64
	// Gamma is the step-split parameter in (0, 1).
	Gamma float64
}

// OptimalGamma returns γ* = 1/(1+e^{ε/2}).
func OptimalGamma(eps float64) float64 { return 1 / (1 + math.Exp(eps/2)) }

// Name implements Family.
func (s Staircase) Name() string { return "staircase" }

// a returns e^{-ε}.
func (s Staircase) a() float64 { return math.Exp(-s.Eps) }

// normalization returns the density value on the first (highest)
// stair so the signed density integrates to 1:
// 2·h·Σ_k a^k·(γd + (1−γ)d·a) = 1.
func (s Staircase) height() float64 {
	a := s.a()
	return (1 - a) / (2 * s.D * (s.Gamma + (1-s.Gamma)*a))
}

// Density implements Family. The stair holding |x| ∈ [kd, (k+1)d)
// has value h·a^k on [kd, kd+γd) and h·a^{k+1} on [kd+γd, (k+1)d).
func (s Staircase) Density(x float64) float64 {
	ax := math.Abs(x)
	k := math.Floor(ax / s.D)
	h := s.height() * math.Pow(s.a(), k)
	if ax-k*s.D >= s.Gamma*s.D {
		h *= s.a()
	}
	return h
}

// Survival implements Family: closed-form integral of the staircase
// tail.
func (s Staircase) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	a := s.a()
	h := s.height()
	k := math.Floor(x / s.D)
	// Tail beyond the next period boundary: full periods sum.
	hk := h * math.Pow(a, k)
	perPeriod := s.Gamma*s.D + (1-s.Gamma)*s.D*a
	tailBeyond := hk * a * perPeriod / (1 - a)
	// Remainder of the current period from x to (k+1)d.
	frac := x - k*s.D
	var rest float64
	if frac < s.Gamma*s.D {
		rest = hk*(s.Gamma*s.D-frac) + hk*a*(1-s.Gamma)*s.D
	} else {
		rest = hk * a * (s.D - frac)
	}
	// One-sided survival of |n| counts both signs: the density here
	// is the signed one, magnitudes double it.
	return 2 * (rest + tailBeyond)
}

// Quantile implements Family by numerically inverting Survival
// (monotone bisection; the staircase has no closed-form inverse in
// this parameterization worth hand-rolling).
func (s Staircase) Quantile(u float64) float64 {
	if u <= 0 || u > 1 {
		panic(fmt.Sprintf("noisedist: uniform draw %g out of (0,1]", u))
	}
	if u == 1 {
		return 0
	}
	// Bracket: survival decays by e^-ε per period.
	hi := s.D
	for s.Survival(hi) > u {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	lo := 0.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if s.Survival(mid) > u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Validate reports whether the staircase parameters are usable.
func (s Staircase) Validate() error {
	if !(s.Eps > 0) {
		return fmt.Errorf("noisedist: staircase eps %g <= 0", s.Eps)
	}
	if !(s.D > 0) {
		return fmt.Errorf("noisedist: staircase sensitivity %g <= 0", s.D)
	}
	if !(s.Gamma > 0 && s.Gamma < 1) {
		return fmt.Errorf("noisedist: staircase gamma %g out of (0,1)", s.Gamma)
	}
	return nil
}
