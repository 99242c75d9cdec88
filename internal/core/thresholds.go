package core

import (
	"fmt"
	"math"
)

// The closed-form threshold calculators below are the re-derivations
// of the paper's eqs. (13) and (15) recorded in DESIGN.md. Both are
// sufficient (conservative) bounds obtained from ⌊x⌋ ∈ (x−1, x] and
// ⌈x⌉ ∈ [x, x+1); the exact Analyzer certifies the resulting
// mechanisms and the tests assert the bound is honored.
//
// Notation: d = Hi−Lo, λ = d/ε, a = εΔ/d (one noise step in units of
// λ), c = B_u·ln2, D = d/Δ (adjacent-extreme input distance in
// steps). The worst-case loss target is n·ε for a multiplier n > 1.

// pointRatioBound returns the largest real k for which the
// point-mass ratio p(k)/p(k+D) provably stays below exp(mult·ε):
//
//	p(k)   <= (E(k)·S + 1)/2^{B_u+1},  p(k+D) >= (E(k)·S·e^{-ε} − 1)/2^{B_u+1}
//
// with E(k) = exp(c − a·k) and S = e^{a/2} − e^{-a/2}, which yields
//
//	k <= (d/(εΔ))·(B_u·ln2 + ln S + ln(e^{(mult−1)ε} − 1) − ln(e^{mult·ε} + 1)).
//
// As a side effect the bound keeps the retained region hole-free:
// the derivation forces the real-valued count E(k)·S·e^{-ε} above 1,
// so every retained step has at least one URNG draw.
func pointRatioBound(par Params, mult float64) float64 {
	eps := par.Eps
	a := eps * par.Delta / par.Range()
	s := math.Exp(a/2) - math.Exp(-a/2)
	arg := math.Log(s) + math.Log(math.Expm1((mult-1)*eps)) - math.Log(math.Exp(mult*eps)+1)
	return (1 / a) * (float64(par.Bu)*math.Ln2 + arg)
}

// ResamplingThreshold returns the largest threshold (in steps of Δ)
// for which the resampling mechanism's privacy loss provably stays
// below mult·ε (the re-derived eq. 13): n_th1 = ⌊pointRatioBound⌋.
// The certified output range is [Lo − n_th1·Δ, Hi + n_th1·Δ]. An
// error is returned when no positive threshold satisfies the bound
// (the RNG resolution is too coarse for the requested multiplier —
// the regime of Fig. 15(b)).
func ResamplingThreshold(par Params, mult float64) (int64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if mult <= 1 {
		return 0, fmt.Errorf("core: loss multiplier %g must exceed 1", mult)
	}
	// When the output word saturates before the inverse-CDF bound
	// (L/Δ > 2^(B_y-1)-1), the saturation step carries the whole
	// clipped tail as one heavy atom. The acceptance window must
	// exclude it — the atom's mass is far above the neighbouring
	// point masses, so accepting it breaks the ratio bound. The
	// largest admissible threshold keeps even the extreme input's
	// window strictly below the atom: t + D <= KCap - 1.
	return clampThreshold(par, pointRatioBound(par, mult), par.FxP().KCap()-par.RangeSteps()-1)
}

// PaperThresholdingThreshold is the paper's eq. 15, verbatim: the
// largest k with the boundary-atom tail ratio
// Pr[n >= kΔ]/Pr[n >= (k+D)Δ] provably below exp(mult·ε), via
//
//	⌊m1(k)⌋/⌊m1(k+D)⌋ <= m1(k)/(m1(k)e^{-ε} − 1) <= e^{mult·ε}
//	⟹ k <= ½ + (d/(εΔ))·(B_u·ln2 + ln(e^{-ε} − e^{-mult·ε})).
//
// CAVEAT (a finding of this reproduction, recorded in DESIGN.md and
// EXPERIMENTS.md): eq. 15 constrains only the boundary atoms. For
// many parameters the resulting threshold reaches past the first
// zero-probability hole in the RNG's tail, and interior outputs in
// the hole region still reveal some inputs exactly — the exact
// analyzer reports infinite loss. Use ThresholdingThreshold, which
// additionally enforces the interior point-mass condition, for a
// sound threshold.
func PaperThresholdingThreshold(par Params, mult float64) (int64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if mult <= 1 {
		return 0, fmt.Errorf("core: loss multiplier %g must exceed 1", mult)
	}
	eps := par.Eps
	a := eps * par.Delta / par.Range()
	arg := math.Log(math.Exp(-eps) - math.Exp(-mult*eps))
	k := 0.5 + (1/a)*(float64(par.Bu)*math.Ln2+arg)
	return clampThreshold(par, k, par.FxP().MaxK())
}

// ThresholdingThreshold returns a certified threshold (in steps of Δ)
// for the thresholding mechanism: the paper's boundary condition
// (eq. 15) and the interior point-mass condition both hold, so the
// exact worst-case loss is at most mult·ε. Interior outputs at offset
// o < t need every noise step up to o+D bounded pairwise, which the
// pointRatioBound guarantees for o <= bound; hence
//
//	n_th2 = min(eq. 15, ⌊pointRatioBound⌋).
func ThresholdingThreshold(par Params, mult float64) (int64, error) {
	paper, err := PaperThresholdingThreshold(par, mult)
	if err != nil {
		return 0, err
	}
	// Interior outputs at offset o < t involve point masses up to
	// o + D, so the point-ratio bound applies; and when the output
	// word saturates, the window must keep the saturation atom on the
	// clamped boundary (t <= KCap - D) so interior outputs never see
	// it — the boundary tails themselves are unaffected by
	// saturation, which only moves mass within the tail.
	interior, err := clampThreshold(par, pointRatioBound(par, mult), par.FxP().KCap()-par.RangeSteps())
	if err != nil {
		return 0, err
	}
	if interior < paper {
		return interior, nil
	}
	return paper, nil
}

// clampThreshold floors the real-valued bound k and clamps it into
// [1, capSteps].
func clampThreshold(par Params, k float64, capSteps int64) (int64, error) {
	if math.IsNaN(k) || k < 1 || capSteps < 1 {
		return 0, fmt.Errorf("core: no positive certified threshold exists for B_u=%d, B_y=%d, Δ=%g",
			par.Bu, par.By, par.Delta)
	}
	t := int64(math.Floor(k))
	if t > capSteps {
		t = capSteps
	}
	return t, nil
}

// ExactResamplingThreshold searches for a large threshold whose exact
// worst-case loss (per the Analyzer) is at most mult·ε. It is the
// tight counterpart of ResamplingThreshold, useful to quantify how
// conservative the closed form is. The search bisects over [1, MaxK]
// (see searchThreshold): the result is certified, but the loss is not
// monotone in the threshold, so it need not be the largest certified
// threshold. An error is returned when threshold 1 already exceeds
// the target.
func ExactResamplingThreshold(par Params, mult float64) (int64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if mult <= 1 {
		return 0, fmt.Errorf("core: loss multiplier %g must exceed 1", mult)
	}
	an := CachedAnalyzer(par)
	ok := func(t int64) bool {
		return an.ResamplingLoss(t).Bounded(mult * par.Eps)
	}
	return searchThreshold(par, ok)
}

// ExactThresholdingThreshold is the exact-search counterpart of
// ThresholdingThreshold.
func ExactThresholdingThreshold(par Params, mult float64) (int64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if mult <= 1 {
		return 0, fmt.Errorf("core: loss multiplier %g must exceed 1", mult)
	}
	an := CachedAnalyzer(par)
	ok := func(t int64) bool {
		return an.ThresholdingLoss(t).Bounded(mult * par.Eps)
	}
	return searchThreshold(par, ok)
}

// ExactConstantTimeThreshold bisects (see searchThreshold) for a
// threshold whose constant-time-resampling loss (k parallel
// candidates) is certified at mult·ε by the exact analyzer.
func ExactConstantTimeThreshold(par Params, mult float64, k int) (int64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if mult <= 1 {
		return 0, fmt.Errorf("core: loss multiplier %g must exceed 1", mult)
	}
	if k < 1 {
		return 0, fmt.Errorf("core: need at least one candidate sample")
	}
	an := CachedAnalyzer(par)
	return searchThreshold(par, func(t int64) bool {
		return an.ConstantTimeLoss(t, k).Bounded(mult * par.Eps)
	})
}

func searchThreshold(par Params, ok func(int64) bool) (int64, error) {
	hi := par.FxP().MaxK()
	if !ok(1) {
		return 0, fmt.Errorf("core: no positive threshold achieves the target loss")
	}
	// Bisect with the invariant that ok(lo) holds: lo only moves to
	// a threshold that passed, so the result is always certified.
	// The loss is not monotone in the threshold (for B_u 8, range 21,
	// ε .5, mult 2 thresholds 1 and 3..29 pass but 2 and 30 fail), so
	// a failed probe may hide larger passing thresholds: the result
	// is a certified threshold, not necessarily the largest one.
	lo := int64(1)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}
