package core

// Differential tests: the optimized kernels (kernels.go) against the
// closure reference kernel (kernels_legacy_test.go), over randomized
// parameters, thresholds and synthetic PMFs — including PMFs with
// interior zero-mass entries, the grid holes whose detection the
// sliding-window pass must preserve bit for bit, and plateau PMFs
// whose tied losses the bound-and-prune kernels must neither skip nor
// reorder. Reports must agree
// field for field, WorstOutput/WorstX1/WorstX2 tie-breaks included.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// diffCompare asserts two reports are identical field for field.
func diffCompare(t *testing.T, what string, fast, legacy LossReport) {
	t.Helper()
	if fast != legacy {
		t.Errorf("%s: fast %+v != legacy %+v", what, fast, legacy)
	}
}

// randomParams draws a small valid configuration. Grids stay modest
// so the O(|Y|·|X|) reference stays fast.
func randomParams(rng *rand.Rand) Params {
	for {
		steps := 4 + rng.Intn(60)
		delta := math.Ldexp(1, rng.Intn(5)-3) // 0.125 .. 2
		lo := float64(rng.Intn(32)-16) * delta
		par := Params{
			Lo:    lo,
			Hi:    lo + float64(steps)*delta,
			Eps:   0.1 + 2.4*rng.Float64(),
			Bu:    7 + rng.Intn(8),
			By:    5 + rng.Intn(5),
			Delta: delta,
		}
		if par.Validate() == nil {
			return par
		}
	}
}

// randomThreshold draws a threshold, occasionally past MaxK so the
// kernels also agree on windows wider than the PMF support.
func randomThreshold(rng *rand.Rand, an *Analyzer) int64 {
	m := an.MaxK() + 2
	return rng.Int63n(m + 1)
}

func diffAllMechanisms(t *testing.T, what string, rng *rand.Rand, an *Analyzer) {
	t.Helper()
	diffCompare(t, what+"/baseline", an.BaselineLoss(), an.legacyBaselineLoss())
	th := randomThreshold(rng, an)
	diffCompare(t, fmt.Sprintf("%s/thresholding(t=%d)", what, th),
		an.ThresholdingLoss(th), an.legacyThresholdingLoss(th))
	diffCompare(t, fmt.Sprintf("%s/resampling(t=%d)", what, th),
		an.ResamplingLoss(th), an.legacyResamplingLoss(th))
	k := 1 + rng.Intn(4)
	diffCompare(t, fmt.Sprintf("%s/consttime(t=%d,k=%d)", what, th, k),
		an.ConstantTimeLoss(th, k), an.legacyConstantTimeLoss(th, k))

	// The batched per-output sweep against the single-output scan.
	yLo, losses := an.lossSweep(th)
	for i, l := range losses {
		if ref := an.LossAt(th, yLo+int64(i)); l != ref {
			t.Errorf("%s: sweep loss at y=%d is %g, LossAt says %g", what, yLo+int64(i), l, ref)
		}
	}
}

func TestKernelDifferentialLaplace(t *testing.T) {
	rng := rand.New(rand.NewSource(20180604))
	for trial := 0; trial < 60; trial++ {
		par := randomParams(rng)
		an := NewAnalyzer(par)
		diffAllMechanisms(t, fmt.Sprintf("trial %d %+v", trial, par), rng, an)
	}
}

// randomPMF builds a synthetic signed PMF with randomly placed
// zero-mass entries (interior holes), normalized to total mass 1.
func randomPMF(rng *rand.Rand, maxK int64) []float64 {
	n := 2*maxK + 1
	pmf := make([]float64, n)
	sum := 0.0
	for i := range pmf {
		if rng.Float64() < 0.35 {
			continue // hole
		}
		pmf[i] = rng.Float64()
		sum += pmf[i]
	}
	if sum == 0 {
		pmf[maxK] = 1
		return pmf
	}
	// Normalize, then push the residual rounding error into the
	// largest entry so the total passes the constructor's 1e-9 gate.
	big := 0
	for i := range pmf {
		pmf[i] /= sum
		if pmf[i] > pmf[big] {
			big = i
		}
	}
	total := 0.0
	for _, p := range pmf {
		total += p
	}
	pmf[big] += 1 - total
	return pmf
}

func TestKernelDifferentialSyntheticPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		par := randomParams(rng)
		maxK := 1 + rng.Int63n(96)
		an := NewAnalyzerFromPMF(par, randomPMF(rng, maxK), maxK)
		diffAllMechanisms(t, fmt.Sprintf("synthetic trial %d %+v maxK=%d", trial, par, maxK), rng, an)
	}
}

// TestKernelDifferentialParallel runs the differential comparison on
// a grid large enough that the optimized kernels take the parallel
// work-stealing path, proving the chunked merge matches the purely
// sequential reference.
func TestKernelDifferentialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("legacy reference on the parallel-scale grid is slow")
	}
	an := NewAnalyzer(bigGrid)
	if 2*an.MaxK() < parallelCutoff {
		t.Fatalf("grid too small (%d) to exercise the parallel path", an.MaxK())
	}
	th, err := ThresholdingThreshold(bigGrid, 2)
	if err != nil {
		t.Fatal(err)
	}
	diffCompare(t, "parallel/baseline", an.BaselineLoss(), an.legacyBaselineLoss())
	diffCompare(t, "parallel/thresholding", an.ThresholdingLoss(th), an.legacyThresholdingLoss(th))
	diffCompare(t, "parallel/resampling", an.ResamplingLoss(th), an.legacyResamplingLoss(th))
	diffCompare(t, "parallel/consttime", an.ConstantTimeLoss(th, 3), an.legacyConstantTimeLoss(th, 3))
}

// TestKernelProfileMatchesLossAt pins the profile/segments/interior
// rewrites to the per-output reference on the native RNG.
func TestKernelProfileMatchesLossAt(t *testing.T) {
	par := Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 14, By: 11, Delta: 10.0 / 64}
	an := NewAnalyzer(par)
	th, err := ThresholdingThreshold(par, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi := par.HiSteps()
	for _, p := range an.ThresholdingLossProfile(th) {
		if ref := an.LossAt(th, hi+p.Offset); p.Loss != ref {
			t.Errorf("profile offset %d: %g != LossAt %g", p.Offset, p.Loss, ref)
		}
	}
	worst := 0.0
	for y := par.LoSteps(); y <= hi; y++ {
		if l := an.LossAt(th, y); l > worst {
			worst = l
		}
	}
	if got := an.InteriorLoss(th); got != worst {
		t.Errorf("InteriorLoss %g != per-output max %g", got, worst)
	}
}

// plateauPMF builds a symmetric synthetic PMF shaped like the
// fixed-point count PMFs: integer counts from a small set, non-
// increasing in |k| with long plateaus, and zero-count holes in the
// tail. Equal counts make many outputs tie on the loss, which
// exercises the prune margin and the WorstOutput/WorstX tie-breaks.
func plateauPMF(rng *rand.Rand, maxK int64) []float64 {
	counts := make([]int, maxK+1)
	c := 2 + rng.Intn(4)
	for k := range counts {
		counts[k] = c
		if c > 1 && rng.Intn(8) == 0 {
			c--
		}
	}
	// Holes only in the outer quarter, like the sparse count tail.
	for k := 3 * maxK / 4; k <= maxK; k++ {
		if rng.Intn(6) == 0 {
			counts[k] = 0
		}
	}
	counts[maxK] = 1 // the support edge stays reachable
	total := counts[0]
	for _, n := range counts[1:] {
		total += 2 * n
	}
	pmf := make([]float64, 2*maxK+1)
	for k, n := range counts {
		p := float64(n) / float64(total)
		pmf[maxK+int64(k)], pmf[maxK-int64(k)] = p, p
	}
	return pmf
}

func TestKernelDifferentialPlateauPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(1306))
	for trial := 0; trial < 80; trial++ {
		par := randomParams(rng)
		maxK := 1 + rng.Int63n(96)
		an := NewAnalyzerFromPMF(par, plateauPMF(rng, maxK), maxK)
		diffAllMechanisms(t, fmt.Sprintf("plateau trial %d %+v maxK=%d", trial, par, maxK), rng, an)
	}
}

// TestKernelDifferentialPlateauParallel runs plateau PMFs on output
// windows past parallelCutoff with four Ps, so the chunks — and the
// pruning floor they share — race on tied losses.
func TestKernelDifferentialPlateauParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(2691))
	for trial := 0; trial < 6; trial++ {
		par := randomParams(rng)
		maxK := int64(parallelCutoff) + rng.Int63n(1024)
		an := NewAnalyzerFromPMF(par, plateauPMF(rng, maxK), maxK)
		what := fmt.Sprintf("plateau parallel trial %d %+v maxK=%d", trial, par, maxK)
		// Thresholds wide enough for the parallel path, some past the
		// first tail hole (Infinite) and some inside the hole-free bulk.
		for _, th := range []int64{parallelCutoff / 2, maxK / 2, 3 * maxK / 4, maxK} {
			diffCompare(t, fmt.Sprintf("%s/resampling(t=%d)", what, th),
				an.ResamplingLoss(th), an.legacyResamplingLoss(th))
			k := 1 + rng.Intn(4)
			diffCompare(t, fmt.Sprintf("%s/consttime(t=%d,k=%d)", what, th, k),
				an.ConstantTimeLoss(th, k), an.legacyConstantTimeLoss(th, k))
		}
	}
}

// TestExactThresholdSearchMatchesLegacy pins the threshold searches,
// which probe the bound-and-prune kernels about log2(MaxK) times, to
// the same bisection driven by the legacy reference kernels.
func TestExactThresholdSearchMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(1812))
	for trial := 0; trial < 30; trial++ {
		par := randomParams(rng)
		mult := 1.1 + 2*rng.Float64()
		k := 1 + rng.Intn(4)
		an := NewAnalyzer(par)
		what := fmt.Sprintf("trial %d %+v mult=%g", trial, par, mult)

		got, err := ExactResamplingThreshold(par, mult)
		want, wantErr := searchThreshold(par, func(th int64) bool {
			return an.legacyResamplingLoss(th).Bounded(mult * par.Eps)
		})
		if got != want || (err == nil) != (wantErr == nil) {
			t.Errorf("%s: resampling threshold %d (err %v), legacy bisection %d (err %v)",
				what, got, err, want, wantErr)
		}

		got, err = ExactConstantTimeThreshold(par, mult, k)
		want, wantErr = searchThreshold(par, func(th int64) bool {
			return an.legacyConstantTimeLoss(th, k).Bounded(mult * par.Eps)
		})
		if got != want || (err == nil) != (wantErr == nil) {
			t.Errorf("%s: constant-time(k=%d) threshold %d (err %v), legacy bisection %d (err %v)",
				what, k, got, err, want, wantErr)
		}
	}
}
