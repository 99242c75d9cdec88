package core

// Differential tests: the optimized kernels (kernels.go) against the
// closure reference kernel (kernels_legacy_test.go), over randomized
// parameters, thresholds and synthetic PMFs — including PMFs with
// interior zero-mass entries, the grid holes whose detection the
// window table must preserve bit for bit, and plateau PMFs
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

	// The table-driven per-output losses against the single-output scan.
	checkPerOutputLosses(t, what, an, th, randomMultipliers(rng))
	checkWindowTable(t, what, an)
}

// randomMultipliers draws Segments multipliers: unsorted, sometimes
// repeated, some below 1 or large enough to admit every offset.
func randomMultipliers(rng *rand.Rand) []float64 {
	ms := make([]float64, 1+rng.Intn(5))
	for i := range ms {
		if i > 0 && rng.Intn(4) == 0 {
			ms[i] = ms[rng.Intn(i)]
			continue
		}
		ms[i] = 0.5 + 4*rng.Float64()
	}
	return ms
}

// refSegments is Segments from the single-output reference: for each
// multiplier, the largest offset whose LossAt, and every smaller
// offset's, is within the bound.
func refSegments(an *Analyzer, th int64, multipliers []float64) []Segment {
	segs := []Segment{}
	hi := an.par.HiSteps()
	for _, mult := range multipliers {
		bound := mult * an.par.Eps
		best := int64(-1)
		for o := int64(0); o <= th && an.LossAt(th, hi+o) <= bound+lossTol(bound); o++ {
			best = o
		}
		if best >= 0 {
			segs = append(segs, Segment{Mult: mult, Offset: best})
		}
	}
	return segs
}

// checkPerOutputLosses pins ThresholdingLossProfile, Segments and
// InteriorLoss at threshold th to a reference built from LossAt one
// output at a time.
func checkPerOutputLosses(t *testing.T, what string, an *Analyzer, th int64, multipliers []float64) {
	t.Helper()
	what = fmt.Sprintf("%s/per-output(t=%d)", what, th)
	hi := an.par.HiSteps()
	prof := an.ThresholdingLossProfile(th)
	if int64(len(prof)) != th+1 {
		t.Fatalf("%s: profile has %d points, want %d", what, len(prof), th+1)
	}
	for o, p := range prof {
		ref := an.LossAt(th, hi+int64(o))
		if want := (LossPoint{Offset: int64(o), Loss: ref, Normalized: ref / an.par.Eps}); p != want {
			t.Errorf("%s: profile point %+v, LossAt gives %+v", what, p, want)
		}
	}
	worst := 0.0
	for y := an.par.LoSteps(); y <= hi; y++ {
		if l := an.LossAt(th, y); l > worst {
			worst = l
		}
	}
	if got := an.InteriorLoss(th); got != worst {
		t.Errorf("%s: InteriorLoss %g, LossAt max %g", what, got, worst)
	}
	got, want := an.Segments(th, multipliers), refSegments(an, th, multipliers)
	if len(got) != len(want) {
		t.Errorf("%s: Segments(%v) = %+v, reference %+v", what, multipliers, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: Segments(%v) = %+v, reference %+v", what, multipliers, got, want)
			return
		}
	}
}

// checkWindowTable pins the window table to a direct x-ascending scan
// of pmf[y−x] at every output it covers and two outputs past each
// end, where the lookup answers for an all-zero window.
func checkWindowTable(t *testing.T, what string, an *Analyzer) {
	t.Helper()
	xLo, xHi := an.par.LoSteps(), an.par.HiSteps()
	for y := xLo - an.maxK - 2; y <= xHi+an.maxK+2; y++ {
		pMax, xMax, pMin, xMin := an.window(y)
		wMax, wxMax, wMin, wxMin := colExtrema(xLo, xHi, func(x int64) float64 { return an.probK(y - x) })
		if math.Float64bits(pMax) != math.Float64bits(wMax) || xMax != wxMax ||
			math.Float64bits(pMin) != math.Float64bits(wMin) || xMin != wxMin {
			t.Fatalf("%s: window(%d) = (%g, %d, %g, %d), column scan (%g, %d, %g, %d)",
				what, y, pMax, xMax, pMin, xMin, wMax, wxMax, wMin, wxMin)
		}
	}
}

// TestPerOutputLossesMatchLossAt pins the table-driven profile,
// charging bands and interior loss to the single-output reference at
// the threshold corners — t = 0, t = MaxK and past it — on native,
// synthetic (holes) and plateau (tied) PMFs, with unsorted and
// repeated multipliers.
func TestPerOutputLossesMatchLossAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3535))
	for trial := 0; trial < 90; trial++ {
		par := randomParams(rng)
		var an *Analyzer
		switch maxK := 1 + rng.Int63n(96); trial % 3 {
		case 0:
			an = NewAnalyzer(par)
		case 1:
			an = NewAnalyzerFromPMF(par, randomPMF(rng, maxK), maxK)
		default:
			an = NewAnalyzerFromPMF(par, plateauPMF(rng, maxK), maxK)
		}
		what := fmt.Sprintf("trial %d %+v maxK=%d", trial, par, an.MaxK())
		m := an.MaxK()
		for _, th := range []int64{0, 1, m / 2, m, m + 1, m + 3} {
			checkPerOutputLosses(t, what, an, th, randomMultipliers(rng))
		}
		checkPerOutputLosses(t, what, an, m, []float64{1.25, 1.5, 1.75})
		checkPerOutputLosses(t, what, an, m, []float64{3, 1.5, 1.5, 0.25, 3})
		// Bounds within rounding of an observed loss, where the
		// relative tolerance decides the band.
		if l := an.LossAt(m, an.par.HiSteps()); l > 0 && !math.IsInf(l, 1) {
			checkPerOutputLosses(t, what, an, m, []float64{math.Nextafter(l/par.Eps, 0), l / par.Eps})
		}
	}
}

// TestWindowTableMatchesColumnScan pins every window-table entry,
// values and attaining inputs, to the legacy strict-comparison column
// scan (the smallest input wins a tie) on native, synthetic and
// plateau PMFs, including outputs just outside the table on both
// sides.
func TestWindowTableMatchesColumnScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1024))
	for trial := 0; trial < 60; trial++ {
		par := randomParams(rng)
		maxK := 1 + rng.Int63n(96)
		what := fmt.Sprintf("trial %d %+v", trial, par)
		checkWindowTable(t, what+"/native", NewAnalyzer(par))
		checkWindowTable(t, what+"/synthetic", NewAnalyzerFromPMF(par, randomPMF(rng, maxK), maxK))
		checkWindowTable(t, what+"/plateau", NewAnalyzerFromPMF(par, plateauPMF(rng, maxK), maxK))
	}
	// A grid wider than the PMF support: every window reaches past it.
	par := Params{Lo: 0, Hi: 40, Eps: 1, Bu: 8, By: 4, Delta: 0.25}
	checkWindowTable(t, "wide grid", NewAnalyzer(par))
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

// TestKernelProfileMatchesLossAt pins the profile, the charging bands
// and the interior loss to the per-output reference on the native RNG
// at a certified threshold.
func TestKernelProfileMatchesLossAt(t *testing.T) {
	par := Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 14, By: 11, Delta: 10.0 / 64}
	th, err := ThresholdingThreshold(par, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkPerOutputLosses(t, "native", NewAnalyzer(par), th, []float64{1.25, 1.5, 1.75})
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

// firstHole returns the smallest noise step k > 0 with zero mass, or
// MaxK+1 when the PMF's positive tail has none.
func firstHole(an *Analyzer) int64 {
	for k := int64(1); k <= an.MaxK(); k++ {
		if an.probK(k) == 0 {
			return k
		}
	}
	return an.MaxK() + 1
}

// probeThresholds spreads thresholds over [1, MaxK], adding the ones
// around the first PMF hole, where the renormalized mechanisms turn
// one-sided.
func probeThresholds(rng *rand.Rand, an *Analyzer) []int64 {
	m := an.MaxK()
	h := firstHole(an)
	ths := []int64{1, m / 4, m / 2, 3 * m / 4, m, h - 1, h, h + 1, 1 + rng.Int63n(m)}
	out := ths[:0]
	for _, th := range ths {
		if th >= 1 && th <= m {
			out = append(out, th)
		}
	}
	return out
}

// probeBounds returns the bounds that put a probe at its edge: the
// full MaxLoss, one ulp either side and one lossTol either side, plus
// a search-like mult·ε. An infinite report gets the search-like bound
// only.
func probeBounds(rng *rand.Rand, par Params, full LossReport) []float64 {
	bounds := []float64{(1.1 + 2*rng.Float64()) * par.Eps}
	if m := full.MaxLoss; !full.Infinite {
		bounds = append(bounds, m, math.Nextafter(m, math.Inf(1)), math.Nextafter(m, math.Inf(-1)),
			m+lossTol(m), m-lossTol(m))
	}
	return bounds
}

// checkProbe compares one probe call against the full report: the
// verdict always, and, when the bound is at most the full MaxLoss and
// the verdict holds, the decision scan's report field for field
// (kernels.go: the probe prunes nothing at or above the true maximum
// and stops nowhere).
func checkProbe(t *testing.T, what string, full LossReport, bound float64, verdict bool, decision func() LossReport) {
	t.Helper()
	if want := full.Bounded(bound); verdict != want {
		t.Errorf("%s bound=%v: probe verdict %v, full report %+v says %v", what, bound, verdict, full, want)
		return
	}
	if verdict && bound <= full.MaxLoss {
		if rep := decision(); rep != full {
			t.Errorf("%s bound=%v: decision report %+v != full %+v", what, bound, rep, full)
		}
	}
}

// probeAll checks every mechanism's probe at each threshold and edge
// bound against the full kernels. One probe serves every call, as one
// serves a whole search, so stale per-input tables would show.
func probeAll(t *testing.T, what string, rng *rand.Rand, an *Analyzer, ths []int64) {
	t.Helper()
	p := &probe{an: an, ct: new(ctTables)}
	for _, th := range ths {
		k := 1 + rng.Intn(4)
		full := an.ThresholdingLoss(th)
		for _, b := range probeBounds(rng, an.par, full) {
			checkProbe(t, fmt.Sprintf("%s/thresholding(t=%d)", what, th), full, b, p.thresholding(th, b),
				func() LossReport { return an.thresholdingLoss(th, b+lossTol(b)) })
		}
		full = an.ResamplingLoss(th)
		for _, b := range probeBounds(rng, an.par, full) {
			checkProbe(t, fmt.Sprintf("%s/resampling(t=%d)", what, th), full, b, p.resampling(th, b),
				func() LossReport {
					p.floor.seed(b)
					return an.resamplingLoss(p.z, th, &p.floor, b+lossTol(b))
				})
		}
		full = an.ConstantTimeLoss(th, k)
		for _, b := range probeBounds(rng, an.par, full) {
			checkProbe(t, fmt.Sprintf("%s/consttime(t=%d,k=%d)", what, th, k), full, b, p.constantTime(th, k, b),
				func() LossReport {
					p.floor.seed(b)
					return an.constantTimeLoss(p.ct, th, k, &p.floor, b+lossTol(b))
				})
		}
	}
}

// TestBoundedProbeMatchesFullKernel pins the decision probes the
// exact threshold searches run — the bound-and-prune kernels with the
// floor seeded at the bound and a stop past it — to the full kernels'
// Bounded verdicts, on the sequential path (small random grids, native
// and plateau PMFs) and on the parallel path (output windows past
// parallelCutoff with four Ps).
func TestBoundedProbeMatchesFullKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2511))
	for trial := 0; trial < 40; trial++ {
		par := randomParams(rng)
		an := NewAnalyzer(par)
		probeAll(t, fmt.Sprintf("trial %d %+v", trial, par), rng, an, probeThresholds(rng, an))
	}
	for trial := 0; trial < 40; trial++ {
		par := randomParams(rng)
		maxK := 1 + rng.Int63n(96)
		an := NewAnalyzerFromPMF(par, plateauPMF(rng, maxK), maxK)
		probeAll(t, fmt.Sprintf("plateau trial %d %+v maxK=%d", trial, par, maxK), rng, an, probeThresholds(rng, an))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	an := NewAnalyzer(bigGrid)
	th, err := ResamplingThreshold(bigGrid, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := firstHole(an)
	if 2*th < parallelCutoff || 2*h < parallelCutoff {
		t.Fatalf("grid too small (t=%d, hole %d) to exercise the parallel path", th, h)
	}
	probeAll(t, "parallel", rng, an, []int64{th, (th + h) / 2, h - 1, h, an.MaxK()})
	for trial := 0; trial < 4; trial++ {
		par := randomParams(rng)
		maxK := int64(parallelCutoff) + rng.Int63n(1024)
		an := NewAnalyzerFromPMF(par, plateauPMF(rng, maxK), maxK)
		probeAll(t, fmt.Sprintf("plateau parallel trial %d %+v maxK=%d", trial, par, maxK), rng, an,
			[]int64{parallelCutoff / 2, maxK / 2, 3 * maxK / 4, maxK})
	}
}
