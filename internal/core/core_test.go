package core

import (
	"math"
	"testing"

	"ulpdp/internal/laplace"
	"ulpdp/internal/urng"
)

// fig4 mirrors the paper's running example: Lap(20) noise from a
// 17-bit URNG on a 12-bit output grid with Δ = 10/2^5, which arises
// from a sensor range of length 10 at ε = 0.5.
var fig4 = Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}

// small is a coarse configuration used where exhaustive checks must
// stay fast.
var small = Params{Lo: 0, Hi: 8, Eps: 0.5, Bu: 12, By: 10, Delta: 0.5}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"fig4", fig4, true},
		{"small", small, true},
		{"empty range", Params{Lo: 5, Hi: 5, Eps: 1, Bu: 10, By: 10, Delta: 0.1}, false},
		{"inverted range", Params{Lo: 5, Hi: 4, Eps: 1, Bu: 10, By: 10, Delta: 0.1}, false},
		{"zero eps", Params{Lo: 0, Hi: 1, Eps: 0, Bu: 10, By: 10, Delta: 0.1}, false},
		{"bad bu", Params{Lo: 0, Hi: 1, Eps: 1, Bu: 0, By: 10, Delta: 0.1}, false},
		{"range below step", Params{Lo: 0, Hi: 0.4, Eps: 1, Bu: 10, By: 10, Delta: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestParamsDerived(t *testing.T) {
	if got := fig4.Lambda(); got != 20 {
		t.Errorf("lambda = %g, want 20", got)
	}
	if got := fig4.RangeSteps(); got != 32 {
		t.Errorf("range steps = %d, want 32", got)
	}
	if got := fig4.LoSteps(); got != 0 {
		t.Errorf("lo steps = %d", got)
	}
	if got := fig4.HiSteps(); got != 32 {
		t.Errorf("hi steps = %d", got)
	}
}

func TestQuantizeInputClamps(t *testing.T) {
	p := small
	if got := p.QuantizeInput(-100); got != p.LoSteps() {
		t.Errorf("below range: %d", got)
	}
	if got := p.QuantizeInput(100); got != p.HiSteps() {
		t.Errorf("above range: %d", got)
	}
	if got := p.QuantizeInput(3.24); got != 6 { // 3.24/0.5 = 6.48 -> 6
		t.Errorf("interior: %d, want 6", got)
	}
}

func TestBaselineLossIsInfinite(t *testing.T) {
	// The paper's core negative result (Section III-A3): the naive
	// FxP implementation has unbounded privacy loss.
	an := NewAnalyzer(fig4)
	rep := an.BaselineLoss()
	if !rep.Infinite {
		t.Fatalf("baseline loss should be infinite, got %g", rep.MaxLoss)
	}
}

func TestBaselineLossInfiniteForSmallToo(t *testing.T) {
	an := NewAnalyzer(small)
	if rep := an.BaselineLoss(); !rep.Infinite {
		t.Fatalf("baseline loss should be infinite, got %+v", rep)
	}
}

func TestResamplingThresholdCertifies(t *testing.T) {
	// The closed-form resampling threshold must be certified by the
	// exact analyzer: worst-case loss <= mult·ε.
	for _, par := range []Params{fig4, small} {
		an := NewAnalyzer(par)
		for _, mult := range []float64{1.5, 2, 3} {
			th, err := ResamplingThreshold(par, mult)
			if err != nil {
				t.Fatalf("params %+v mult %g: %v", par, mult, err)
			}
			if th < 1 {
				t.Fatalf("threshold %d too small", th)
			}
			rep := an.ResamplingLoss(th)
			if !rep.Bounded(mult * par.Eps) {
				t.Errorf("mult %g: threshold %d gives loss %g (inf=%v), bound %g",
					mult, th, rep.MaxLoss, rep.Infinite, mult*par.Eps)
			}
		}
	}
}

func TestThresholdingThresholdCertifies(t *testing.T) {
	for _, par := range []Params{fig4, small} {
		an := NewAnalyzer(par)
		for _, mult := range []float64{1.5, 2, 3} {
			th, err := ThresholdingThreshold(par, mult)
			if err != nil {
				t.Fatalf("params %+v mult %g: %v", par, mult, err)
			}
			rep := an.ThresholdingLoss(th)
			if !rep.Bounded(mult * par.Eps) {
				t.Errorf("mult %g: threshold %d gives loss %g (inf=%v, worst y=%d x1=%d x2=%d), bound %g",
					mult, th, rep.MaxLoss, rep.Infinite,
					rep.WorstOutput, rep.WorstX1, rep.WorstX2, mult*par.Eps)
			}
		}
	}
}

// TestPaperEq15AloneIsUnsound records a finding of this reproduction:
// the paper's eq. 15 threshold, which constrains only the boundary
// atoms, reaches past the first zero-probability hole in the RNG tail
// for these parameters, so interior outputs still have infinite
// worst-case loss. The certified ThresholdingThreshold fixes this by
// also enforcing the interior point-mass condition.
func TestPaperEq15AloneIsUnsound(t *testing.T) {
	for _, par := range []Params{fig4, small} {
		paper, err := PaperThresholdingThreshold(par, 2)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := ThresholdingThreshold(par, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cert >= paper {
			t.Fatalf("expected certified threshold %d below paper threshold %d", cert, paper)
		}
		an := NewAnalyzer(par)
		if rep := an.ThresholdingLoss(paper); !rep.Infinite {
			t.Errorf("params %+v: paper threshold %d unexpectedly certified (loss %g)",
				par, paper, rep.MaxLoss)
		}
	}
}

func TestExactThresholdsAtLeastClosedForm(t *testing.T) {
	for _, mult := range []float64{1.5, 2} {
		cf, err := ResamplingThreshold(small, mult)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExactResamplingThreshold(small, mult)
		if err != nil {
			t.Fatal(err)
		}
		if ex < cf {
			t.Errorf("resampling: exact %d < closed form %d (mult %g)", ex, cf, mult)
		}
		cf, err = ThresholdingThreshold(small, mult)
		if err != nil {
			t.Fatal(err)
		}
		ex, err = ExactThresholdingThreshold(small, mult)
		if err != nil {
			t.Fatal(err)
		}
		if ex < cf {
			t.Errorf("thresholding: exact %d < closed form %d (mult %g)", ex, cf, mult)
		}
	}
}

func TestExactThresholdCertifiesAtExactAndFailsBeyond(t *testing.T) {
	an := NewAnalyzer(small)
	const mult = 2.0
	ex, err := ExactThresholdingThreshold(small, mult)
	if err != nil {
		t.Fatal(err)
	}
	if rep := an.ThresholdingLoss(ex); !rep.Bounded(mult * small.Eps) {
		t.Errorf("exact threshold %d not certified: %+v", ex, rep)
	}
	if ex < an.MaxK() {
		if rep := an.ThresholdingLoss(ex + 1); rep.Bounded(mult * small.Eps) {
			t.Errorf("threshold %d+1 should exceed the bound", ex)
		}
	}
}

// TestResamplingLossNotMonotone pins a configuration whose resampling
// loss does not grow monotonically with the threshold: threshold 2
// breaks the 1-nat target that thresholds 1 and 3..29 meet. The
// bisection in ExactResamplingThreshold only promises a threshold
// that passed its check (here 29, the largest certified one, because
// the bisection never probes 2).
func TestResamplingLossNotMonotone(t *testing.T) {
	par := Params{Lo: 0, Hi: 21, Eps: 0.5, Bu: 8, By: 12, Delta: 1}
	const mult = 2.0
	an := NewAnalyzer(par)
	for _, c := range []struct {
		th      int64
		loss    float64 // to 3 decimals
		bounded bool
	}{
		{1, 0.998, true},
		{2, 1.005, false},
		{3, 0.996, true},
		{29, 0.984, true},
		{30, 1.099, false},
	} {
		rep := an.ResamplingLoss(c.th)
		if math.Abs(rep.MaxLoss-c.loss) > 5e-4 || rep.Bounded(mult*par.Eps) != c.bounded {
			t.Errorf("th %d: loss %.5f (bounded %v), want %.3f (bounded %v)",
				c.th, rep.MaxLoss, rep.Bounded(mult*par.Eps), c.loss, c.bounded)
		}
	}
	for th := int64(3); th <= 29; th++ {
		if rep := an.ResamplingLoss(th); !rep.Bounded(mult * par.Eps) {
			t.Errorf("th %d: loss %.5f not bounded by %g", th, rep.MaxLoss, mult*par.Eps)
		}
	}
	ex, err := ExactResamplingThreshold(par, mult)
	if err != nil {
		t.Fatal(err)
	}
	if ex != 29 || !an.ResamplingLoss(ex).Bounded(mult*par.Eps) {
		t.Errorf("exact search returned %d, want the certified 29", ex)
	}
}

func TestThresholdCalculatorsRejectBadInput(t *testing.T) {
	if _, err := ResamplingThreshold(fig4, 1.0); err == nil {
		t.Error("mult=1 should be rejected")
	}
	if _, err := ThresholdingThreshold(fig4, 0.5); err == nil {
		t.Error("mult<1 should be rejected")
	}
	bad := Params{Lo: 0, Hi: 1, Eps: -1, Bu: 10, By: 10, Delta: 0.1}
	if _, err := ResamplingThreshold(bad, 2); err == nil {
		t.Error("invalid params should be rejected")
	}
	if _, err := ExactResamplingThreshold(bad, 2); err == nil {
		t.Error("invalid params should be rejected (exact)")
	}
}

// TestSaturatingWordThresholdsCertify covers the regime where the
// output word saturates before the inverse-CDF bound (L/Δ > KCap):
// the saturation step carries the clipped tail as one heavy atom, and
// the certified thresholds must keep it out of the guard window. This
// is a regression test — the naive closed form without the KCap cap
// yields infinite loss here.
func TestSaturatingWordThresholdsCertify(t *testing.T) {
	// 34..42 at ε=0.5 on a 256-step grid with a 12-bit noise word:
	// L/Δ ≈ 6033 ≫ KCap = 2047.
	par := Params{Lo: 34, Hi: 42, Eps: 0.5, Bu: 17, By: 12, Delta: 8.0 / 256}
	if l, c := par.FxP().MaxNoise()/par.Delta, float64(par.FxP().KCap()); l <= c {
		t.Fatalf("parameters do not saturate: L/Δ=%g, KCap=%g", l, c)
	}
	an := NewAnalyzer(par)
	for _, mult := range []float64{1.5, 2} {
		th, err := ThresholdingThreshold(par, mult)
		if err != nil {
			t.Fatalf("thresholding mult %g: %v", mult, err)
		}
		if th+par.RangeSteps() > par.FxP().KCap() {
			t.Errorf("thresholding threshold %d reaches the saturation atom", th)
		}
		if rep := an.ThresholdingLoss(th); !rep.Bounded(mult * par.Eps) {
			t.Errorf("thresholding mult %g: loss %g inf=%v at y=%d", mult, rep.MaxLoss, rep.Infinite, rep.WorstOutput)
		}
		rth, err := ResamplingThreshold(par, mult)
		if err != nil {
			t.Fatalf("resampling mult %g: %v", mult, err)
		}
		if rep := an.ResamplingLoss(rth); !rep.Bounded(mult * par.Eps) {
			t.Errorf("resampling mult %g: loss %g inf=%v at y=%d", mult, rep.MaxLoss, rep.Infinite, rep.WorstOutput)
		}
	}
}

func TestCoarseRNGHasNoThreshold(t *testing.T) {
	// With very few URNG bits no positive threshold can achieve a
	// tight loss bound — the regime behind Fig. 15(b)'s error floor.
	par := Params{Lo: 0, Hi: 8, Eps: 0.5, Bu: 4, By: 8, Delta: 0.5}
	if _, err := ResamplingThreshold(par, 1.1); err == nil {
		t.Error("expected no-threshold error for Bu=4, mult=1.1")
	}
}

func TestIdealMechanism(t *testing.T) {
	m, err := NewIdealLaplace(fig4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "ideal" {
		t.Errorf("name = %q", m.Name())
	}
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += m.Noise(5).Value
	}
	if mean := sum / n; math.Abs(mean-5) > 0.5 {
		t.Errorf("mean of noised 5 = %g", mean)
	}
}

func TestBaselineMechanismOnGrid(t *testing.T) {
	m, err := NewBaseline(small, nil, urng.NewTaus88(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		r := m.Noise(4)
		steps := r.Value / small.Delta
		if steps != math.Trunc(steps) {
			t.Fatalf("output %g off grid", r.Value)
		}
		if r.Resamples != 0 || r.Clamped {
			t.Fatal("baseline must not resample or clamp")
		}
	}
}

func TestResamplingStaysInWindow(t *testing.T) {
	th, err := ResamplingThreshold(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewResampling(small, th, nil, urng.NewTaus88(5))
	if err != nil {
		t.Fatal(err)
	}
	lo := small.Lo - float64(th)*small.Delta
	hi := small.Hi + float64(th)*small.Delta
	sawResample := false
	for i := 0; i < 20000; i++ {
		r := m.Noise(small.Hi)
		if r.Value < lo-1e-9 || r.Value > hi+1e-9 {
			t.Fatalf("output %g outside window [%g, %g]", r.Value, lo, hi)
		}
		if r.Resamples > 0 {
			sawResample = true
		}
	}
	if !sawResample {
		t.Error("expected at least one resample over 20000 draws from an extreme input")
	}
}

func TestThresholdingClampsToWindow(t *testing.T) {
	th, err := ThresholdingThreshold(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewThresholding(small, th, nil, urng.NewTaus88(11))
	if err != nil {
		t.Fatal(err)
	}
	lo := small.Lo - float64(th)*small.Delta
	hi := small.Hi + float64(th)*small.Delta
	sawClamp := false
	for i := 0; i < 20000; i++ {
		r := m.Noise(small.Hi)
		if r.Value < lo-1e-9 || r.Value > hi+1e-9 {
			t.Fatalf("output %g outside window [%g, %g]", r.Value, lo, hi)
		}
		if r.Clamped {
			sawClamp = true
			if r.Value != lo && r.Value != hi {
				t.Fatalf("clamped output %g not at a boundary", r.Value)
			}
		}
	}
	if !sawClamp {
		t.Error("expected at least one clamp over 20000 draws from an extreme input")
	}
}

func TestMechanismRejectsNegativeThreshold(t *testing.T) {
	if _, err := NewResampling(small, -1, nil, urng.NewTaus88(1)); err == nil {
		t.Fatal("expected error for negative resampling threshold")
	}
	if _, err := NewThresholding(small, -1, nil, urng.NewTaus88(1)); err == nil {
		t.Fatal("expected error for negative thresholding threshold")
	}
}

func TestResamplingEmpiricalMatchesConditional(t *testing.T) {
	// The sampled conditional distribution must match the analyzer's
	// renormalized PMF.
	th := int64(20)
	m, err := NewResampling(small, th, laplace.FloatLog{FracBits: 50}, urng.NewTaus88(13))
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(small)
	x := small.Hi // extreme input exercises the asymmetric window
	xs := small.QuantizeInput(x)
	counts := make(map[int64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		y := int64(math.Round(m.Noise(x).Value / small.Delta))
		counts[y]++
	}
	// Conditional probability of a few interior outputs.
	yLo := small.LoSteps() - th
	yHi := small.HiSteps() + th
	z := an.massBetween(yLo-xs, yHi-xs)
	for _, y := range []int64{xs, xs - 5, xs + 10, yHi} {
		want := an.probK(y-xs) / z
		got := float64(counts[y]) / n
		if math.Abs(got-want) > 5*math.Sqrt(want/n)+1e-4 {
			t.Errorf("P(y=%d|x=%d) = %g, want %g", y, xs, got, want)
		}
	}
}

func TestThresholdingEmpiricalBoundaryAtom(t *testing.T) {
	th := int64(15)
	m, err := NewThresholding(small, th, laplace.FloatLog{FracBits: 50}, urng.NewTaus88(17))
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(small)
	x := small.Hi
	xs := small.QuantizeInput(x)
	hiY := small.HiSteps() + th
	want := an.tailAtLeast(hiY - xs)
	var hits int
	const n = 200000
	for i := 0; i < n; i++ {
		if v := m.Noise(x).Value; math.Abs(v-float64(hiY)*small.Delta) < 1e-9 {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 5*math.Sqrt(want/n)+1e-4 {
		t.Errorf("boundary atom mass = %g, want %g", got, want)
	}
}

func TestRandomizedResponse(t *testing.T) {
	par := Params{Lo: 0, Hi: 1, Eps: 1, Bu: 16, By: 12, Delta: 1.0 / 16}
	m, err := NewRandomizedResponse(par, nil, urng.NewTaus88(19))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "randomized-response" {
		t.Errorf("name = %q", m.Name())
	}
	for i := 0; i < 1000; i++ {
		v := m.Noise(0).Value
		if v != 0 && v != 1 {
			t.Fatalf("RR output %g not binary", v)
		}
	}
	q1, q2 := m.FlipProbs()
	if q1 <= 0 || q1 >= 0.5 || q2 <= 0 || q2 >= 0.5 {
		t.Errorf("flip probs out of (0, 0.5): %g, %g", q1, q2)
	}
	// Empirical flip rate from x=0 matches the closed form.
	var flips int
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Noise(0).Value == 1 {
			flips++
		}
	}
	got := float64(flips) / n
	if math.Abs(got-q1) > 5*math.Sqrt(q1/n) {
		t.Errorf("empirical flip rate %g, want %g", got, q1)
	}
	if eps := m.RREpsilon(); eps <= 0 || eps > 10 {
		t.Errorf("RR epsilon = %g", eps)
	}
}

func TestLossProfileMonotoneEnough(t *testing.T) {
	an := NewAnalyzer(small)
	th, err := ThresholdingThreshold(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	profile := an.ThresholdingLossProfile(th)
	if int64(len(profile)) != th+1 {
		t.Fatalf("profile length %d, want %d", len(profile), th+1)
	}
	// Loss at the range edge is near ε; loss grows toward the
	// threshold (Fig. 8's staircase).
	first, last := profile[0], profile[len(profile)-1]
	if first.Normalized < 0.5 || first.Normalized > 1.5 {
		t.Errorf("loss at range edge = %g·ε", first.Normalized)
	}
	if last.Loss <= first.Loss {
		t.Errorf("loss should grow toward the threshold: %g -> %g", first.Loss, last.Loss)
	}
}

func TestSegments(t *testing.T) {
	an := NewAnalyzer(small)
	th, err := ThresholdingThreshold(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	segs := an.Segments(th, []float64{1.5, 2, 2.5, 3})
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Offset < segs[i-1].Offset {
			t.Errorf("segment offsets must be non-decreasing: %+v", segs)
		}
		if segs[i].Mult <= segs[i-1].Mult {
			t.Errorf("segment multipliers must increase: %+v", segs)
		}
	}
	// Every output within a segment must cost at most its multiplier.
	for _, s := range segs {
		for o := int64(0); o <= s.Offset; o++ {
			if l := an.LossAt(th, small.HiSteps()+o); l > s.Mult*small.Eps+1e-9 {
				t.Errorf("offset %d loss %g exceeds segment %g·ε", o, l, s.Mult)
			}
		}
	}
}

func TestInteriorLossNearEpsilon(t *testing.T) {
	an := NewAnalyzer(fig4)
	th, err := ThresholdingThreshold(fig4, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := an.InteriorLoss(th)
	// In-range outputs should cost close to the nominal ε (the
	// quantized RNG inflates it slightly).
	if l < 0.8*fig4.Eps || l > 1.5*fig4.Eps {
		t.Errorf("interior loss = %g, ε = %g", l, fig4.Eps)
	}
}

func TestLossAtUnreachableIsZero(t *testing.T) {
	an := NewAnalyzer(small)
	// An output far beyond the RNG's reach is unreachable from every
	// input: no information, zero loss.
	y := small.HiSteps() + an.MaxK() + small.RangeSteps() + 10
	if l := an.LossAt(an.MaxK(), y); l != 0 {
		t.Errorf("unreachable output loss = %g", l)
	}
}
