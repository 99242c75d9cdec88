package laplace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ulpdp/internal/cordic"
	"ulpdp/internal/urng"
)

func TestNewIdealRejectsBadScale(t *testing.T) {
	if _, err := NewIdeal(0, 1); err == nil {
		t.Fatal("expected error on non-positive scale")
	}
}

func TestIdealMoments(t *testing.T) {
	const lambda = 20.0
	l, err := NewIdeal(lambda, 42)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	var sum, sumAbs, sumSq float64
	for i := 0; i < n; i++ {
		x := l.Sample()
		sum += x
		sumAbs += math.Abs(x)
		sumSq += x * x
	}
	mean := sum / n
	meanAbs := sumAbs / n
	variance := sumSq / n
	if math.Abs(mean) > 0.25 {
		t.Errorf("mean = %g, want ~0", mean)
	}
	if math.Abs(meanAbs-lambda) > 0.3 {
		t.Errorf("E|X| = %g, want ~%g", meanAbs, lambda)
	}
	if math.Abs(variance-2*lambda*lambda)/(2*lambda*lambda) > 0.02 {
		t.Errorf("var = %g, want ~%g", variance, 2*lambda*lambda)
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	const lambda = 3.0
	var integral float64
	const h = 0.001
	for x := -60.0; x <= 60; x += h {
		integral += PDF(x, lambda) * h
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Errorf("integral = %g", integral)
	}
}

func TestCDFQuantileRoundTrip(t *testing.T) {
	const lambda = 7.5
	prop := func(raw uint16) bool {
		p := (float64(raw) + 1) / 65537 // (0,1)
		x := Quantile(p, lambda)
		return math.Abs(CDF(x, lambda)-p) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%g) should panic", p)
				}
			}()
			Quantile(p, 1)
		}()
	}
}

func TestCDFSymmetry(t *testing.T) {
	prop := func(raw int16) bool {
		x := float64(raw) / 100
		return math.Abs(CDF(x, 5)+CDF(-x, 5)-1) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// fig4Params are the parameters of the paper's Fig. 4: Lap(20) with
// B_u = 17, B_y = 12, Δ = 10/2^5.
var fig4Params = FxPParams{Bu: 17, By: 12, Delta: 10.0 / 32, Lambda: 20}

func TestFxPParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    FxPParams
		ok   bool
	}{
		{"fig4", fig4Params, true},
		{"bu low", FxPParams{Bu: 1, By: 12, Delta: 1, Lambda: 1}, false},
		{"bu high", FxPParams{Bu: 31, By: 12, Delta: 1, Lambda: 1}, false},
		{"by low", FxPParams{Bu: 10, By: 1, Delta: 1, Lambda: 1}, false},
		{"delta zero", FxPParams{Bu: 10, By: 10, Delta: 0, Lambda: 1}, false},
		{"lambda neg", FxPParams{Bu: 10, By: 10, Delta: 1, Lambda: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestMaxNoiseMatchesPaper(t *testing.T) {
	// L = λ·B_u·ln2 = 20·17·ln2 ≈ 235.7 for Fig. 4's parameters.
	got := fig4Params.MaxNoise()
	if math.Abs(got-20*17*math.Ln2) > 1e-9 {
		t.Errorf("MaxNoise = %g", got)
	}
	if fig4Params.KCap() != 2047 {
		t.Errorf("KCap = %d, want 2047", fig4Params.KCap())
	}
	// No saturation for Fig. 4: the ICDF bound is below the word cap.
	if fig4Params.MaxK() >= fig4Params.KCap() {
		t.Errorf("MaxK = %d should be below KCap", fig4Params.MaxK())
	}
}

func TestDistTotalMassIsOne(t *testing.T) {
	for _, par := range []FxPParams{
		fig4Params,
		{Bu: 8, By: 8, Delta: 0.5, Lambda: 4},
		{Bu: 12, By: 6, Delta: 0.25, Lambda: 10}, // saturating word
		{Bu: 20, By: 16, Delta: 0.125, Lambda: 2},
	} {
		d := NewDist(par)
		if m := d.TotalMass(); math.Abs(m-1) > 1e-12 {
			t.Errorf("params %+v: total mass = %.15f", par, m)
		}
	}
}

// TestDistMatchesEnumeration enumerates every URNG draw through the
// reference datapath and checks the closed-form counts exactly.
func TestDistMatchesEnumeration(t *testing.T) {
	par := FxPParams{Bu: 12, By: 10, Delta: 0.5, Lambda: 8}
	d := NewDist(par)
	counts := make(map[int64]int64)
	for m := int64(1); m <= 1<<par.Bu; m++ {
		mag := -par.Lambda * math.Log(math.Ldexp(float64(m), -par.Bu))
		k := int64(math.Round(mag / par.Delta))
		if cap := par.KCap(); k > cap {
			k = cap
		}
		counts[k]++
	}
	for k := int64(0); k <= par.KCap(); k++ {
		want := float64(counts[k])
		if got := d.CountMag(k); got != want {
			t.Errorf("CountMag(%d) = %g, want %g", k, got, want)
		}
	}
}

// TestDistMatchesEnumerationSaturating repeats the enumeration with a
// narrow output word so the saturation path is exercised.
func TestDistMatchesEnumerationSaturating(t *testing.T) {
	par := FxPParams{Bu: 11, By: 5, Delta: 0.5, Lambda: 8}
	if par.MaxNoise() <= float64(par.KCap())*par.Delta {
		t.Fatal("test parameters do not saturate")
	}
	d := NewDist(par)
	counts := make(map[int64]int64)
	for m := int64(1); m <= 1<<par.Bu; m++ {
		mag := -par.Lambda * math.Log(math.Ldexp(float64(m), -par.Bu))
		k := int64(math.Round(mag / par.Delta))
		if cap := par.KCap(); k > cap {
			k = cap
		}
		counts[k]++
	}
	for k := int64(0); k <= par.KCap(); k++ {
		if got, want := d.CountMag(k), float64(counts[k]); got != want {
			t.Errorf("CountMag(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestSamplerMatchesDistExhaustive(t *testing.T) {
	// The sampler's deterministic URNG→magnitude map, with the exact
	// float log unit, must reproduce the closed-form counts draw for
	// draw.
	par := FxPParams{Bu: 12, By: 10, Delta: 0.5, Lambda: 8}
	s, err := NewSampler(par, FloatLog{FracBits: 50}, urng.NewTaus88(1))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDist(par)
	counts := make(map[int64]int64)
	for m := uint64(1); m <= 1<<par.Bu; m++ {
		counts[s.MagnitudeForDraw(m)]++
	}
	for k := int64(0); k <= par.KCap(); k++ {
		if got, want := float64(counts[k]), d.CountMag(k); got != want {
			t.Errorf("sampler CountMag(%d) = %g, closed form %g", k, got, want)
		}
	}
}

func TestSamplerCordicAgreesWithFloat(t *testing.T) {
	// The CORDIC datapath may disagree with the exact log only at
	// rounding-boundary draws; over an exhaustive small sweep the
	// disagreement rate must be negligible and at most one step.
	par := FxPParams{Bu: 12, By: 10, Delta: 0.5, Lambda: 8}
	sc, err := NewSampler(par, cordic.New(cordic.DefaultConfig), urng.NewTaus88(1))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSampler(par, FloatLog{FracBits: 50}, urng.NewTaus88(1))
	if err != nil {
		t.Fatal(err)
	}
	var diff int
	for m := uint64(1); m <= 1<<par.Bu; m++ {
		a, b := sc.MagnitudeForDraw(m), sf.MagnitudeForDraw(m)
		if a != b {
			diff++
			if d := a - b; d < -1 || d > 1 {
				t.Fatalf("m=%d: cordic k=%d vs float k=%d", m, a, b)
			}
		}
	}
	if diff > 4 {
		t.Errorf("cordic and float disagree on %d of %d draws", diff, 1<<par.Bu)
	}
}

func TestSampleOnGrid(t *testing.T) {
	s, err := NewSampler(fig4Params, nil, urng.NewTaus88(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		x := s.Sample()
		k := x / fig4Params.Delta
		if k != math.Trunc(k) {
			t.Fatalf("sample %g is off-grid", x)
		}
		if math.Abs(x) > float64(fig4Params.KCap())*fig4Params.Delta {
			t.Fatalf("sample %g beyond saturation", x)
		}
	}
}

func TestSampleSignBalance(t *testing.T) {
	s, err := NewSampler(fig4Params, nil, urng.NewLFSR113(3))
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg int
	const n = 60000
	for i := 0; i < n; i++ {
		if k := s.SampleK(); k > 0 {
			pos++
		} else if k < 0 {
			neg++
		}
	}
	if math.Abs(float64(pos-neg)) > 6*math.Sqrt(n) {
		t.Errorf("sign imbalance: +%d vs -%d", pos, neg)
	}
}

func TestFig4TailHolesExist(t *testing.T) {
	// The core claim of Section III-A3: the FxP RNG tail has zero-
	// probability values below the max — naive noising cannot be DP.
	d := NewDist(fig4Params)
	hole, ok := d.FirstZeroHole()
	if !ok {
		t.Fatal("expected tail holes in Fig. 4 parameters")
	}
	if hole <= 0 || hole >= d.MaxK() {
		t.Errorf("hole at %d outside (0, %d)", hole, d.MaxK())
	}
	// And the bulk matches the ideal distribution closely.
	ideal := 2 * (CDF(fig4Params.Delta/2, fig4Params.Lambda) - 0.5)
	if got := d.Prob(0); math.Abs(got-ideal) > 1e-3 {
		t.Errorf("P(0) = %g, ideal %g", got, ideal)
	}
}

func TestDistBulkMatchesIdeal(t *testing.T) {
	d := NewDist(fig4Params)
	// In the high-density region the FxP PMF approximates the ideal
	// density times Δ (Fig. 4a).
	for _, k := range []int64{1, 5, 10, 50, 100} {
		x := float64(k) * fig4Params.Delta
		want := PDF(x, fig4Params.Lambda) * fig4Params.Delta
		got := d.Prob(k)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("P(k=%d) = %g, ideal %g", k, got, want)
		}
	}
}

func TestProbSymmetric(t *testing.T) {
	d := NewDist(fig4Params)
	prop := func(raw uint16) bool {
		k := int64(raw % 2047)
		return d.Prob(k) == d.Prob(-k)
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestTailMagMatchesSum(t *testing.T) {
	par := FxPParams{Bu: 10, By: 8, Delta: 0.5, Lambda: 4}
	d := NewDist(par)
	for _, k := range []int64{1, 3, 10, 50, par.KCap()} {
		var sum float64
		for j := k; j <= par.KCap(); j++ {
			sum += d.ProbMag(j)
		}
		if got := d.TailMag(k); math.Abs(got-sum) > 1e-12 {
			t.Errorf("TailMag(%d) = %g, sum %g", k, got, sum)
		}
	}
	if d.TailMag(0) != 1 {
		t.Error("TailMag(0) != 1")
	}
	if d.TailMag(par.KCap()+1) != 0 {
		t.Error("TailMag beyond cap != 0")
	}
}

func TestPMFShape(t *testing.T) {
	d := NewDist(FxPParams{Bu: 10, By: 10, Delta: 0.5, Lambda: 4})
	pmf, maxK := d.PMF()
	if int64(len(pmf)) != 2*maxK+1 {
		t.Fatalf("len = %d, maxK = %d", len(pmf), maxK)
	}
	var sum float64
	for _, p := range pmf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pmf sums to %g", sum)
	}
	if pmf[maxK] != d.Prob(0) {
		t.Error("center of PMF is not P(0)")
	}
}

func BenchmarkFxPSampleCordic(b *testing.B) {
	s, err := NewSampler(fig4Params, nil, urng.NewTaus88(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s.SampleK()
	}
}

func BenchmarkFxPSampleFloatLog(b *testing.B) {
	s, err := NewSampler(fig4Params, FloatLog{FracBits: 50}, urng.NewTaus88(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s.SampleK()
	}
}

func BenchmarkIdealSample(b *testing.B) {
	l, err := NewIdeal(20, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l.Sample()
	}
}

func TestHWSamplerMatchesFloatExhaustive(t *testing.T) {
	// With a dyadic λ/Δ (the DP-Box case: ε = 2^-n_m, grid steps),
	// the integer scaling datapath must agree with the float64
	// reference on every URNG draw.
	for _, par := range []FxPParams{
		{Bu: 12, By: 10, Delta: 1, Lambda: 64},       // λ/Δ integer
		{Bu: 12, By: 12, Delta: 0.25, Lambda: 56},    // ratio 224
		{Bu: 13, By: 12, Delta: 1, Lambda: 12.5},     // ratio 12.5 = 25·2^-1
		{Bu: 11, By: 10, Delta: 0.5, Lambda: 0.8125}, // ratio 1.625 = 13·2^-3
	} {
		hw, err := NewHWSampler(par, FloatLog{FracBits: 44}, urng.NewTaus88(1))
		if err != nil {
			t.Fatalf("%+v: %v", par, err)
		}
		fl, err := NewSampler(par, FloatLog{FracBits: 44}, urng.NewTaus88(1))
		if err != nil {
			t.Fatal(err)
		}
		for m := uint64(1); m <= 1<<par.Bu; m++ {
			a, b := hw.MagnitudeForDraw(m), fl.MagnitudeForDraw(m)
			if a != b {
				t.Fatalf("params %+v draw %d: integer %d vs float %d", par, m, a, b)
			}
		}
	}
}

func TestHWSamplerMatchesDistExhaustive(t *testing.T) {
	par := FxPParams{Bu: 12, By: 10, Delta: 0.5, Lambda: 8}
	hw, err := NewHWSampler(par, FloatLog{FracBits: 50}, urng.NewTaus88(1))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDist(par)
	counts := map[int64]float64{}
	for m := uint64(1); m <= 1<<par.Bu; m++ {
		counts[hw.MagnitudeForDraw(m)]++
	}
	for k := int64(0); k <= par.KCap(); k++ {
		if got, want := counts[k], d.CountMag(k); got != want {
			t.Errorf("CountMag(%d): hw %g vs closed form %g", k, got, want)
		}
	}
}

func TestHWSamplerRejectsNonDyadic(t *testing.T) {
	par := FxPParams{Bu: 12, By: 10, Delta: 0.3, Lambda: 20} // ratio 66.67
	if _, err := NewHWSamppler_guard(par); err == nil {
		t.Fatal("non-dyadic ratio accepted")
	}
}

// TestSamplerInitKeepsStateOnError pins in-place wiring: a failed
// Init (here a non-dyadic ratio in hardware mode) leaves an embedded
// sampler drawing exactly as before.
func TestSamplerInitKeepsStateOnError(t *testing.T) {
	good := FxPParams{Bu: 12, By: 10, Delta: 1, Lambda: 64}
	var s Sampler
	if err := s.Init(good, FloatLog{FracBits: 50}, urng.NewTaus88(1), true); err != nil {
		t.Fatal(err)
	}
	before := s
	if err := s.Init(FxPParams{Bu: 12, By: 10, Delta: 0.3, Lambda: 20}, nil, urng.NewTaus88(2), true); err == nil {
		t.Fatal("non-dyadic ratio accepted")
	}
	if s != before {
		t.Fatal("failed Init changed the sampler")
	}
}

// NewHWSamppler_guard keeps the rejection test readable.
func NewHWSamppler_guard(par FxPParams) (*Sampler, error) {
	return NewHWSampler(par, FloatLog{FracBits: 50}, urng.NewTaus88(1))
}

func TestHWSamplerCordicPath(t *testing.T) {
	// The full hardware stack: Tausworthe -> CORDIC -> integer scale.
	par := FxPParams{Bu: 12, By: 10, Delta: 1, Lambda: 64}
	hw, err := NewHWSampler(par, nil, urng.NewTaus88(5))
	if err != nil {
		t.Fatal(err)
	}
	var sumAbs float64
	const n = 50000
	for i := 0; i < n; i++ {
		sumAbs += math.Abs(float64(hw.SampleK()))
	}
	// E|noise| in steps ≈ λ/Δ = 64 (minus a little truncation).
	if meanAbs := sumAbs / n; math.Abs(meanAbs-64)/64 > 0.05 {
		t.Errorf("E|k| = %g, want ~64", meanAbs)
	}
}
