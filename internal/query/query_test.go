package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

func TestBasicQueries(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	if got := MeanOf(xs); got != 4 {
		t.Errorf("mean = %g", got)
	}
	if got := MedianOf(xs); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := VarianceOf(xs); math.Abs(got-10) > 1e-12 {
		t.Errorf("variance = %g", got)
	}
	if got := CountAbove(xs, 2.5); got != 3 {
		t.Errorf("count = %g", got)
	}
}

func TestMedianEven(t *testing.T) {
	if got := MedianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
	// MedianOf must not reorder its input.
	xs := []float64{9, 1, 5}
	MedianOf(xs)
	if xs[0] != 9 || xs[2] != 5 {
		t.Error("median mutated input")
	}
}

func TestEmptyInputs(t *testing.T) {
	if MeanOf(nil) != 0 || MedianOf(nil) != 0 || VarianceOf(nil) != 0 || CountAbove(nil, 0) != 0 {
		t.Error("empty queries should be 0")
	}
}

func TestApplyDispatch(t *testing.T) {
	xs := []float64{0, 10}
	if Apply(Mean, xs, 0) != 5 || Apply(Median, xs, 0) != 5 ||
		Apply(Variance, xs, 0) != 25 || Apply(Count, xs, 5) != 1 {
		t.Error("apply dispatch wrong")
	}
}

func TestApplyPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Apply(Kind(99), []float64{1}, 0)
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Mean: "mean", Median: "median", Variance: "variance", Count: "count", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("String = %q", got)
		}
	}
}

func TestQuickMeanBounds(t *testing.T) {
	prop := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := MeanOf(xs)
		return m >= lo-1e-9 && m <= hi+1e-9 && VarianceOf(xs) >= 0
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestQuickMedianIsOrderStatistic(t *testing.T) {
	prop := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		med := MedianOf(xs)
		below, above := 0, 0
		for _, x := range xs {
			if x < med {
				below++
			}
			if x > med {
				above++
			}
		}
		n := len(xs)
		return below <= n/2 && above <= n/2
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

var testPar = core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}

func TestEvaluateMAEIdealMechanism(t *testing.T) {
	data := make([]float64, 200)
	for i := range data {
		data[i] = float64(i % 17)
	}
	mech, err := core.NewIdealLaplace(testPar, 3)
	if err != nil {
		t.Fatal(err)
	}
	u := EvaluateMAE(mech, Mean, data, 50, testPar.Range())
	if u.Trials != 50 {
		t.Errorf("trials = %d", u.Trials)
	}
	// Mean of 200 noised entries with Lap(32): std of mean ≈
	// 32·√2/√200 ≈ 3.2; MAE around 2.5. Loose bounds.
	if u.MAE <= 0.3 || u.MAE > 10 {
		t.Errorf("mean MAE = %g implausible", u.MAE)
	}
	if u.RelErr <= 0 || u.RelErr > 1 {
		t.Errorf("rel err = %g", u.RelErr)
	}
}

func TestEvaluateMAEBaselineSimilarToIdeal(t *testing.T) {
	// The paper's Tables II-V observation: the FxP baseline matches
	// the ideal mechanism's utility even though it has infinite
	// privacy loss.
	data := make([]float64, 300)
	for i := range data {
		data[i] = float64(i % 17)
	}
	idealMech, err := core.NewIdealLaplace(testPar, 5)
	if err != nil {
		t.Fatal(err)
	}
	baseMech, err := core.NewBaseline(testPar, nil, urng.NewTaus88(5))
	if err != nil {
		t.Fatal(err)
	}
	ideal := EvaluateMAE(idealMech, Mean, data, 60, testPar.Range())
	baseline := EvaluateMAE(baseMech, Mean, data, 60, testPar.Range())
	ratio := baseline.MAE / ideal.MAE
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("baseline/ideal MAE ratio = %g, want ~1", ratio)
	}
}

func TestEvaluateMAEPanicsOnZeroTrials(t *testing.T) {
	mech, err := core.NewIdealLaplace(testPar, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvaluateMAE(mech, Mean, []float64{1}, 0, 1)
}

func TestNormalizeFor(t *testing.T) {
	data := []float64{0, 2, 4, 6, 8}
	if got := NormalizeFor(Mean, data, 8); got != 8 {
		t.Errorf("mean normalizer = %g", got)
	}
	if got := NormalizeFor(Variance, data, 8); got != VarianceOf(data) {
		t.Errorf("variance normalizer = %g", got)
	}
	if got := NormalizeFor(Count, data, 8); got != 5 {
		t.Errorf("count normalizer = %g", got)
	}
}

func TestUtilityString(t *testing.T) {
	u := Utility{MAE: 3.2, StdMAE: 1.3, RelErr: 0.086}
	if got := u.String(); got != "3.2±1.3 (8.6%)" {
		t.Errorf("string = %q", got)
	}
}
