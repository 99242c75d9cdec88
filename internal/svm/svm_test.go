package svm

import (
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

func TestGenerateHalfspace(t *testing.T) {
	d := GenerateHalfspace(500, 4, 0.1, 1)
	if d.Len() != 500 {
		t.Fatalf("len = %d", d.Len())
	}
	var pos, neg int
	for i, x := range d.X {
		if len(x) != 4 {
			t.Fatalf("dim = %d", len(x))
		}
		for _, v := range x {
			if v < -1 || v > 1 {
				t.Fatalf("feature %g out of [-1,1]", v)
			}
		}
		switch d.Y[i] {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %d", d.Y[i])
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("degenerate labels: +%d -%d", pos, neg)
	}
}

func TestGeneratePanics(t *testing.T) {
	cases := []func(){
		func() { GenerateHalfspace(0, 2, 0.1, 1) },
		func() { GenerateHalfspace(10, 0, 0.1, 1) },
		func() { GenerateHalfspace(10, 2, 0.6, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNoiseFeaturesPreservesLabelsAndShape(t *testing.T) {
	d := GenerateHalfspace(100, 3, 0.1, 9)
	par := core.Params{Lo: -1, Hi: 1, Eps: 1, Bu: 14, By: 12, Delta: 2.0 / 256}
	src := urng.NewTaus88(3)
	th, err := core.ThresholdingThreshold(par, 2)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := core.NewThresholding(par, th, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	noised := NoiseFeatures(d, func(dim int) core.Mechanism { return mech })
	if noised.Len() != d.Len() {
		t.Fatal("length changed")
	}
	changed := 0
	for i := range d.X {
		if noised.Y[i] != d.Y[i] {
			t.Fatal("labels must not change")
		}
		for j := range d.X[i] {
			if noised.X[i][j] != d.X[i][j] {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Error("no feature was noised")
	}
}

func TestNoisedTrainingDegradesGracefully(t *testing.T) {
	// Table VI's shape: noised training beats chance, clean training
	// beats noised, and higher ε (less noise) helps.
	all := GenerateHalfspace(6000, 3, 0.1, 11)
	train := Dataset{X: all.X[:5000], Y: all.Y[:5000]}
	test := Dataset{X: all.X[5000:], Y: all.Y[5000:]}

	clean := Accuracy(TrainLSSVM(train, 1e-3), test)

	accAt := func(eps float64, seed uint64) float64 {
		par := core.Params{Lo: -1, Hi: 1, Eps: eps, Bu: 14, By: 12, Delta: 2.0 / 256}
		src := urng.NewTaus88(seed)
		th, err := core.ThresholdingThreshold(par, 2)
		if err != nil {
			t.Fatal(err)
		}
		mech, err := core.NewThresholding(par, th, nil, src)
		if err != nil {
			t.Fatal(err)
		}
		noised := NoiseFeatures(train, func(int) core.Mechanism { return mech })
		return Accuracy(TrainLSSVM(noised, 1e-3), test)
	}
	lowPriv := accAt(4, 17) // mild noise
	hiPriv := accAt(0.5, 19)

	if clean < lowPriv-0.02 {
		t.Errorf("clean (%g) should be at least as good as noised (%g)", clean, lowPriv)
	}
	if lowPriv <= 0.55 {
		t.Errorf("mildly noised accuracy %g should beat chance clearly", lowPriv)
	}
	if hiPriv > lowPriv+0.05 {
		t.Errorf("more privacy (%g) should not beat less privacy (%g)", hiPriv, lowPriv)
	}
}

func TestLSSVMCleanData(t *testing.T) {
	all := GenerateHalfspace(4000, 8, 0.15, 21)
	train := Dataset{X: all.X[:3000], Y: all.Y[:3000]}
	test := Dataset{X: all.X[3000:], Y: all.Y[3000:]}
	m := TrainLSSVM(train, 1e-3)
	if acc := Accuracy(m, test); acc < 0.97 {
		t.Errorf("LS-SVM clean accuracy %g", acc)
	}
}

func TestLSSVMPanics(t *testing.T) {
	d := GenerateHalfspace(10, 2, 0.1, 1)
	cases := []func(){
		func() { TrainLSSVM(Dataset{}, 1e-3) },
		func() { TrainLSSVM(d, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLSSVMDeterministic(t *testing.T) {
	d := GenerateHalfspace(500, 4, 0.1, 5)
	a := TrainLSSVM(d, 1e-3)
	b := TrainLSSVM(d, 1e-3)
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("LS-SVM must be deterministic")
		}
	}
	if a.B != b.B {
		t.Fatal("bias differs")
	}
}

func TestLSSVMConsistentUnderFeatureNoise(t *testing.T) {
	// The property Table VI relies on: with zero-mean feature noise,
	// more data recovers the direction — accuracy grows with n.
	all := GenerateHalfspace(9000, 8, 0.15, 31)
	test := Dataset{X: all.X[8000:], Y: all.Y[8000:]}
	rng := urng.NewSplitMix64(7)
	noisy := Dataset{X: make([][]float64, 8000), Y: all.Y[:8000]}
	for i := 0; i < 8000; i++ {
		x := make([]float64, 8)
		for j := range x {
			// Laplace-ish noise of scale 2 (difference of exponentials).
			x[j] = all.X[i][j] + 2*(rng.ExpFloat64()-rng.ExpFloat64())
		}
		noisy.X[i] = x
	}
	small := TrainLSSVM(Dataset{X: noisy.X[:500], Y: noisy.Y[:500]}, 1e-3)
	large := TrainLSSVM(noisy, 1e-3)
	accSmall, accLarge := Accuracy(small, test), Accuracy(large, test)
	if accLarge <= accSmall {
		t.Errorf("more noisy data should help: %g -> %g", accSmall, accLarge)
	}
	if accLarge < 0.85 {
		t.Errorf("8000 noisy examples should recover the direction, got %g", accLarge)
	}
}

func TestNoiseFeaturesEmpty(t *testing.T) {
	out := NoiseFeatures(Dataset{}, nil)
	if out.Len() != 0 {
		t.Error("empty dataset should stay empty")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(&Model{W: []float64{1}}, Dataset{}) != 0 {
		t.Error("empty accuracy should be 0")
	}
}
