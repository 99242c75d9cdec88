package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"ulpdp/internal/laplace"
)

// bigGrid is large enough (output span > 2^12) that scanLoss takes
// the parallel path.
var bigGrid = Params{Lo: 0, Hi: 20, Eps: 0.5, Bu: 17, By: 14, Delta: 20.0 / 512}

func TestParallelScanMatchesSequential(t *testing.T) {
	an := NewAnalyzer(bigGrid)
	if an.MaxK() < 1<<12 {
		t.Fatalf("grid too small (%d) to exercise the parallel path", an.MaxK())
	}
	th, err := ThresholdingThreshold(bigGrid, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel result (normal call).
	par := an.ThresholdingLoss(th)
	// Sequential closure-kernel reference over the same window.
	seq := an.legacyThresholdingLoss(th)
	if par != seq {
		t.Errorf("parallel %+v != sequential %+v", par, seq)
	}
}

func TestParallelBaselineInfiniteDetection(t *testing.T) {
	an := NewAnalyzer(bigGrid)
	rep := an.BaselineLoss()
	if !rep.Infinite {
		t.Fatal("baseline should be infinite")
	}
	// Deterministic worst output: the earliest infinite y.
	rep2 := an.BaselineLoss()
	if rep != rep2 {
		t.Errorf("parallel infinite detection not deterministic: %+v vs %+v", rep, rep2)
	}
}

func TestMergeLoss(t *testing.T) {
	inf1 := LossReport{Infinite: true, MaxLoss: math.Inf(1), WorstOutput: 5}
	inf2 := LossReport{Infinite: true, MaxLoss: math.Inf(1), WorstOutput: 3}
	fin1 := LossReport{MaxLoss: 1.0, WorstOutput: 9}
	fin2 := LossReport{MaxLoss: 2.0, WorstOutput: 11}
	if got := mergeLoss(inf1, inf2); got.WorstOutput != 3 {
		t.Errorf("two infinities: kept y=%d, want 3", got.WorstOutput)
	}
	if got := mergeLoss(fin1, inf1); !got.Infinite {
		t.Error("infinite must dominate")
	}
	if got := mergeLoss(inf1, fin1); !got.Infinite {
		t.Error("infinite must dominate (other order)")
	}
	if got := mergeLoss(fin1, fin2); got.MaxLoss != 2 {
		t.Error("larger loss must win")
	}
	if got := mergeLoss(fin2, fin1); got.MaxLoss != 2 {
		t.Error("larger loss must win (other order)")
	}
	// Tie: earlier (first argument) wins, matching sequential order.
	tie := LossReport{MaxLoss: 2.0, WorstOutput: 99}
	if got := mergeLoss(fin2, tie); got.WorstOutput != 11 {
		t.Error("tie should keep the earlier report")
	}
}

func TestNewAnalyzerFromPMFValidation(t *testing.T) {
	par := small
	good, maxK := laplace.NewDist(par.FxP()).PMF()
	if an := NewAnalyzerFromPMF(par, good, maxK); an.MaxK() != maxK {
		t.Error("maxK mismatch")
	}
	cases := []func(){
		func() { NewAnalyzerFromPMF(par, good[:len(good)-1], maxK) }, // wrong length
		func() {
			bad := append([]float64{}, good...)
			bad[0] = -0.1
			NewAnalyzerFromPMF(par, bad, maxK)
		},
		func() {
			bad := append([]float64{}, good...)
			bad[0] += 0.5 // mass != 1
			NewAnalyzerFromPMF(par, bad, maxK)
		},
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

func TestAnalyzerFromPMFMatchesNative(t *testing.T) {
	pmf, maxK := laplace.NewDist(small.FxP()).PMF()
	a := NewAnalyzer(small)
	b := NewAnalyzerFromPMF(small, pmf, maxK)
	th, err := ThresholdingThreshold(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := a.ThresholdingLoss(th), b.ThresholdingLoss(th); ra != rb {
		t.Errorf("native %+v vs PMF-fed %+v", ra, rb)
	}
	if a.Params() != small {
		t.Error("params accessor")
	}
}

func TestMechanismAccessors(t *testing.T) {
	// Exercise the small accessors across all mechanism types.
	type withParams interface{ Params() Params }
	ideal, err := NewIdealLaplace(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := []Mechanism{ideal}
	for _, m := range ms {
		if m.Name() == "" {
			t.Error("empty name")
		}
		if wp, ok := m.(withParams); ok && wp.Params() != small {
			t.Error("params accessor mismatch")
		}
	}
}

// TestNewAnalyzerStepLimitBeforeAlloc checks that a geometry just past
// the analyzer's step limit panics before its PMF is materialized: the
// panic allocates a small fraction of what the PMF alone would need.
func TestNewAnalyzerStepLimitBeforeAlloc(t *testing.T) {
	par := Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 20, By: 24, Delta: 1.0 / (1 << 14)}
	maxK := laplace.NewDist(par.FxP()).MaxK()
	if maxK <= maxAnalyzerSteps || maxK > 2*maxAnalyzerSteps {
		t.Fatalf("maxK %d is not just past the limit %d", maxK, maxAnalyzerSteps)
	}
	pmfBytes := 8 * (2*maxK + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "exceeds limit") {
				t.Errorf("NewAnalyzer panicked with %v, want the step-limit panic", r)
			}
		}()
		NewAnalyzer(par)
	}()
	runtime.ReadMemStats(&after)
	if d := int64(after.TotalAlloc - before.TotalAlloc); d > pmfBytes/100 {
		t.Errorf("NewAnalyzer allocated %d bytes before panicking; the PMF alone is %d", d, pmfBytes)
	}
}
