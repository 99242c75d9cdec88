package core

import (
	"math"
	"testing"

	"ulpdp/internal/laplace"
	"ulpdp/internal/urng"
)

func TestConstantTimeCertifies(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		th, err := ExactConstantTimeThreshold(small, 2, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		an := NewAnalyzer(small)
		rep := an.ConstantTimeLoss(th, k)
		if !rep.Bounded(2 * small.Eps) {
			t.Errorf("k=%d: threshold %d loss %g", k, th, rep.MaxLoss)
		}
	}
}

func TestConstantTimeThresholdComparableToResampling(t *testing.T) {
	// With enough candidates the all-miss clamp mass is negligible
	// and the certified threshold approaches plain resampling's.
	rth, err := ResamplingThreshold(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	cth, err := ExactConstantTimeThreshold(small, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cth < rth/2 {
		t.Errorf("constant-time threshold %d far below resampling %d", cth, rth)
	}
}

func TestConstantTimeSingleCandidateIsThresholdingLike(t *testing.T) {
	// k=1 degenerates to "draw once, clamp if out" — thresholding
	// with edge-specific clamping. Its exact loss must match the
	// thresholding analysis at the same threshold (the conditionals
	// coincide: one draw, clamped to the side it missed).
	an := NewAnalyzer(small)
	th, err := ThresholdingThreshold(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	ct := an.ConstantTimeLoss(th, 1)
	tr := an.ThresholdingLoss(th)
	if math.Abs(ct.MaxLoss-tr.MaxLoss) > 1e-9 || ct.Infinite != tr.Infinite {
		t.Errorf("k=1 loss %g (inf=%v) vs thresholding %g (inf=%v)",
			ct.MaxLoss, ct.Infinite, tr.MaxLoss, tr.Infinite)
	}
}

func TestConstantTimeMechanismBehaviour(t *testing.T) {
	th, err := ExactConstantTimeThreshold(small, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newExplicit(small, GuardSpec{Guard: GuardConstantTime, Threshold: th, Candidates: 4}, nil, urng.NewTaus88(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "constant-time" {
		t.Errorf("name %q", m.Name())
	}
	if m.Candidates() != 4 || m.Threshold() != th {
		t.Error("accessors wrong")
	}
	lo := small.Lo - float64(th)*small.Delta
	hi := small.Hi + float64(th)*small.Delta
	for i := 0; i < 20000; i++ {
		r := m.Noise(small.Hi)
		if r.Value < lo-1e-9 || r.Value > hi+1e-9 {
			t.Fatalf("output %g outside window", r.Value)
		}
		if r.Resamples != 0 {
			t.Fatal("constant-time must not report resamples (fixed latency)")
		}
		if r.Clamped && r.Value != lo && r.Value != hi {
			t.Fatalf("clamped output %g not at an edge", r.Value)
		}
	}
}

func TestConstantTimeEmpiricalMatchesAnalysis(t *testing.T) {
	const k = 3
	th := int64(18)
	m, err := newExplicit(small, GuardSpec{Guard: GuardConstantTime, Threshold: th, Candidates: k}, laplace.FloatLog{FracBits: 50}, urng.NewTaus88(11))
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(small)
	x := small.Hi
	xs := small.QuantizeInput(x)
	counts := map[int64]int{}
	const n = 300000
	for i := 0; i < n; i++ {
		counts[int64(math.Round(m.Noise(x).Value/small.Delta))]++
	}
	// Rebuild the analytical conditional for x at a few points,
	// including both edges.
	yLo := small.LoSteps() - th
	yHi := small.HiSteps() + th
	missLo := an.tailAtMost(yLo - xs - 1)
	missHi := an.tailAtLeast(yHi - xs + 1)
	q := missLo + missHi
	accept := (1 - math.Pow(q, k)) / (1 - q)
	cond := func(y int64) float64 {
		p := an.probK(y-xs) * accept
		if y == yLo {
			p += missLo * math.Pow(q, k-1)
		}
		if y == yHi {
			p += missHi * math.Pow(q, k-1)
		}
		return p
	}
	for _, y := range []int64{xs, xs - 4, yLo, yHi} {
		want := cond(y)
		got := float64(counts[y]) / n
		if math.Abs(got-want) > 5*math.Sqrt(want/n)+2e-4 {
			t.Errorf("P(y=%d) = %g, want %g", y, got, want)
		}
	}
}

func TestConstantTimePanics(t *testing.T) {
	if _, err := newExplicit(small, GuardSpec{Guard: GuardConstantTime, Threshold: -1, Candidates: 2}, nil, urng.NewTaus88(1)); err == nil {
		t.Error("negative threshold should be rejected")
	}
	cases := []func(){
		func() { NewAnalyzer(small).ConstantTimeLoss(-1, 2) },
		func() { NewAnalyzer(small).ConstantTimeLoss(5, 0) },
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
	if _, err := ExactConstantTimeThreshold(small, 1, 2); err == nil {
		t.Error("mult=1 should be rejected")
	}
	if _, err := ExactConstantTimeThreshold(small, 2, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
}
