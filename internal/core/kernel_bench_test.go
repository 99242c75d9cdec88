package core

// Kernel benchmarks: the optimized sliding-window and bound-and-prune
// kernels against the legacy closure kernel, at the root-level
// benchmark geometry (B_y = 12, 32-step sensor grid) and at a larger
// grid (B_y = 16, 512-step grid) where the gap to the O(|Y|·|X|)
// legacy scan dominates. Run with
//
//	go test -run xxx -bench Kernel ./internal/core/
//
// to measure the speedup the acceptance criteria require.

import "testing"

// benchDefault mirrors the root bench_test.go benchPar geometry.
var benchDefault = Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}

// benchLarge is the wide-grid geometry: 512 input steps and a B_y=16
// output word.
var benchLarge = Params{Lo: 0, Hi: 20, Eps: 0.5, Bu: 20, By: 16, Delta: 20.0 / 512}

func benchThresholding(b *testing.B, par Params, legacy bool) {
	b.Helper()
	an := NewAnalyzer(par)
	th, err := ThresholdingThreshold(par, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep LossReport
		if legacy {
			rep = an.legacyThresholdingLoss(th)
		} else {
			rep = an.ThresholdingLoss(th)
		}
		if rep.Infinite {
			b.Fatal("certification failed")
		}
	}
}

func BenchmarkKernelThresholdingFast(b *testing.B)   { benchThresholding(b, benchDefault, false) }
func BenchmarkKernelThresholdingLegacy(b *testing.B) { benchThresholding(b, benchDefault, true) }

func BenchmarkKernelThresholdingLargeFast(b *testing.B)   { benchThresholding(b, benchLarge, false) }
func BenchmarkKernelThresholdingLargeLegacy(b *testing.B) { benchThresholding(b, benchLarge, true) }

func benchBaseline(b *testing.B, par Params, legacy bool) {
	b.Helper()
	an := NewAnalyzer(par)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep LossReport
		if legacy {
			rep = an.legacyBaselineLoss()
		} else {
			rep = an.BaselineLoss()
		}
		if !rep.Infinite {
			b.Fatal("baseline should be infinite")
		}
	}
}

func BenchmarkKernelBaselineFast(b *testing.B)   { benchBaseline(b, benchDefault, false) }
func BenchmarkKernelBaselineLegacy(b *testing.B) { benchBaseline(b, benchDefault, true) }

// benchRenormalized benchmarks one of the per-input-renormalized
// kernels (resampling, or constant-time with three candidates) at the
// certified resampling threshold.
func benchRenormalized(b *testing.B, par Params, constantTime, legacy bool) {
	b.Helper()
	an := NewAnalyzer(par)
	th, err := ResamplingThreshold(par, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep LossReport
		switch {
		case constantTime && legacy:
			rep = an.legacyConstantTimeLoss(th, 3)
		case constantTime:
			rep = an.ConstantTimeLoss(th, 3)
		case legacy:
			rep = an.legacyResamplingLoss(th)
		default:
			rep = an.ResamplingLoss(th)
		}
		if rep.Infinite {
			b.Fatal("certification failed")
		}
	}
}

func BenchmarkKernelResamplingFast(b *testing.B) { benchRenormalized(b, benchDefault, false, false) }
func BenchmarkKernelResamplingLegacy(b *testing.B) {
	benchRenormalized(b, benchDefault, false, true)
}
func BenchmarkKernelResamplingLargeFast(b *testing.B) {
	benchRenormalized(b, benchLarge, false, false)
}
func BenchmarkKernelResamplingLargeLegacy(b *testing.B) {
	benchRenormalized(b, benchLarge, false, true)
}

func BenchmarkKernelConstantTimeFast(b *testing.B) { benchRenormalized(b, benchDefault, true, false) }
func BenchmarkKernelConstantTimeLegacy(b *testing.B) {
	benchRenormalized(b, benchDefault, true, true)
}
func BenchmarkKernelConstantTimeLargeFast(b *testing.B) {
	benchRenormalized(b, benchLarge, true, false)
}
func BenchmarkKernelConstantTimeLargeLegacy(b *testing.B) {
	benchRenormalized(b, benchLarge, true, true)
}

// BenchmarkKernelProfileSweep measures the full Fig. 8 profile +
// segments + interior charge derivation (window-table reads).
func BenchmarkKernelProfileSweep(b *testing.B) {
	an := NewAnalyzer(benchDefault)
	th, err := ThresholdingThreshold(benchDefault, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.ThresholdingLossProfile(th)
		an.Segments(th, []float64{1.25, 1.5, 1.75})
		an.InteriorLoss(th)
	}
}

// benchConstantTimeSearch times one exact constant-time threshold
// search (three candidates, mult 2) on a warm analyzer: the bisection
// of decision probes ExactConstantTimeThreshold runs per certified
// configuration.
func benchConstantTimeSearch(b *testing.B, par Params) {
	b.Helper()
	CachedAnalyzer(par)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactConstantTimeThreshold(par, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelConstantTimeSearch(b *testing.B) { benchConstantTimeSearch(b, benchDefault) }
func BenchmarkKernelConstantTimeSearchLarge(b *testing.B) {
	benchConstantTimeSearch(b, benchLarge)
}

// benchAnalyzerBuild times NewAnalyzer: the one-walk PMF, its prefix
// sums and the window table.
func benchAnalyzerBuild(b *testing.B, par Params) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewAnalyzer(par)
	}
}

func BenchmarkAnalyzerBuild(b *testing.B)      { benchAnalyzerBuild(b, benchDefault) }
func BenchmarkAnalyzerBuildLarge(b *testing.B) { benchAnalyzerBuild(b, benchLarge) }
