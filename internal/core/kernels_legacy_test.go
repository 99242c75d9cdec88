package core

// The original closure-based certification kernel, retained as the
// executable specification of the optimized kernels in kernels.go.
// It evaluates an arbitrary conditional P(y|x) cell by cell, so its
// correctness is self-evident from eq. 4; the differential tests
// (kernel_diff_test.go) assert that every optimized kernel returns
// reports identical to it field for field, tie-breaks included.

import "math"

// legacyScanLoss computes the worst-case loss given a conditional
// probability function P(y|x) over output steps [yLo, yHi] (absolute
// grid) and inputs [LoSteps, HiSteps], one closure call per cell.
func (a *Analyzer) legacyScanLoss(yLo, yHi int64, cond func(y, x int64) float64) LossReport {
	rep := LossReport{MaxLoss: 0}
	xLo, xHi := a.par.LoSteps(), a.par.HiSteps()
	for y := yLo; y <= yHi; y++ {
		pMax, pMin := math.Inf(-1), math.Inf(1)
		var xMax, xMin int64
		for x := xLo; x <= xHi; x++ {
			p := cond(y, x)
			if p > pMax {
				pMax, xMax = p, x
			}
			if p < pMin {
				pMin, xMin = p, x
			}
		}
		if pMax <= 0 {
			continue // output unreachable from every input
		}
		if pMin <= 0 {
			return LossReport{MaxLoss: math.Inf(1), Infinite: true,
				WorstOutput: y, WorstX1: xMax, WorstX2: xMin}
		}
		if loss := math.Log(pMax / pMin); loss > rep.MaxLoss {
			rep = LossReport{MaxLoss: loss, WorstOutput: y, WorstX1: xMax, WorstX2: xMin}
		}
	}
	return rep
}

// legacyBaselineLoss is BaselineLoss through the reference kernel.
func (a *Analyzer) legacyBaselineLoss() LossReport {
	yLo := a.par.LoSteps() - a.maxK
	yHi := a.par.HiSteps() + a.maxK
	return a.legacyScanLoss(yLo, yHi, func(y, x int64) float64 {
		return a.probK(y - x)
	})
}

// legacyThresholdingLoss is ThresholdingLoss through the reference
// kernel.
func (a *Analyzer) legacyThresholdingLoss(t int64) LossReport {
	if t < 0 {
		panic("core: negative threshold")
	}
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	return a.legacyScanLoss(yLo, yHi, a.thresholdingCond(t))
}

// legacyResamplingLoss is ResamplingLoss through the reference
// kernel.
func (a *Analyzer) legacyResamplingLoss(t int64) LossReport {
	if t < 0 {
		panic("core: negative threshold")
	}
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	xLo, xHi := a.par.LoSteps(), a.par.HiSteps()
	z := make([]float64, xHi-xLo+1)
	for x := xLo; x <= xHi; x++ {
		z[x-xLo] = a.massBetween(yLo-x, yHi-x)
	}
	return a.legacyScanLoss(yLo, yHi, func(y, x int64) float64 {
		return a.probK(y-x) / z[x-xLo]
	})
}

// legacyConstantTimeLoss is ConstantTimeLoss through the reference
// kernel, with the clamp-atom powers recomputed per boundary cell as
// the original code did.
func (a *Analyzer) legacyConstantTimeLoss(t int64, k int) LossReport {
	if t < 0 {
		panic("core: negative threshold")
	}
	if k < 1 {
		panic("core: need at least one candidate sample")
	}
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	miss := make([]missSplit, a.par.RangeSteps()+1)
	for i := range miss {
		miss[i] = a.missAt(a.par.LoSteps()+int64(i), yLo, yHi, k)
	}
	return a.legacyScanLoss(yLo, yHi, func(y, x int64) float64 {
		m := miss[x-a.par.LoSteps()]
		p := a.probK(y-x) * m.accept
		if y == yLo || y == yHi {
			qk := 1.0
			for i := 0; i < k-1; i++ {
				qk *= m.total
			}
			if y == yLo {
				p += m.lo * qk
			} else {
				p += m.hi * qk
			}
		}
		return p
	})
}
