package core

import (
	"fmt"
	"math"
	"sync"

	"ulpdp/internal/laplace"
)

// maxAnalyzerSteps bounds the materialized PMF and the input grid.
// Realistic ULP configurations (B_y <= 20) stay far below it.
const maxAnalyzerSteps = 1 << 22

// LossReport is the outcome of an exact worst-case privacy-loss
// computation: the maximum over every output value and every pair of
// grid-aligned inputs of the log likelihood ratio (eq. 4).
type LossReport struct {
	// MaxLoss is the worst-case privacy loss in nats. +Inf when
	// Infinite is set.
	MaxLoss float64
	// Infinite reports that some output is producible by one input
	// but not another — the failure mode of the naive mechanism.
	Infinite bool
	// WorstOutput is an output value (in steps, absolute grid) that
	// attains MaxLoss.
	WorstOutput int64
	// WorstX1, WorstX2 are inputs (in steps) attaining MaxLoss:
	// Pr[y|x1] > Pr[y|x2].
	WorstX1, WorstX2 int64
}

// lossTol is the comparison slack for loss-vs-bound checks: relative
// in the bound once it exceeds one nat. A bare absolute 1e-12 is
// below float64's representable spacing once ε·mult grows past ~1e4,
// so exact-at-the-bound losses would be rejected by nothing more than
// the rounding of the final log.
func lossTol(bound float64) float64 {
	const rel = 1e-12
	if b := math.Abs(bound); b > 1 {
		return b * rel
	}
	return rel
}

// Bounded reports whether the loss is finite and at most bound nats
// (up to a relative rounding tolerance).
func (r LossReport) Bounded(bound float64) bool {
	return !r.Infinite && r.MaxLoss <= bound+lossTol(bound)
}

// Analyzer computes exact privacy-loss figures for mechanisms built
// on a fixed-point noise RNG, by enumerating the discrete output
// distribution for every grid-aligned input in [Lo, Hi].
type Analyzer struct {
	par  Params
	pmf  []float64 // signed PMF; index k+maxK
	cum  []float64 // cum[i] = sum of pmf[0..i-1]
	win  []winExt  // window extrema of output y; index y−xLo+maxK
	maxK int64
	xLo  int64 // par.LoSteps()

	plans planMemo // guard plans derived for par (see cache.go)
}

// mustValidate guards the analyzer constructors: they are always
// called with parameters a mechanism constructor already validated
// (or test fixtures), so a failure here is a programmer invariant and
// panics are the documented behaviour (DESIGN.md §6).
func mustValidate(par Params) {
	if err := par.Validate(); err != nil {
		panic(err)
	}
}

// NewAnalyzer builds an Analyzer over the fixed-point Laplace RNG
// implied by par. It panics on invalid parameters or when the
// configuration is too large to enumerate (B_y beyond any plausible
// ULP datapath).
func NewAnalyzer(par Params) *Analyzer {
	mustValidate(par)
	d := laplace.NewDist(par.FxP())
	checkSteps(par, d.MaxK()) // before the PMF is materialized
	pmf, maxK := d.PMF()
	return newAnalyzerPMF(par, pmf, maxK)
}

// NewAnalyzerFromPMF builds an Analyzer over an arbitrary symmetric
// signed noise PMF (index i corresponds to step k = i − maxK) on
// par's grid — the hook for certifying non-Laplace noise families
// (Gaussian, staircase; see internal/noisedist). The PMF must sum to
// 1 and have length 2·maxK+1. It panics on malformed input.
func NewAnalyzerFromPMF(par Params, pmf []float64, maxK int64) *Analyzer {
	mustValidate(par)
	if int64(len(pmf)) != 2*maxK+1 {
		panic(fmt.Sprintf("core: PMF length %d does not match maxK %d", len(pmf), maxK))
	}
	var sum float64
	for _, p := range pmf {
		if p < 0 {
			panic("core: negative PMF entry")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("core: PMF sums to %g", sum))
	}
	return newAnalyzerPMF(par, pmf, maxK)
}

// checkSteps panics when the noise support or the input grid is too
// large to enumerate; the window table's int32 input offsets rely on
// the second bound.
func checkSteps(par Params, maxK int64) {
	if maxK > maxAnalyzerSteps {
		panic(fmt.Sprintf("core: analyzer grid %d steps exceeds limit %d", maxK, maxAnalyzerSteps))
	}
	if d := par.RangeSteps(); d > maxAnalyzerSteps {
		panic(fmt.Sprintf("core: analyzer range %d steps exceeds limit %d", d, maxAnalyzerSteps))
	}
}

func newAnalyzerPMF(par Params, pmf []float64, maxK int64) *Analyzer {
	checkSteps(par, maxK)
	cum := make([]float64, len(pmf)+1)
	for i, p := range pmf {
		cum[i+1] = cum[i] + p
	}
	a := &Analyzer{par: par, pmf: pmf, cum: cum, maxK: maxK, xLo: par.LoSteps()}
	a.win = a.windowTable()
	return a
}

// retainedBytes is the memory the analyzer holds: the PMF, its prefix
// sums and the window table, about 24 bytes per noise step.
func (a *Analyzer) retainedBytes() int64 {
	return 8 * int64(len(a.pmf)+len(a.cum)+len(a.win))
}

// Params returns the analyzer's parameters.
func (a *Analyzer) Params() Params { return a.par }

// MaxK returns the RNG's largest reachable noise magnitude in steps.
func (a *Analyzer) MaxK() int64 { return a.maxK }

// probK returns Pr[n = kΔ] for signed k.
func (a *Analyzer) probK(k int64) float64 {
	if k < -a.maxK || k > a.maxK {
		return 0
	}
	return a.pmf[k+a.maxK]
}

// massBetween returns Pr[lo <= n/Δ <= hi] via the prefix sums.
func (a *Analyzer) massBetween(lo, hi int64) float64 {
	if lo < -a.maxK {
		lo = -a.maxK
	}
	if hi > a.maxK {
		hi = a.maxK
	}
	if lo > hi {
		return 0
	}
	return a.cum[hi+a.maxK+1] - a.cum[lo+a.maxK]
}

// tailAtLeast returns Pr[n/Δ >= k] for any signed k.
func (a *Analyzer) tailAtLeast(k int64) float64 { return a.massBetween(k, a.maxK) }

// tailAtMost returns Pr[n/Δ <= k] for any signed k.
func (a *Analyzer) tailAtMost(k int64) float64 { return a.massBetween(-a.maxK, k) }

// mergeLoss combines two partial reports: larger loss wins; ties
// (including both infinite) go to the smaller worst output, matching
// the sequential scan's first-hit semantics.
func mergeLoss(a, b LossReport) LossReport {
	switch {
	case a.Infinite && b.Infinite:
		if b.WorstOutput < a.WorstOutput {
			return b
		}
		return a
	case a.Infinite:
		return a
	case b.Infinite:
		return b
	case b.MaxLoss > a.MaxLoss:
		return b
	}
	return a
}

// BaselineLoss certifies the naive mechanism. For any usable
// configuration the result is Infinite: the RNG's bounded range means
// extreme outputs identify extreme inputs (Section III-A3). The
// conditional is fully translation invariant, so every output's
// column extrema are its window-table entry: O(1) per output.
func (a *Analyzer) BaselineLoss() LossReport {
	yLo := a.par.LoSteps() - a.maxK
	yHi := a.par.HiSteps() + a.maxK
	return a.parallelScan(yLo, yHi, nil, func(lo, hi int64, _ *lossFloor) LossReport {
		return a.scanShiftRange(lo, hi)
	})
}

// ResamplingLoss computes the exact worst-case loss of the resampling
// mechanism with threshold t steps. The conditional distribution is
// the RNG PMF restricted to the acceptance window and renormalized.
func (a *Analyzer) ResamplingLoss(t int64) LossReport {
	if t < 0 {
		panic("core: negative threshold")
	}
	return a.resamplingLoss(make([]float64, a.par.RangeSteps()+1), t, nil, math.Inf(1))
}

// resamplingLoss is ResamplingLoss as a decision probe (see
// kernels.go): z, one entry per input, is refilled with the per-input
// normalization; floor and stop are the kernel's.
func (a *Analyzer) resamplingLoss(z []float64, t int64, floor *lossFloor, stop float64) LossReport {
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	// Per-input normalization Z(x) = Pr[y in window | x].
	xLo := a.par.LoSteps()
	for i := range z {
		x := xLo + int64(i)
		z[i] = a.massBetween(yLo-x, yHi-x)
	}
	zMin, zMax := extrema(z)
	return a.parallelScan(yLo, yHi, floor, func(lo, hi int64, floor *lossFloor) LossReport {
		return a.scanResamplingRange(z, zMin, zMax, floor, stop, lo, hi)
	})
}

// ThresholdingLoss computes the exact worst-case loss of the
// thresholding mechanism with threshold t steps. Boundary outputs
// carry the clamped tail mass; interior outputs are translation
// invariant and read their extrema from the window table in O(1).
func (a *Analyzer) ThresholdingLoss(t int64) LossReport {
	if t < 0 {
		panic("core: negative threshold")
	}
	return a.thresholdingLoss(t, math.Inf(1))
}

// thresholdingLoss is ThresholdingLoss ended early once the loss
// passes stop.
func (a *Analyzer) thresholdingLoss(t int64, stop float64) LossReport {
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	return a.parallelScan(yLo, yHi, nil, func(lo, hi int64, _ *lossFloor) LossReport {
		return a.scanThresholdingRange(yLo, yHi, stop, lo, hi)
	})
}

func (a *Analyzer) thresholdingCond(t int64) func(y, x int64) float64 {
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	return func(y, x int64) float64 {
		switch {
		case y == yLo:
			return a.tailAtMost(yLo - x)
		case y == yHi:
			return a.tailAtLeast(yHi - x)
		default:
			return a.probK(y - x)
		}
	}
}

// ConstantTimeLoss computes the exact worst-case loss of the
// constant-time resampling variant (the paper's Section IV-C timing-
// channel mitigation): k candidate samples are drawn in one cycle and
// the first one inside the window is taken; if all k miss, the last
// candidate is clamped to the window edge. The conditional
// distribution mixes a partially-renormalized resampling term with a
// k-th-power clamp term:
//
//	P(y|x) = p(y−x)·(1−q(x)^k)/(1−q(x))            interior
//	       + q_side(x)·q(x)^(k−1) at the window edges,
//
// with q(x) the per-draw miss probability and q_side its one-sided
// parts. The clamp term's likelihood ratio grows like the k-th power
// of the tail ratio, but its mass shrinks like q^(k−1); this function
// resolves the trade-off exactly.
func (a *Analyzer) ConstantTimeLoss(t int64, k int) LossReport {
	if t < 0 {
		panic("core: negative threshold")
	}
	if k < 1 {
		panic("core: need at least one candidate sample")
	}
	tb := ctPool.Get().(*ctTables)
	defer ctPool.Put(tb)
	return a.constantTimeLoss(tb, t, k, nil, math.Inf(1))
}

// constantTimeLoss is ConstantTimeLoss as a decision probe (see
// kernels.go): tb is refilled for the window; floor and stop are the
// kernel's.
func (a *Analyzer) constantTimeLoss(tb *ctTables, t int64, k int, floor *lossFloor, stop float64) LossReport {
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	tb.fill(a, yLo, yHi, k)
	return a.parallelScan(yLo, yHi, floor, func(lo, hi int64, floor *lossFloor) LossReport {
		return a.scanConstantTimeRange(yLo, yHi, tb, floor, stop, lo, hi)
	})
}

// missSplit is the per-input miss decomposition of the constant-time
// mechanism: one-sided miss masses, their total, and the acceptance
// factor (1−q^k)/(1−q).
type missSplit struct{ lo, hi, total, accept float64 }

// missAt is the constant-time miss decomposition for input x and the
// window [yLo, yHi].
func (a *Analyzer) missAt(x, yLo, yHi int64, k int) missSplit {
	lo := a.tailAtMost(yLo - x - 1)
	hi := a.tailAtLeast(yHi - x + 1)
	q := lo + hi
	// accept factor (1−q^k)/(1−q), exactly; q < 1 always (the window
	// contains the bulk).
	f := 0.0
	qp := 1.0
	for i := 0; i < k; i++ {
		f += qp
		qp *= q
	}
	return missSplit{lo: lo, hi: hi, total: q, accept: f}
}

// ctTables is the constant-time kernel's per-input working set, one
// entry per input: the acceptance factor scaling every interior cell,
// the clamp atoms the two boundary outputs add, and the acceptance
// extrema that bound interior cells. ConstantTimeLoss fills one per
// call and a threshold search one per probe, both from ctPool, so the
// buffers are reallocated only for a larger input grid, not per call.
type ctTables struct {
	buf                    []float64 // backs the three tables
	accept, atomLo, atomHi []float64
	aMin, aMax             float64
}

var ctPool = sync.Pool{New: func() any { return new(ctTables) }}

// fill tabulates tb for the window [yLo, yHi] and k candidates. The
// atoms repeat the legacy kernel's multiplication order (q^(k−1) by
// running product, then the one-sided mass) so the sums are
// bit-identical.
func (tb *ctTables) fill(a *Analyzer, yLo, yHi int64, k int) {
	if n := int(a.par.RangeSteps() + 1); len(tb.accept) != n {
		if cap(tb.buf) < 3*n {
			tb.buf = make([]float64, 3*n)
		}
		tb.accept, tb.atomLo, tb.atomHi = tb.buf[:n:n], tb.buf[n:2*n:2*n], tb.buf[2*n:3*n:3*n]
	}
	xLo := a.par.LoSteps()
	for i := range tb.accept {
		m := a.missAt(xLo+int64(i), yLo, yHi, k)
		tb.accept[i] = m.accept
		qk := 1.0
		for j := 0; j < k-1; j++ {
			qk *= m.total
		}
		tb.atomLo[i] = m.lo * qk
		tb.atomHi[i] = m.hi * qk
	}
	tb.aMin, tb.aMax = extrema(tb.accept)
}

// LossAt returns the per-output privacy loss of the thresholding
// mechanism at output step y — the quantity Fig. 8 plots and the
// budget-control algorithm charges. The result is +Inf if y is
// reachable from some inputs only.
func (a *Analyzer) LossAt(t, y int64) float64 {
	cond := a.thresholdingCond(t)
	pMax, pMin := math.Inf(-1), math.Inf(1)
	for x := a.par.LoSteps(); x <= a.par.HiSteps(); x++ {
		p := cond(y, x)
		if p > pMax {
			pMax = p
		}
		if p < pMin {
			pMin = p
		}
	}
	if pMax <= 0 {
		return 0 // unreachable output: no information, no loss
	}
	if pMin <= 0 {
		return math.Inf(1)
	}
	return math.Log(pMax / pMin)
}

// ResamplingLossAt returns the per-output privacy loss of the
// resampling mechanism with threshold t at output step y — the
// resampling counterpart of LossAt, including each input's
// acceptance-mass renormalization.
func (a *Analyzer) ResamplingLossAt(t, y int64) float64 {
	if t < 0 {
		panic("core: negative threshold")
	}
	yLo := a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	if y < yLo || y > yHi {
		return 0
	}
	pMax, pMin := math.Inf(-1), math.Inf(1)
	for x := a.par.LoSteps(); x <= a.par.HiSteps(); x++ {
		p := a.probK(y-x) / a.massBetween(yLo-x, yHi-x)
		if p > pMax {
			pMax = p
		}
		if p < pMin {
			pMin = p
		}
	}
	if pMax <= 0 {
		return 0
	}
	if pMin <= 0 {
		return math.Inf(1)
	}
	return math.Log(pMax / pMin)
}

// LossPoint is one sample of the Fig. 8 loss profile.
type LossPoint struct {
	// Offset is the output's distance beyond Hi, in steps (0 = at Hi).
	Offset int64
	// Loss is the per-output privacy loss in nats.
	Loss float64
	// Normalized is Loss/ε, the multiplier axis of Fig. 8.
	Normalized float64
}

// thresholdingWindow returns the output window [yLo, yHi] of the
// thresholding mechanism with threshold t.
func (a *Analyzer) thresholdingWindow(t int64) (yLo, yHi int64) {
	if t < 0 {
		panic("core: negative threshold")
	}
	return a.xLo - t, a.par.HiSteps() + t
}

// outputLoss is LossAt(t, y) for an output y in the thresholding
// window [yLo, yHi] of t, in O(1) for interior outputs: the boundary
// columns come from the prefix sums, every other column's extrema from
// the window table.
func (a *Analyzer) outputLoss(yLo, yHi, y int64) float64 {
	var pMax, pMin float64
	switch y {
	case yLo:
		pMax, _, pMin, _ = colExtrema(a.xLo, a.par.HiSteps(), func(x int64) float64 {
			return a.tailAtMost(yLo - x)
		})
	case yHi:
		pMax, _, pMin, _ = colExtrema(a.xLo, a.par.HiSteps(), func(x int64) float64 {
			return a.tailAtLeast(yHi - x)
		})
	default:
		pMax, _, pMin, _ = a.window(y)
	}
	switch {
	case pMax <= 0:
		return 0 // unreachable output: no information, no loss
	case pMin <= 0:
		return math.Inf(1)
	}
	return math.Log(pMax / pMin)
}

// ThresholdingLossProfile returns the per-output loss for outputs
// from Hi to Hi + t steps (the profile is symmetric about the range,
// so only the upper side is reported, as in Fig. 8). Each point reads
// the window table, not an O(|X|) LossAt scan.
func (a *Analyzer) ThresholdingLossProfile(t int64) []LossPoint {
	yLo, yHi := a.thresholdingWindow(t)
	points := make([]LossPoint, 0, t+1)
	hi := a.par.HiSteps()
	for o := int64(0); o <= t; o++ {
		l := a.outputLoss(yLo, yHi, hi+o)
		points = append(points, LossPoint{Offset: o, Loss: l, Normalized: l / a.par.Eps})
	}
	return points
}

// Segment is one budget-control charging band: outputs up to Offset
// steps beyond the sensor range cost at most Mult·ε.
type Segment struct {
	// Mult is the loss multiplier for this band.
	Mult float64
	// Offset is the largest distance beyond the range (in steps)
	// still charged at Mult·ε. Offsets beyond the previous segment's
	// Offset and at most this one fall in this band.
	Offset int64
}

// Segments derives the budget-control charging bands of Algorithm 1
// for the thresholding mechanism with threshold t: for each requested
// multiplier (ascending), the largest output offset whose per-output
// loss is at most mult·ε. Multipliers that admit no offset are
// dropped; the last usable multiplier is clamped to t.
//
// One walk over offsets 0..t keeps the running maximum loss: a
// multiplier's offset is the last one whose running maximum is within
// its bound (up to a relative rounding tolerance — see lossTol), and
// the walk stops once the running maximum passes every bound.
func (a *Analyzer) Segments(t int64, multipliers []float64) []Segment {
	yLo, yHi := a.thresholdingWindow(t)
	segs := make([]Segment, len(multipliers))
	top := math.Inf(-1) // the largest bound with its tolerance
	for i, mult := range multipliers {
		segs[i] = Segment{Mult: mult, Offset: -1}
		bound := mult * a.par.Eps
		if b := bound + lossTol(bound); b > top {
			top = b
		}
	}
	hi := a.par.HiSteps()
	run := math.Inf(-1)
	for o := int64(0); o <= t; o++ {
		if l := a.outputLoss(yLo, yHi, hi+o); l > run {
			run = l
		}
		if run > top {
			break
		}
		for i := range segs {
			if bound := segs[i].Mult * a.par.Eps; run <= bound+lossTol(bound) {
				segs[i].Offset = o
			}
		}
	}
	out := segs[:0]
	for _, s := range segs {
		if s.Offset >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// InteriorLoss returns the worst per-output loss across outputs that
// lie inside the sensor range — the ε_RNG charge of Algorithm 1 for
// in-range reports. Like the profile, it reads the window table.
func (a *Analyzer) InteriorLoss(t int64) float64 {
	yLo, yHi := a.thresholdingWindow(t)
	worst := 0.0
	for y := a.xLo; y <= a.par.HiSteps(); y++ {
		if l := a.outputLoss(yLo, yHi, y); l > worst {
			worst = l
		}
	}
	return worst
}
