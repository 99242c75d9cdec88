package core

// Structure-aware privacy-loss kernels.
//
// The generic certification scan evaluates P(y|x) for every output y
// and every grid input x — O(|Y|·|X|) with a closure call per cell.
// Every mechanism in this package shares one structural fact, though:
// away from the boundary-atom columns the conditional is translation
// invariant up to a per-input factor, P(y|x) = pmf[y−x]·f(x). The
// per-output extrema of pmf[y−x] over x are then sliding-window
// extrema over a fixed-width window of the PMF, which a
// monotonic-deque pass computes in O(|Y|+|X|) total.
//
// The baseline and thresholding conditionals have f ≡ 1, so the
// window extrema are the column extrema and those kernels are linear.
// The resampling (f = 1/z) and constant-time (f = accept) conditionals
// are renormalized per input, which breaks the window's argmax, so
// their kernels bound and prune instead: the window extrema times the
// hoisted extrema of f bound every cell of an output, and the exact
// O(|X|) column runs only for outputs whose bounded loss could still
// reach the running maximum (the chunk's, or a floor the chunks of a
// parallel scan share). Worst case they stay O(|Y|·|X|); in practice
// a few percent of the outputs are scanned.
//
// Decision probes. A threshold search only asks whether a loss is
// Bounded by its target, so the same kernels take a stop loss and an
// optional pre-seeded floor: a probe seeds the floor at the target
// bound, prunes every output whose cells prove its loss below it, and
// returns at the first output whose exact loss passes the stop
// (bound + lossTol(bound)). A full report is the same call with a nil
// floor and a +Inf stop.
//
// Exactness contract: every kernel evaluates the same float64
// expressions as the legacy closure kernel (kernels_legacy_test.go),
// in an order that preserves its tie-break semantics — among equal extrema
// the smallest x wins, and the smallest worst output wins overall —
// so optimized, legacy, sequential and parallel runs return identical
// LossReports bit for bit. A pruned output provably can neither win
// nor tie (see pruner). kernel_diff_test.go asserts this.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// kv is one sliding-window sample: the noise step k and its
// probability mass.
type kv struct {
	k int64
	v float64
}

// shiftWindow tracks the sliding-window extrema of the translation-
// invariant conditional P(y|x) = pmf[y−x] for x ∈ [xLo, xHi] as y
// advances, via a pair of monotonic deques. For output y the window
// is k ∈ [y−xHi, y−xLo]; advancing y by one pushes one new k and
// evicts at most one old k, so a full scan costs O(|Y|+|X|).
//
// Tie semantics match the legacy x-ascending strict-comparison scan:
// pushes pop equal-valued older entries, so the front entry is always
// the largest k (equivalently the smallest x) attaining the extremum.
type shiftWindow struct {
	a        *Analyzer
	xLo, xHi int64
	maxDq    []kv // values strictly decreasing front→back
	minDq    []kv // values strictly increasing front→back
	maxHead  int
	minHead  int
}

// windowPool recycles shiftWindow deque buffers. Every certification
// call and every DP-Box construction's Segments/InteriorLoss sweep
// opens fresh windows, so pooling them keeps the deques off the
// allocation path.
var windowPool = sync.Pool{New: func() any { return new(shiftWindow) }}

// newShiftWindow primes a pooled window so the first step call may be
// for output yStart. Callers release it when the scan ends.
func (a *Analyzer) newShiftWindow(yStart int64) *shiftWindow {
	w := windowPool.Get().(*shiftWindow)
	w.a, w.xLo, w.xHi = a, a.par.LoSteps(), a.par.HiSteps()
	w.maxHead, w.minHead = 0, 0
	if width := int(w.xHi - w.xLo + 1); cap(w.maxDq) < width+1 || cap(w.minDq) < width+1 {
		w.maxDq = make([]kv, 0, width+1)
		w.minDq = make([]kv, 0, width+1)
	}
	w.maxDq, w.minDq = w.maxDq[:0], w.minDq[:0]
	for k := yStart - w.xHi; k < yStart-w.xLo; k++ {
		w.push(k)
	}
	return w
}

// release returns the window's buffers to the pool. The window must
// not be used afterwards.
func (w *shiftWindow) release() {
	w.a = nil
	windowPool.Put(w)
}

// push admits noise step k into both deques. Zero-mass steps (grid
// holes and out-of-range k) enter like any other value so that
// pMin = 0 — the Infinite signal — is detected exactly where the
// legacy scan detects it.
func (w *shiftWindow) push(k int64) {
	v := w.a.probK(k)
	for len(w.maxDq) > w.maxHead && w.maxDq[len(w.maxDq)-1].v <= v {
		w.maxDq = w.maxDq[:len(w.maxDq)-1]
	}
	w.maxDq = append(w.maxDq, kv{k, v})
	for len(w.minDq) > w.minHead && w.minDq[len(w.minDq)-1].v >= v {
		w.minDq = w.minDq[:len(w.minDq)-1]
	}
	w.minDq = append(w.minDq, kv{k, v})
}

// step advances the window to output y and returns its extrema with
// the inputs attaining them.
func (w *shiftWindow) step(y int64) (pMax float64, xMax int64, pMin float64, xMin int64) {
	w.push(y - w.xLo)
	kLo := y - w.xHi
	for w.maxDq[w.maxHead].k < kLo {
		w.maxHead++
	}
	for w.minDq[w.minHead].k < kLo {
		w.minHead++
	}
	if w.maxHead > 1024 {
		n := copy(w.maxDq, w.maxDq[w.maxHead:])
		w.maxDq, w.maxHead = w.maxDq[:n], 0
	}
	if w.minHead > 1024 {
		n := copy(w.minDq, w.minDq[w.minHead:])
		w.minDq, w.minHead = w.minDq[:n], 0
	}
	m, n := w.maxDq[w.maxHead], w.minDq[w.minHead]
	return m.v, y - m.k, n.v, y - n.k
}

// accumulate folds one output column's extrema into rep, replicating
// the legacy per-output logic: unreachable outputs are skipped,
// one-sided reachability is an immediate infinite report, and ties on
// the loss keep the earlier (smaller) output. It reports true when
// the scan can stop — a later output can never override an earlier
// infinite report.
func accumulate(rep *LossReport, y int64, pMax float64, xMax int64, pMin float64, xMin int64) bool {
	if pMax <= 0 {
		return false // output unreachable from every input
	}
	if pMin <= 0 {
		*rep = LossReport{MaxLoss: math.Inf(1), Infinite: true,
			WorstOutput: y, WorstX1: xMax, WorstX2: xMin}
		return true
	}
	if loss := math.Log(pMax / pMin); loss > rep.MaxLoss {
		*rep = LossReport{MaxLoss: loss, WorstOutput: y, WorstX1: xMax, WorstX2: xMin}
	}
	return false
}

// colExtrema evaluates one output column f(x) over x ascending with
// the legacy strict-comparison tie-break (first x attaining the
// extremum wins). Used for the O(1)-per-cell boundary-atom columns.
func colExtrema(xLo, xHi int64, f func(x int64) float64) (pMax float64, xMax int64, pMin float64, xMin int64) {
	pMax, pMin = math.Inf(-1), math.Inf(1)
	for x := xLo; x <= xHi; x++ {
		p := f(x)
		if p > pMax {
			pMax, xMax = p, x
		}
		if p < pMin {
			pMin, xMin = p, x
		}
	}
	return
}

// scanShiftRange is the linear-time kernel for fully translation-
// invariant conditionals (the baseline mechanism) over outputs
// [lo, hi].
func (a *Analyzer) scanShiftRange(lo, hi int64) LossReport {
	rep := LossReport{}
	w := a.newShiftWindow(lo)
	defer w.release()
	for y := lo; y <= hi; y++ {
		pMax, xMax, pMin, xMin := w.step(y)
		if accumulate(&rep, y, pMax, xMax, pMin, xMin) {
			return rep
		}
	}
	return rep
}

// scanThresholdingRange is the linear-time thresholding kernel over
// the chunk [lo, hi] of the full output window [yLo, yHi]: the two
// boundary-atom columns are evaluated directly from the prefix sums,
// interior outputs ride the sliding window. It returns early once the
// chunk's MaxLoss passes stop.
func (a *Analyzer) scanThresholdingRange(yLo, yHi int64, stop float64, lo, hi int64) LossReport {
	rep := LossReport{}
	xLo, xHi := a.par.LoSteps(), a.par.HiSteps()
	if lo == yLo {
		pMax, xMax, pMin, xMin := colExtrema(xLo, xHi, func(x int64) float64 {
			return a.tailAtMost(yLo - x)
		})
		if accumulate(&rep, yLo, pMax, xMax, pMin, xMin) || rep.MaxLoss > stop {
			return rep
		}
		lo++
	}
	last := hi
	if hi == yHi {
		last--
	}
	if lo <= last {
		w := a.newShiftWindow(lo)
		for y := lo; y <= last; y++ {
			pMax, xMax, pMin, xMin := w.step(y)
			if accumulate(&rep, y, pMax, xMax, pMin, xMin) || rep.MaxLoss > stop {
				w.release()
				return rep
			}
		}
		w.release()
	}
	if hi == yHi {
		pMax, xMax, pMin, xMin := colExtrema(xLo, xHi, func(x int64) float64 {
			return a.tailAtLeast(yHi - x)
		})
		accumulate(&rep, yHi, pMax, xMax, pMin, xMin)
	}
	return rep
}

// lossFloor is the pruning floor one bound-and-prune certification
// shares across its parallel chunks: the largest finite loss any
// chunk has found so far, or, in a decision probe, the target bound
// it was seeded with if no chunk has found more. Losses are
// non-negative, and non-negative float64s order like their bit
// patterns, so the floor is one atomic word raised by
// compare-and-swap.
type lossFloor struct{ bits atomic.Uint64 }

func (f *lossFloor) load() float64 { return math.Float64frombits(f.bits.Load()) }

// seed resets the floor to loss (clamped at 0, which keeps the bit
// order) before a decision probe.
func (f *lossFloor) seed(loss float64) { f.bits.Store(math.Float64bits(math.Max(loss, 0))) }

func (f *lossFloor) raise(loss float64) {
	nb := math.Float64bits(loss)
	for {
		cur := f.bits.Load()
		if nb <= cur || f.bits.CompareAndSwap(cur, nb) {
			return
		}
	}
}

// pruner decides, per output, whether a bound-and-prune kernel may
// skip the exact column. An output whose every cell lies in [lb, ub]
// is skipped when ub/lb < limit = exp(best − 2·lossTol(best)), best
// being the larger of the chunk's running MaxLoss and the floor
// shared by a parallel scan's chunks (nil when the scan runs
// sequentially).
//
// Why the report stays bit-identical. Correctly rounded * and / are
// monotone on non-negative operands, so bounds built from the window
// extrema and the per-input factor extrema never understate a cell:
// pMin ≥ lb and pMax ≤ ub, hence the column's computed pMax/pMin is at
// most the computed ub/lb. math.Exp and math.Log are not correctly
// rounded, but their errors are below an ulp, far inside the
// 2·lossTol(best) margin, so a skipped output's loss ln(pMax/pMin) is
// strictly below best: it can neither win nor tie. Against the
// chunk's own MaxLoss that leaves the chunk's report unchanged.
// Against the floor — some scanned output's exact loss, so at most
// the final MaxLoss — a skipped output is strictly below the final
// maximum; a chunk whose report it would have changed holds no output
// reaching the floor and loses the merge either way, so the merged
// report is unchanged however the chunks interleave. A zero lb (a
// possibly one-sided, Infinite column) and NaN or infinite ratios (a
// zero normalization) always fall through to the exact scan.
//
// Why a decision probe keeps its verdict. A probe seeds the floor at
// its target bound, which need not be any output's loss, so the merged
// report may differ from the full one — but not its Bounded(bound)
// verdict. Every skipped output is two-sided (lb > 0) with loss below
// best, and best is the bound or a scanned loss. While best is at most
// the stop, bound + lossTol(bound), a skipped output cannot fail the
// bound: every failing output — one-sided, or with a loss past the
// stop — is scanned, and the first one makes its chunk's report fail.
// Once a scanned loss passes the stop that report decides the merged
// verdict, and found ends every chunk at its next scanned output. When
// bound ≤ MaxLoss ≤ stop the floor never passes the true maximum and
// nothing stops early, so the argument above for full reports holds as
// is: the probe's report is the full report, bit for bit.
type pruner struct {
	floor       *lossFloor
	stop        float64
	best, limit float64
}

func newPruner(floor *lossFloor, stop float64) pruner {
	return pruner{floor: floor, stop: stop, limit: pruneLimit(0)}
}

func pruneLimit(best float64) float64 { return math.Exp(best - 2*lossTol(best)) }

func (p *pruner) setBest(best float64) {
	p.best, p.limit = best, pruneLimit(best)
}

// skip reports whether an output whose cells lie in [lb, ub] provably
// cannot change the merged report.
func (p *pruner) skip(lb, ub float64) bool {
	if p.floor != nil {
		if f := p.floor.load(); f > p.best {
			p.setBest(f)
		}
	}
	return lb > 0 && ub/lb < p.limit
}

// found records the chunk report after a scanned output, publishing a
// raised finite MaxLoss to the shared floor. It reports true once the
// best loss, this chunk's or the floor's, passes the stop: the probe's
// verdict is decided and the chunk may end.
func (p *pruner) found(rep LossReport) bool {
	if !rep.Infinite && rep.MaxLoss > p.best {
		p.setBest(rep.MaxLoss)
		if p.floor != nil {
			p.floor.raise(rep.MaxLoss)
		}
	}
	return p.best > p.stop
}

// extrema returns the smallest and largest entries of a non-empty
// slice.
func extrema(f []float64) (lo, hi float64) {
	lo, hi = f[0], f[0]
	for _, v := range f[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// scanResamplingRange is the bound-and-prune resampling kernel over
// the outputs [lo, hi]. The per-input renormalization P(y|x) =
// pmf[y−x]/z[x] breaks translation invariance, so the window extrema
// are not the column extrema; they do bound them, though, by
// [wMin/zMax, wMax/zMin], and the exact O(|X|) column (direct slice
// indexing, the division — not a reciprocal multiply — kept
// bit-identical to the legacy kernel's) runs only where the pruner
// cannot skip it. zMin and zMax are the extrema of z; floor is the
// scan's shared floor (nil on a full report's sequential path) and
// stop the loss that ends it (+Inf for a full report).
func (a *Analyzer) scanResamplingRange(z []float64, zMin, zMax float64, floor *lossFloor, stop float64, lo, hi int64) LossReport {
	rep := LossReport{}
	xLo, xHi := a.par.LoSteps(), a.par.HiSteps()
	pmf := a.pmf
	pr := newPruner(floor, stop)
	w := a.newShiftWindow(lo)
	defer w.release()
	for y := lo; y <= hi; y++ {
		wMax, _, wMin, _ := w.step(y)
		if pr.skip(wMin/zMax, wMax/zMin) {
			continue
		}
		pMax, pMin := math.Inf(-1), math.Inf(1)
		var xMax, xMin int64
		base := y + a.maxK
		for x := xLo; x <= xHi; x++ {
			p := 0.0
			if i := base - x; uint64(i) < uint64(len(pmf)) {
				p = pmf[i] / z[x-xLo]
			}
			if p > pMax {
				pMax, xMax = p, x
			}
			if p < pMin {
				pMin, xMin = p, x
			}
		}
		if accumulate(&rep, y, pMax, xMax, pMin, xMin) || pr.found(rep) {
			return rep
		}
	}
	return rep
}

// scanConstantTimeRange is the bound-and-prune constant-time kernel:
// the acceptance factors and the k-th-power clamp atoms are hoisted
// into the per-x tables tb, leaving one multiply per interior cell.
// Interior cells pmf[y−x]·accept[x] are bounded by
// [wMin·aMin, wMax·aMax] and pruned by the pruner; the two clamp-atom
// outputs yLo and yHi are always scanned exactly. floor and stop are
// scanResamplingRange's.
func (a *Analyzer) scanConstantTimeRange(yLo, yHi int64, tb *ctTables, floor *lossFloor, stop float64, lo, hi int64) LossReport {
	rep := LossReport{}
	xLo, xHi := a.par.LoSteps(), a.par.HiSteps()
	pmf := a.pmf
	accept, aMin, aMax := tb.accept, tb.aMin, tb.aMax
	pr := newPruner(floor, stop)
	w := a.newShiftWindow(lo)
	defer w.release()
	for y := lo; y <= hi; y++ {
		wMax, _, wMin, _ := w.step(y)
		var atom []float64
		if y == yLo {
			atom = tb.atomLo
		} else if y == yHi {
			atom = tb.atomHi
		} else if pr.skip(wMin*aMin, wMax*aMax) {
			continue
		}
		pMax, pMin := math.Inf(-1), math.Inf(1)
		var xMax, xMin int64
		base := y + a.maxK
		for x := xLo; x <= xHi; x++ {
			p := 0.0
			if i := base - x; uint64(i) < uint64(len(pmf)) {
				p = pmf[i] * accept[x-xLo]
			}
			if atom != nil {
				p += atom[x-xLo]
			}
			if p > pMax {
				pMax, xMax = p, x
			}
			if p < pMin {
				pMin, xMin = p, x
			}
		}
		if accumulate(&rep, y, pMax, xMax, pMin, xMin) || pr.found(rep) {
			return rep
		}
	}
	return rep
}

// parallelCutoff is the output count below which the sequential
// kernel runs inline — goroutine fan-out costs more than it saves.
const parallelCutoff = 1 << 12

// chunkSpan picks the per-chunk output count for a parallel scan: an
// even split across the workers, capped so one chunk's PMF working
// set — the sliding window's width plus the chunk's span, 16 bytes
// per step counting the prefix sums the boundary columns read — stays
// inside a per-core L2 budget. Oversubscribing the chunk count
// beyond the worker count is deliberate: workers steal chunks off a
// shared counter, so uneven chunk costs (an early-infinite chunk
// returns immediately) still balance.
func (a *Analyzer) chunkSpan(outputs int64, workers int) int64 {
	const cacheBudget = 256 << 10 // bytes; a conservative per-core L2 share
	window := a.par.HiSteps() - a.par.LoSteps() + 1
	maxChunk := int64(cacheBudget/16) - window
	if maxChunk < 1<<10 {
		maxChunk = 1 << 10
	}
	per := (outputs + int64(workers) - 1) / int64(workers)
	if per > maxChunk {
		per = maxChunk
	}
	return per
}

// parallelScan runs scan over [yLo, yHi]. Large ranges are split into
// cache-sized chunks distributed over GOMAXPROCS workers — the Ps the
// process may actually run on — via a work-stealing counter; the merge
// is deterministic (smallest worst output wins ties), so parallel and
// sequential runs agree exactly. The chunks share one pruning floor
// for the bound-and-prune kernels: floor, pre-seeded by a decision
// probe, or, when floor is nil, a fresh one on the parallel path and
// none on the sequential one. Once a chunk reports an infinite loss,
// chunks strictly after it are skipped — their results can never win
// the merge against an earlier infinite report.
func (a *Analyzer) parallelScan(yLo, yHi int64, floor *lossFloor, scan func(lo, hi int64, floor *lossFloor) LossReport) LossReport {
	outputs := yHi - yLo + 1
	workers := runtime.GOMAXPROCS(0)
	if outputs < parallelCutoff || workers < 2 {
		return scan(yLo, yHi, floor)
	}
	if floor == nil {
		floor = new(lossFloor)
	}
	chunk := a.chunkSpan(outputs, workers)
	nchunks := (outputs + chunk - 1) / chunk
	if int64(workers) > nchunks {
		workers = int(nchunks)
	}
	parts := make([]LossReport, nchunks)
	var next atomic.Int64
	var firstInf atomic.Int64
	firstInf.Store(nchunks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// floor is passed, not captured: a captured parameter that is
		// reassigned above would move to the heap on every call,
		// sequential ones included.
		go func(floor *lossFloor) {
			defer wg.Done()
			for {
				c := next.Add(1) - 1
				if c >= nchunks {
					return
				}
				if c > firstInf.Load() {
					continue // dominated by an earlier infinite chunk
				}
				lo := yLo + c*chunk
				hi := lo + chunk - 1
				if hi > yHi {
					hi = yHi
				}
				rep := scan(lo, hi, floor)
				parts[c] = rep
				if rep.Infinite {
					for {
						cur := firstInf.Load()
						if c >= cur || firstInf.CompareAndSwap(cur, c) {
							break
						}
					}
				}
			}
		}(floor)
	}
	wg.Wait()
	rep := parts[0]
	for _, p := range parts[1:] {
		rep = mergeLoss(rep, p)
	}
	return rep
}

// lossSweep computes the thresholding mechanism's per-output loss for
// every output y ∈ [yLo, yHi] in one boundary-aware sliding-window
// pass — the batched counterpart of LossAt, costing O(|Y|+|X|) for
// the whole profile instead of O(|X|) per output. Entry i of the
// returned slice is the loss at output yLo+i, with the LossAt
// conventions: 0 for unreachable outputs, +Inf for one-sided ones.
func (a *Analyzer) lossSweep(t int64) (yLo int64, losses []float64) {
	if t < 0 {
		panic("core: negative threshold")
	}
	yLo = a.par.LoSteps() - t
	yHi := a.par.HiSteps() + t
	xLo, xHi := a.par.LoSteps(), a.par.HiSteps()
	losses = make([]float64, yHi-yLo+1)
	set := func(y int64, pMax, pMin float64) {
		switch {
		case pMax <= 0:
			// unreachable output: no information, no loss
		case pMin <= 0:
			losses[y-yLo] = math.Inf(1)
		default:
			losses[y-yLo] = math.Log(pMax / pMin)
		}
	}
	pMax, _, pMin, _ := colExtrema(xLo, xHi, func(x int64) float64 {
		return a.tailAtMost(yLo - x)
	})
	set(yLo, pMax, pMin)
	if yHi == yLo {
		return yLo, losses
	}
	w := a.newShiftWindow(yLo + 1)
	for y := yLo + 1; y < yHi; y++ {
		pMax, _, pMin, _ := w.step(y)
		set(y, pMax, pMin)
	}
	w.release()
	pMax, _, pMin, _ = colExtrema(xLo, xHi, func(x int64) float64 {
		return a.tailAtLeast(yHi - x)
	})
	set(yHi, pMax, pMin)
	return yLo, losses
}
