package core

// Structure-aware privacy-loss kernels.
//
// The generic certification scan evaluates P(y|x) for every output y
// and every grid input x — O(|Y|·|X|) with a closure call per cell.
// Every mechanism in this package shares one structural fact, though:
// away from the boundary-atom columns the conditional is translation
// invariant up to a per-input factor, P(y|x) = pmf[y−x]·f(x). The
// per-output extrema of pmf[y−x] over x are then sliding-window
// extrema over a fixed-width window of the PMF. They depend only on
// y, the PMF and [Lo, Hi] — not on the threshold or the mechanism —
// so the Analyzer tabulates them once, in one monotonic-deque pass
// costing O(maxK+|X|) at construction, and every kernel, decision
// probe and per-output loss reads them in O(1) (windowTable, window).
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

// winExt is one output's window extrema: the inputs attaining the
// largest and the smallest pmf[y−x] over x ∈ [Lo, Hi], as offsets
// from Lo.
type winExt struct{ max, min int32 }

// stepDeque is a fixed-capacity ring of noise steps, stored as int32
// offsets from the first step windowTable pushes. A monotonic deque
// holds at most one window's steps plus the one being pushed.
type stepDeque struct {
	buf     []int32
	head, n int
}

func (d *stepDeque) front() int32 { return d.buf[d.head] }

func (d *stepDeque) back() int32 {
	i := d.head + d.n - 1
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	return d.buf[i]
}

func (d *stepDeque) pushBack(o int32) {
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = o
	d.n++
}

func (d *stepDeque) popBack() { d.n-- }

func (d *stepDeque) popFront() {
	if d.head++; d.head == len(d.buf) {
		d.head = 0
	}
	d.n--
}

// windowTable tabulates the window extrema of every output
// y ∈ [Lo−maxK, Hi+maxK] in one monotonic-deque pass: for output y
// the window is k ∈ [y−Hi, y−Lo], and advancing y by one pushes one
// new k and evicts at most one old k, so the whole table costs
// O(maxK+|X|). Outside that range every window is all-zero; see
// window.
//
// Tie semantics match the legacy x-ascending strict-comparison scan:
// pushes pop equal-valued older entries, so the front entry is always
// the largest k (equivalently the smallest x) attaining the extremum.
// Zero-mass steps (grid holes and out-of-range k) enter like any
// other value so that pMin = 0 — the Infinite signal — is detected
// exactly where the legacy scan detects it.
func (a *Analyzer) windowTable() []winExt {
	width := a.par.RangeSteps() + 1
	// Offset o is noise step k0+o; k0 is the first step in output
	// Lo−maxK's window, and output Lo−maxK+i's window is offsets
	// [i, i+width−1].
	k0 := -(width - 1) - a.maxK
	buf := make([]int32, 2*(width+1))
	maxDq := stepDeque{buf: buf[:width+1]} // values strictly decreasing front→back
	minDq := stepDeque{buf: buf[width+1:]} // values strictly increasing front→back
	tab := make([]winExt, width+2*a.maxK)
	for o := int32(0); int(o) < len(tab)+int(width)-1; o++ {
		p := a.probK(k0 + int64(o))
		for maxDq.n > 0 && a.probK(k0+int64(maxDq.back())) <= p {
			maxDq.popBack()
		}
		maxDq.pushBack(o)
		for minDq.n > 0 && a.probK(k0+int64(minDq.back())) >= p {
			minDq.popBack()
		}
		minDq.pushBack(o)
		i := o - int32(width-1)
		if i < 0 {
			continue
		}
		for maxDq.front() < i {
			maxDq.popFront()
		}
		for minDq.front() < i {
			minDq.popFront()
		}
		// Input x = y−k, so x−Lo = o − (the front's offset).
		tab[i] = winExt{max: o - maxDq.front(), min: o - minDq.front()}
	}
	return tab
}

// window returns output y's window extrema of pmf[y−x] over the input
// range, with the inputs attaining them, in O(1) from the table.
// Outside the table every window is all-zero and the smallest input
// wins the tie, so the lookup returns (0, Lo, 0, Lo).
func (a *Analyzer) window(y int64) (pMax float64, xMax int64, pMin float64, xMin int64) {
	i := y - a.xLo + a.maxK
	if uint64(i) >= uint64(len(a.win)) {
		return 0, a.xLo, 0, a.xLo
	}
	e := a.win[i]
	xMax, xMin = a.xLo+int64(e.max), a.xLo+int64(e.min)
	return a.probK(y - xMax), xMax, a.probK(y - xMin), xMin
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
	for y := lo; y <= hi; y++ {
		pMax, xMax, pMin, xMin := a.window(y)
		if accumulate(&rep, y, pMax, xMax, pMin, xMin) {
			return rep
		}
	}
	return rep
}

// scanThresholdingRange is the linear-time thresholding kernel over
// the chunk [lo, hi] of the full output window [yLo, yHi]: the two
// boundary-atom columns are evaluated directly from the prefix sums,
// interior outputs read the window table. It returns early once the
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
	for y := lo; y <= last; y++ {
		pMax, xMax, pMin, xMin := a.window(y)
		if accumulate(&rep, y, pMax, xMax, pMin, xMin) || rep.MaxLoss > stop {
			return rep
		}
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
	for y := lo; y <= hi; y++ {
		wMax, _, wMin, _ := a.window(y)
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
	for y := lo; y <= hi; y++ {
		wMax, _, wMin, _ := a.window(y)
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
// even split across the workers, capped so one chunk's working set —
// the chunk's window-table entries and the PMF over its span plus one
// input window, 16 bytes per step — stays inside a per-core L2
// budget. Oversubscribing the chunk count
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
