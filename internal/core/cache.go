package core

// Process-wide analyzer cache. Every guarantee in the pipeline —
// threshold certification, the Fig. 8 profile, Algorithm 1 charging —
// funnels through an Analyzer, and the experiment suite, the budget
// controller and the public Certify entry points all rebuild the
// exact PMF for the same Params over and over. An Analyzer's PMF is
// immutable after construction (the kernels only read pmf/cum), so
// one instance can serve any number of concurrent certifications;
// this cache shares them.
//
// Contract: the cache key is the full Params value (plus, for
// non-Laplace families, a comparable PMF identity), and an Analyzer
// is a pure function of its key — there is nothing to invalidate.
// Entries are evicted LRU once the cache exceeds either an entry
// count or a total-PMF-size budget, so long-running services sweeping
// many sensor configurations cannot grow it without bound.
//
// Guard-plan memo. A guard's threshold (GuardThreshold) and its
// Algorithm 1 charge schedule (NewChargeSchedule) are pure functions
// of the sensor configuration, yet every DP-Box derives them at
// power-up and again after every crash recovery. Each Analyzer
// memoizes the plans derived for its Params in a mutex-guarded map,
// so a plan lives, and is evicted, with its analyzer's cache entry.
// The key is the comparable planKey: the guard, the threshold or
// candidate count, and the multipliers by bit pattern, up to
// planKeyMults segment multipliers. A hit therefore neither allocates
// nor rounds. A schedule with more multipliers, and any plan past
// planMaxEntries on one analyzer, is computed without being stored.
// Memoized schedules share their Segments slice, which is read-only.

import (
	"container/list"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

const (
	// cacheMaxEntries bounds the number of cached analyzers.
	cacheMaxEntries = 64
	// cacheMaxSteps bounds the total retained PMF length (entries are
	// ~16 bytes per step counting the prefix sums).
	cacheMaxSteps = 1 << 21
)

type cacheKey struct {
	par Params
	id  any // nil for the native Laplace RNG; family identity otherwise
}

type cacheEntry struct {
	key cacheKey
	an  *Analyzer
}

var (
	cacheMu     sync.Mutex
	cacheByKey  = map[cacheKey]*list.Element{}
	cacheLRU    list.List // front = most recently used
	cacheSteps  int64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
)

// CachedAnalyzer returns the process-wide shared Analyzer for par,
// building (and caching) it on first use. It panics on invalid
// parameters, like NewAnalyzer. The returned Analyzer is immutable
// and safe for concurrent use.
func CachedAnalyzer(par Params) *Analyzer {
	mustValidate(par)
	return cachedAnalyzer(cacheKey{par: par}, func() *Analyzer { return NewAnalyzer(par) })
}

// CachedAnalyzerPMF is the cache hook for arbitrary noise families:
// id identifies the PMF (typically the family value plus its
// geometry) and must be comparable; build materializes the PMF only
// on a miss, so a hit skips both the PMF enumeration and the analyzer
// construction. A nil or non-comparable id bypasses the cache.
func CachedAnalyzerPMF(par Params, id any, build func() ([]float64, int64)) *Analyzer {
	mustValidate(par)
	// Value-level comparability: id may be (or contain) an interface
	// whose dynamic type is not comparable, which would panic as a
	// map key even though the static type passes.
	if id == nil || !reflect.ValueOf(id).Comparable() {
		cacheMisses.Add(1)
		pmf, maxK := build()
		return NewAnalyzerFromPMF(par, pmf, maxK)
	}
	return cachedAnalyzer(cacheKey{par: par, id: id}, func() *Analyzer {
		pmf, maxK := build()
		return NewAnalyzerFromPMF(par, pmf, maxK)
	})
}

// cachedAnalyzerIfPresent returns the cached Laplace Analyzer for par,
// or nil without building one.
func cachedAnalyzerIfPresent(par Params) *Analyzer {
	return lookupAnalyzer(cacheKey{par: par})
}

// lookupAnalyzer returns the cached Analyzer for key (counting a hit),
// or nil.
func lookupAnalyzer(key cacheKey) *Analyzer {
	cacheMu.Lock()
	el, ok := cacheByKey[key]
	if !ok {
		cacheMu.Unlock()
		return nil
	}
	cacheLRU.MoveToFront(el)
	an := el.Value.(*cacheEntry).an
	cacheMu.Unlock()
	cacheHits.Add(1)
	return an
}

func cachedAnalyzer(key cacheKey, build func() *Analyzer) *Analyzer {
	if an := lookupAnalyzer(key); an != nil {
		return an
	}
	cacheMisses.Add(1)
	// Build outside the lock so misses for different keys proceed in
	// parallel; a rare duplicate build for the same key is resolved
	// below in favor of the first instance inserted.
	an := build()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if el, ok := cacheByKey[key]; ok {
		cacheLRU.MoveToFront(el)
		return el.Value.(*cacheEntry).an
	}
	cacheByKey[key] = cacheLRU.PushFront(&cacheEntry{key: key, an: an})
	cacheSteps += int64(len(an.pmf))
	for (len(cacheByKey) > cacheMaxEntries || cacheSteps > cacheMaxSteps) && len(cacheByKey) > 1 {
		el := cacheLRU.Back()
		ent := el.Value.(*cacheEntry)
		cacheLRU.Remove(el)
		delete(cacheByKey, ent.key)
		cacheSteps -= int64(len(ent.an.pmf))
	}
	return an
}

// AnalyzerCacheStats reports the cumulative cache hit and miss
// counts since process start (or the last ResetAnalyzerCache).
func AnalyzerCacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// ResetAnalyzerCache empties the cache and zeroes the counters.
// Intended for tests and long-lived processes that want a clean
// measurement window.
func ResetAnalyzerCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cacheByKey = map[cacheKey]*list.Element{}
	cacheLRU.Init()
	cacheSteps = 0
	cacheHits.Store(0)
	cacheMisses.Store(0)
}

const (
	// planKeyMults is the number of segment multipliers a plan key
	// holds.
	planKeyMults = 4
	// planMaxEntries bounds the plans memoized on one analyzer.
	planMaxEntries = 32
)

type planKind uint8

const (
	planThreshold planKind = iota
	planSchedule
)

// planKey identifies one guard plan on an analyzer, whose Params are
// fixed. Floats are keyed by their bits, so a hit returns exactly
// what the derivation would.
type planKey struct {
	kind       planKind
	guard      Guard
	threshold  int64 // schedules only
	candidates int   // constant-time thresholds only
	mult       uint64
	n          int // number of segment multipliers
	mults      [planKeyMults]uint64
}

// plan is a memoized GuardThreshold (th, err) or NewChargeSchedule
// (sched) result.
type plan struct {
	sched ChargeSchedule
	th    int64
	err   error
}

type planMemo struct {
	mu sync.Mutex
	m  map[planKey]plan
}

// scheduleKey returns the key of a charge schedule, and false when
// its multipliers do not fit in a key.
func scheduleKey(guard Guard, threshold int64, mult float64, multipliers []float64) (planKey, bool) {
	k := planKey{kind: planSchedule, guard: guard, threshold: threshold,
		mult: math.Float64bits(mult), n: len(multipliers)}
	if len(multipliers) > planKeyMults {
		return k, false
	}
	for i, m := range multipliers {
		k.mults[i] = math.Float64bits(m)
	}
	return k, true
}

func (p *planMemo) get(k planKey) (plan, bool) {
	p.mu.Lock()
	v, ok := p.m[k]
	p.mu.Unlock()
	return v, ok
}

// put stores v under k unless the memo is full. Concurrent misses for
// one key derive the same plan, so whichever put lands is correct.
func (p *planMemo) put(k planKey, v plan) {
	p.mu.Lock()
	if p.m == nil {
		p.m = make(map[planKey]plan)
	}
	if len(p.m) < planMaxEntries {
		p.m[k] = v
	}
	p.mu.Unlock()
}
