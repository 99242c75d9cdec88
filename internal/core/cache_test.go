package core

import (
	"math"
	"sync"
	"testing"

	"ulpdp/internal/laplace"
)

func TestCachedAnalyzerHitCounter(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	a1 := CachedAnalyzer(small)
	a2 := CachedAnalyzer(small)
	if a1 != a2 {
		t.Error("identical Params must share one analyzer instance")
	}
	if hits, misses := AnalyzerCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	other := small
	other.Eps = 0.25
	if CachedAnalyzer(other) == a1 {
		t.Error("distinct Params must not share an analyzer")
	}
	if hits, misses := AnalyzerCacheStats(); hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestCachedAnalyzerMatchesFresh(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	th, err := ThresholdingThreshold(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := CachedAnalyzer(small).ThresholdingLoss(th), NewAnalyzer(small).ThresholdingLoss(th); got != want {
		t.Errorf("cached %+v != fresh %+v", got, want)
	}
}

func TestCachedAnalyzerPMF(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	builds := 0
	build := func() ([]float64, int64) {
		builds++
		return laplace.NewDist(small.FxP()).PMF()
	}
	type id struct{ Name string }
	a1 := CachedAnalyzerPMF(small, id{"fam"}, build)
	a2 := CachedAnalyzerPMF(small, id{"fam"}, build)
	if a1 != a2 || builds != 1 {
		t.Errorf("cache miss on identical PMF identity (builds=%d)", builds)
	}
	// A different identity under the same Params is a distinct entry.
	if CachedAnalyzerPMF(small, id{"other"}, build) == a1 || builds != 2 {
		t.Errorf("distinct PMF identities must not collide (builds=%d)", builds)
	}
	// Non-comparable identities bypass the cache rather than panic.
	builds = 0
	b1 := CachedAnalyzerPMF(small, []string{"not", "comparable"}, build)
	b2 := CachedAnalyzerPMF(small, []string{"not", "comparable"}, build)
	if b1 == b2 || builds != 2 {
		t.Errorf("non-comparable identity should bypass the cache (builds=%d)", builds)
	}
}

func TestCachedAnalyzerEviction(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	par := small
	for i := 0; i < cacheMaxEntries+8; i++ {
		par.Eps = 0.1 + 0.01*float64(i)
		CachedAnalyzer(par)
	}
	cacheMu.Lock()
	n, bytes := len(cacheByKey), cacheBytes
	cacheMu.Unlock()
	if n > cacheMaxEntries {
		t.Errorf("cache holds %d entries, cap %d", n, cacheMaxEntries)
	}
	if bytes > cacheMaxBytes {
		t.Errorf("cache holds %d bytes, cap %d", bytes, cacheMaxBytes)
	}
	// The oldest entry was evicted; re-requesting it is a miss that
	// still returns a correct analyzer.
	par.Eps = 0.1
	if an := CachedAnalyzer(par); an.Params() != par {
		t.Error("post-eviction rebuild returned wrong analyzer")
	}
}

// TestCachedAnalyzerConcurrent hammers the cache from many
// goroutines mixing hits, misses and certifications — the scenario
// `go test -race` must cover.
func TestCachedAnalyzerConcurrent(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	params := []Params{small, {Lo: 0, Hi: 8, Eps: 0.4, Bu: 12, By: 10, Delta: 0.5}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				par := params[(g+i)%len(params)]
				an := CachedAnalyzer(par)
				if rep := an.ThresholdingLoss(int64(1 + i%5)); rep.Infinite && rep.MaxLoss != math.Inf(1) {
					t.Error("inconsistent report")
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := AnalyzerCacheStats(); hits+misses != 160 || misses < uint64(len(params)) {
		t.Errorf("hits=%d misses=%d, want %d total", hits, misses, 160)
	}
}

// TestBoundedRelativeTolerance is the regression test for the bare
// 1e-12 absolute tolerance: at ε·mult products of ~1e4 nats the
// spacing between adjacent float64 values already exceeds 1e-12, so
// a loss equal to the bound up to final-log rounding must still
// certify.
func TestBoundedRelativeTolerance(t *testing.T) {
	bound := 1e4
	loss := bound * (1 + 5e-13) // one ulp-scale rounding above the bound
	if loss <= bound+1e-12 {
		t.Fatal("test vector does not exercise the regression: absolute tolerance would accept it")
	}
	if !(LossReport{MaxLoss: loss}).Bounded(bound) {
		t.Error("loss within relative rounding of the bound must certify")
	}
	if (LossReport{MaxLoss: bound * (1 + 1e-9)}).Bounded(bound) {
		t.Error("loss clearly above the bound must not certify")
	}
	if (LossReport{MaxLoss: math.Inf(1), Infinite: true}).Bounded(bound) {
		t.Error("infinite loss must never certify")
	}
	// Small bounds keep the historical absolute tolerance.
	if !(LossReport{MaxLoss: 1 + 9e-13}).Bounded(1) {
		t.Error("absolute 1e-12 slack must survive at small bounds")
	}
}

// TestSegmentsRelativeTolerance drives Segments at an ε near the top
// of the range the closed forms stay feasible for (ε = 12 with the
// widest URNG; beyond that no positive threshold certifies at all):
// the per-output staircase values are tens of nats, where a relative
// slack must not reject exact-at-the-bound losses. The derived bands
// must stay consistent with the per-output losses under the relative
// tolerance.
func TestSegmentsRelativeTolerance(t *testing.T) {
	par := Params{Lo: 0, Hi: 8, Eps: 12, Bu: 30, By: 12, Delta: 0.125}
	if err := par.Validate(); err != nil {
		t.Fatal("geometry invalid:", err)
	}
	an := NewAnalyzer(par)
	th, err := ThresholdingThreshold(par, 2)
	if err != nil {
		t.Fatal("no certified threshold at this ε:", err)
	}
	segs := an.Segments(th, []float64{1.25, 1.5, 1.75})
	if len(segs) == 0 {
		t.Fatal("no charging bands at large ε")
	}
	for _, s := range segs {
		bound := s.Mult * par.Eps
		for o := int64(0); o <= s.Offset; o++ {
			l := an.LossAt(th, par.HiSteps()+o)
			if l > bound+lossTol(bound) {
				t.Errorf("offset %d loss %g exceeds band %g·ε", o, l, s.Mult)
			}
		}
	}
}
