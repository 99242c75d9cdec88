package laplace

import (
	"sync"
	"testing"

	"ulpdp/internal/cordic"
	"ulpdp/internal/urng"
)

// fleetParams is the DP-Box geometry of a fleet node: B_u 12, B_y 10,
// unit steps, d = 16 at ε = 2^-1.
var fleetParams = FxPParams{Bu: 12, By: 10, Delta: 1, Lambda: 32}

// TestTableMatchesPerDrawCordic pins the memoized magnitude map to the
// datapath it replaces: for every draw, a sampler on the shared
// default core (which reads the table) returns what a sampler on an
// unshared core of the same configuration (which runs CORDIC per
// draw) computes, both as it fills an entry and as it reads it, and
// the two samplers emit the same noise stream from the same URNG.
func TestTableMatchesPerDrawCordic(t *testing.T) {
	cases := []struct {
		name string
		par  FxPParams
		hw   bool
	}{
		{"fleet", fleetParams, true},
		{"fig4", fig4Params, false},
		{"fig4-hw", fig4Params, true},
		{"non-dyadic", FxPParams{Bu: 14, By: 12, Delta: 0.3, Lambda: 7}, false},
		{"bu-cap", FxPParams{Bu: tableMaxBu, By: 16, Delta: 0.5, Lambda: 300}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var shared, own Sampler
			if err := shared.Init(c.par, nil, urng.NewTaus88(7), c.hw); err != nil {
				t.Fatal(err)
			}
			if err := own.Init(c.par, cordic.New(cordic.DefaultConfig), urng.NewTaus88(7), c.hw); err != nil {
				t.Fatal(err)
			}
			if shared.tab == nil || own.tab != nil {
				t.Fatalf("shared core table %v, unshared core table %v: want only the shared one", shared.tab != nil, own.tab != nil)
			}
			for m := uint64(1); m <= 1<<c.par.Bu; m++ {
				// The first read fills the entry, the second reads it.
				want := own.MagnitudeForDraw(m)
				if a, b := shared.MagnitudeForDraw(m), shared.MagnitudeForDraw(m); a != want || b != want {
					t.Fatalf("draw %d: table %d then %d, per-draw CORDIC %d", m, a, b, want)
				}
			}
			for i := range shared.tab.k {
				if shared.tab.k[i].Load() == 0 {
					t.Fatalf("draw %d left unfilled", i+1)
				}
			}
			for i := 0; i < 10000; i++ {
				if a, b := shared.SampleK(), own.SampleK(); a != b {
					t.Fatalf("sample %d: table %d, per-draw CORDIC %d", i, a, b)
				}
			}
		})
	}
}

// TestTableOnlyForSharedCore pins which log units read a table: the
// shared default core up to tableMaxBu, and nothing else.
func TestTableOnlyForSharedCore(t *testing.T) {
	cases := []struct {
		name string
		par  FxPParams
		log  LogUnit
		want bool
	}{
		{"nil", fleetParams, nil, true},
		{"default", fleetParams, cordic.Default(), true},
		{"unshared", fleetParams, cordic.New(cordic.DefaultConfig), false},
		{"float", fleetParams, FloatLog{FracBits: 50}, false},
		{"above-cap", FxPParams{Bu: tableMaxBu + 1, By: 16, Delta: 1, Lambda: 32}, nil, false},
	}
	for _, c := range cases {
		s, err := NewHWSampler(c.par, c.log, urng.NewTaus88(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.tab != nil; got != c.want {
			t.Errorf("%s: table %v, want %v", c.name, got, c.want)
		}
	}
}

// TestConcurrentInitsShareOneTable boots samplers of one
// configuration on several goroutines at once, as the fleet's fan-out
// does, and has them fill the table while drawing: they must share a
// single table and each draw exactly the per-draw CORDIC stream. Run
// it under -race.
func TestConcurrentInitsShareOneTable(t *testing.T) {
	par := FxPParams{Bu: 10, By: 10, Delta: 1, Lambda: 24}
	const workers, draws = 8, 5000
	tabs := make([]*magTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s, ref Sampler
			if err := s.Init(par, nil, urng.NewTaus88(uint64(w+1)), true); err != nil {
				t.Error(err)
				return
			}
			if err := ref.Init(par, cordic.New(cordic.DefaultConfig), urng.NewTaus88(uint64(w+1)), true); err != nil {
				t.Error(err)
				return
			}
			tabs[w] = s.tab
			for i := 0; i < draws; i++ {
				if a, b := s.SampleK(), ref.SampleK(); a != b {
					t.Errorf("worker %d sample %d: table %d, per-draw CORDIC %d", w, i, a, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, tab := range tabs {
		if tab == nil || tab != tabs[0] {
			t.Fatalf("worker %d holds table %p, worker 0 %p", w, tab, tabs[0])
		}
	}
}

// TestTableMemoBounded fetches more tables than the memo may hold, by
// count and by words, and checks the memo's accounting and bounds, and
// that a sampler whose table was evicted keeps drawing correctly.
func TestTableMemoBounded(t *testing.T) {
	first, err := NewHWSampler(FxPParams{Bu: 8, By: 10, Delta: 1, Lambda: 1}, nil, urng.NewTaus88(1))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		tableMu.Lock()
		defer tableMu.Unlock()
		words := 0
		for _, el := range tableByKey {
			words += len(el.Value.(*tableEntry).tab.k)
		}
		if len(tableByKey) != tableLRU.Len() || words != tableWords {
			t.Fatalf("%s: %d keys, %d listed, %d words counted as %d", when, len(tableByKey), tableLRU.Len(), words, tableWords)
		}
		if len(tableByKey) > tableMaxEntries || tableWords > tableMaxWords {
			t.Fatalf("%s: %d tables, %d words; bounds %d, %d", when, len(tableByKey), tableWords, tableMaxEntries, tableMaxWords)
		}
	}
	for i := 2; i <= 2*tableMaxEntries; i++ {
		if _, err := NewHWSampler(FxPParams{Bu: 8, By: 10, Delta: 1, Lambda: float64(i)}, nil, urng.NewTaus88(1)); err != nil {
			t.Fatal(err)
		}
	}
	check("by count")
	for i := 1; i <= tableMaxWords>>tableMaxBu+1; i++ {
		if _, err := NewHWSampler(FxPParams{Bu: tableMaxBu, By: 16, Delta: 1, Lambda: float64(i)}, nil, urng.NewTaus88(1)); err != nil {
			t.Fatal(err)
		}
	}
	check("by words")
	ref, err := NewHWSampler(first.par, cordic.New(cordic.DefaultConfig), urng.NewTaus88(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := first.SampleK(), ref.SampleK(); a != b {
			t.Fatalf("evicted table, sample %d: %d vs %d", i, a, b)
		}
	}
}

// BenchmarkSamplerTableFleet draws from the fleet geometry's filled
// table on the integer scaling datapath, as a fleet node's DP-Box
// does. CI requires 0 allocs/op.
func BenchmarkSamplerTableFleet(b *testing.B) {
	s, err := NewHWSampler(fleetParams, nil, urng.NewTaus88(1))
	if err != nil {
		b.Fatal(err)
	}
	if s.tab == nil {
		b.Fatal("the fleet geometry has no magnitude table")
	}
	for m := uint64(1); m <= 1<<fleetParams.Bu; m++ {
		s.MagnitudeForDraw(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.SampleK()
	}
	benchSink = sink
}

var benchSink int64
