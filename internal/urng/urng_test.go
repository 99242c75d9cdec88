package urng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsRange(t *testing.T) {
	src := NewTaus88(1)
	for b := 1; b <= 32; b += 7 {
		for i := 0; i < 2000; i++ {
			m := Bits(src, b)
			if m < 1 || m > 1<<uint(b) {
				t.Fatalf("Bits(%d) = %d out of (0, 2^%d]", b, m, b)
			}
		}
	}
}

func TestBitsPanicsOutOfRange(t *testing.T) {
	for _, b := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bits(%d) should panic", b)
				}
			}()
			Bits(NewTaus88(1), b)
		}()
	}
}

func TestUnitRange(t *testing.T) {
	src := NewLFSR113(7)
	for i := 0; i < 5000; i++ {
		u := Unit(src, 17)
		if u <= 0 || u > 1 {
			t.Fatalf("Unit = %g out of (0,1]", u)
		}
	}
}

func TestBitsExhaustiveSmallB(t *testing.T) {
	// With b=3 every value in {1..8} must appear and the counts must
	// be near-uniform over a long stream.
	src := NewTaus88(42)
	counts := make(map[uint64]int)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[Bits(src, 3)]++
	}
	if len(counts) != 8 {
		t.Fatalf("expected 8 distinct values, got %d", len(counts))
	}
	want := float64(n) / 8
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d count %d deviates from %g", v, c, want)
		}
	}
}

func TestTaus88Deterministic(t *testing.T) {
	a, b := NewTaus88(123), NewTaus88(123)
	for i := 0; i < 100; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewTaus88(124)
	same := true
	a = NewTaus88(123)
	for i := 0; i < 10; i++ {
		if a.Uint32() != c.Uint32() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestLFSR113Deterministic(t *testing.T) {
	a, b := NewLFSR113(99), NewLFSR113(99)
	for i := 0; i < 100; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestSeedLowComponentsRecover(t *testing.T) {
	// Even a seed that produces tiny state components must yield a
	// non-degenerate stream (the component minimums are enforced).
	var z Taus88
	z.Seed(0)
	seen := make(map[uint32]bool)
	for i := 0; i < 64; i++ {
		seen[z.Uint32()] = true
	}
	if len(seen) < 32 {
		t.Errorf("stream looks degenerate: %d distinct in 64 draws", len(seen))
	}
	var l LFSR113
	l.Seed(0)
	seen = make(map[uint32]bool)
	for i := 0; i < 64; i++ {
		seen[l.Uint32()] = true
	}
	if len(seen) < 32 {
		t.Errorf("lfsr stream looks degenerate: %d distinct in 64 draws", len(seen))
	}
}

func meanAndVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return
}

func TestTaus88Moments(t *testing.T) {
	src := NewTaus88(2026)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(src.Uint32()) / (1 << 32)
	}
	mean, variance := meanAndVar(xs)
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("variance = %g, want ~%g", variance, 1.0/12)
	}
}

func TestSplitMixFloat64Range(t *testing.T) {
	s := NewSplitMix64(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestSplitMixNormMoments(t *testing.T) {
	s := NewSplitMix64(11)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.NormFloat64()
	}
	mean, variance := meanAndVar(xs)
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g", variance)
	}
}

func TestSplitMixExpMoments(t *testing.T) {
	s := NewSplitMix64(13)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.ExpFloat64()
	}
	mean, variance := meanAndVar(xs)
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("exp variance = %g", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewSplitMix64(3)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestUnitQuantization(t *testing.T) {
	// Unit(b) must always be an exact multiple of 2^-b.
	src := NewTaus88(77)
	prop := func(raw uint8) bool {
		b := int(raw%32) + 1
		u := Unit(src, b)
		scaled := math.Ldexp(u, b)
		return scaled == math.Trunc(scaled)
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
