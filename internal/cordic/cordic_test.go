package cordic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig, true},
		{"min", Config{Iterations: 4, Frac: 8}, true},
		{"max", Config{Iterations: 60, Frac: 58}, true},
		{"too few iters", Config{Iterations: 3, Frac: 20}, false},
		{"too many iters", Config{Iterations: 61, Frac: 20}, false},
		{"frac low", Config{Iterations: 20, Frac: 7}, false},
		{"frac high", Config{Iterations: 20, Frac: 59}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Iterations: 1, Frac: 1})
}

func TestLnRawAccuracy(t *testing.T) {
	c := New(DefaultConfig)
	// Sweep mantissa values with 20 fractional bits across several
	// decades.
	const frac = 20
	for _, x := range []float64{1, 1.5, 2, 2.718281828, 3.999, 10, 100, 1000, 0.5, 0.25, 0.001, 1e-5} {
		v := int64(math.Round(math.Ldexp(x, frac)))
		if v <= 0 {
			continue
		}
		got := math.Ldexp(float64(c.LnRaw(v, frac)), -c.Frac())
		want := math.Log(math.Ldexp(float64(v), -frac))
		if math.Abs(got-want) > 1e-7 {
			t.Errorf("LnRaw(%g) = %.10f, want %.10f", x, got, want)
		}
	}
}

func TestLnRawPanicsNonPositive(t *testing.T) {
	c := New(DefaultConfig)
	for _, v := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LnRaw(%d) should panic", v)
				}
			}()
			c.LnRaw(v, 10)
		}()
	}
}

func TestLnUnitMatchesFloat(t *testing.T) {
	c := New(DefaultConfig)
	// u = m·2^-b for the b used by the paper's example (B_u = 17).
	const b = 17
	for _, m := range []uint64{1, 2, 3, 100, 1 << 10, 1<<17 - 1, 1 << 17} {
		got := math.Ldexp(float64(c.LnUnit(m, b)), -c.Frac())
		want := math.Log(math.Ldexp(float64(m), -b))
		if math.Abs(got-want) > 1e-7 {
			t.Errorf("LnUnit(%d) = %.10f, want %.10f", m, got, want)
		}
	}
}

func TestLnMonotone(t *testing.T) {
	// ln must be monotone over the URNG's input grid — a property the
	// privacy analysis relies on (noise magnitude decreases as m
	// increases).
	c := New(Config{Iterations: 24, Frac: 32})
	const b = 12
	prev := int64(math.MinInt64)
	for m := uint64(1); m <= 1<<b; m += 7 {
		v := c.LnUnit(m, b)
		if v < prev {
			t.Fatalf("ln not monotone at m=%d: %d < %d", m, v, prev)
		}
		prev = v
	}
}

func TestQuickLnAgainstMath(t *testing.T) {
	c := New(DefaultConfig)
	prop := func(raw uint32) bool {
		v := int64(raw%0xFFFFF) + 1 // 1 .. 2^20
		got := math.Ldexp(float64(c.LnRaw(v, 20)), -c.Frac())
		want := math.Log(math.Ldexp(float64(v), -20))
		return math.Abs(got-want) <= 1e-7
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCordicLn(b *testing.B) {
	c := New(DefaultConfig)
	for i := 0; i < b.N; i++ {
		c.LnUnit(uint64(i%(1<<17))+1, 17)
	}
}
