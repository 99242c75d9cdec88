package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFormatValidate(t *testing.T) {
	tests := []struct {
		name string
		f    Format
		ok   bool
	}{
		{"q4.15", Q(4, 15), true},
		{"minimal", Format{Width: 2, Frac: 0}, true},
		{"max width", Format{Width: MaxWidth, Frac: 10}, true},
		{"too narrow", Format{Width: 1, Frac: 0}, false},
		{"too wide", Format{Width: MaxWidth + 1, Frac: 0}, false},
		{"frac eats sign", Format{Width: 8, Frac: 8}, false},
		{"negative frac", Format{Width: 8, Frac: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.f.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate(%v) = %v, want ok=%v", tt.f, err, tt.ok)
			}
		})
	}
}

func TestFormatDerived(t *testing.T) {
	f := Q(4, 15) // width 20
	if f.Width != 20 {
		t.Errorf("width = %d, want 20", f.Width)
	}
	if f.IntBits() != 4 {
		t.Errorf("int bits = %d, want 4", f.IntBits())
	}
	if got := f.Step(); got != math.Ldexp(1, -15) {
		t.Errorf("step = %g", got)
	}
	if f.MaxRaw() != (1<<19)-1 {
		t.Errorf("max raw = %d", f.MaxRaw())
	}
	if f.MinRaw() != -(1 << 19) {
		t.Errorf("min raw = %d", f.MinRaw())
	}
	if f.MaxValue() <= 15.9 || f.MaxValue() >= 16 {
		t.Errorf("max value = %g, want just under 16", f.MaxValue())
	}
	if f.MinValue() != -16 {
		t.Errorf("min value = %g, want -16", f.MinValue())
	}
}

func TestFromFloatRounding(t *testing.T) {
	f := Q(6, 2) // step 0.25
	tests := []struct {
		x    float64
		m    RoundMode
		want float64
	}{
		{1.30, RoundNearestAway, 1.25},
		{1.375, RoundNearestAway, 1.5},
		{-1.375, RoundNearestAway, -1.5},
		{1.375, RoundNearestEven, 1.5},
		{1.125, RoundNearestEven, 1.0},
		{1.30, RoundDown, 1.25},
		{-1.30, RoundDown, -1.5},
		{1.30, RoundUp, 1.5},
		{-1.30, RoundUp, -1.25},
		{1.99, RoundZero, 1.75},
		{-1.99, RoundZero, -1.75},
	}
	for _, tt := range tests {
		got := FromFloat(tt.x, f, tt.m).Float()
		if got != tt.want {
			t.Errorf("FromFloat(%g,%v) = %g, want %g", tt.x, tt.m, got, tt.want)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	f := Q(3, 4)
	if got := FromFloat(1000, f, RoundNearestAway); got.Raw() != f.MaxRaw() {
		t.Errorf("overflow: raw = %d, want %d", got.Raw(), f.MaxRaw())
	}
	if got := FromFloat(-1000, f, RoundNearestAway); got.Raw() != f.MinRaw() {
		t.Errorf("underflow: raw = %d, want %d", got.Raw(), f.MinRaw())
	}
	if got := FromFloat(math.NaN(), f, RoundNearestAway); !got.IsZero() {
		t.Errorf("NaN should map to zero, got %v", got)
	}
	if got := FromFloat(math.Inf(1), f, RoundNearestAway); got.Raw() != f.MaxRaw() {
		t.Errorf("+inf should saturate, got %v", got)
	}
}

func TestFromInt(t *testing.T) {
	f := Q(5, 8)
	if got := FromInt(7, f).Float(); got != 7 {
		t.Errorf("FromInt(7) = %g", got)
	}
	if got := FromInt(-3, f).Float(); got != -3 {
		t.Errorf("FromInt(-3) = %g", got)
	}
	if got := FromInt(1<<40, f); got.Raw() != f.MaxRaw() {
		t.Errorf("FromInt huge should saturate, got %v", got)
	}
	if got := FromInt(-(1 << 40), f); got.Raw() != f.MinRaw() {
		t.Errorf("FromInt -huge should saturate, got %v", got)
	}
}

func TestAddSubSaturate(t *testing.T) {
	f := Q(3, 4)
	max := FromRaw(f.MaxRaw(), f)
	one := FromInt(1, f)
	if got := max.Add(one); got.Raw() != f.MaxRaw() {
		t.Errorf("max+1 should saturate, got %v", got)
	}
	min := FromRaw(f.MinRaw(), f)
	if got := min.Sub(one); got.Raw() != f.MinRaw() {
		t.Errorf("min-1 should saturate, got %v", got)
	}
	a := FromFloat(2.5, f, RoundNearestAway)
	b := FromFloat(1.25, f, RoundNearestAway)
	if got := a.Add(b).Float(); got != 3.75 {
		t.Errorf("2.5+1.25 = %g", got)
	}
	if got := a.Sub(b).Float(); got != 1.25 {
		t.Errorf("2.5-1.25 = %g", got)
	}
}

func TestMul(t *testing.T) {
	f := Q(6, 8)
	a := FromFloat(1.5, f, RoundNearestAway)
	b := FromFloat(-2.25, f, RoundNearestAway)
	if got := a.Mul(b, RoundNearestAway).Float(); got != -3.375 {
		t.Errorf("1.5*-2.25 = %g", got)
	}
	big := FromFloat(60, f, RoundNearestAway)
	if got := big.Mul(big, RoundNearestAway); got.Raw() != f.MaxRaw() {
		t.Errorf("60*60 should saturate, got %v", got)
	}
}

func TestDiv(t *testing.T) {
	f := Q(6, 8)
	a := FromFloat(3, f, RoundNearestAway)
	b := FromFloat(2, f, RoundNearestAway)
	if got := a.Div(b, RoundNearestAway).Float(); got != 1.5 {
		t.Errorf("3/2 = %g", got)
	}
	zero := FromInt(0, f)
	if got := a.Div(zero, RoundNearestAway); got.Raw() != f.MaxRaw() {
		t.Errorf("3/0 should saturate positive, got %v", got)
	}
	if got := a.Neg().Div(zero, RoundNearestAway); got.Raw() != f.MinRaw() {
		t.Errorf("-3/0 should saturate negative, got %v", got)
	}
}

func TestNegAbsSign(t *testing.T) {
	f := Q(3, 4)
	n := FromFloat(-2.5, f, RoundNearestAway)
	if n.Sign() != -1 {
		t.Errorf("sign = %d", n.Sign())
	}
	if got := n.Neg().Float(); got != 2.5 {
		t.Errorf("neg = %g", got)
	}
	if got := n.Abs().Float(); got != 2.5 {
		t.Errorf("abs = %g", got)
	}
	// Negating the most negative value saturates to max.
	min := FromRaw(f.MinRaw(), f)
	if got := min.Neg(); got.Raw() != f.MaxRaw() {
		t.Errorf("neg(min) = %v, want saturation to max", got)
	}
	if FromInt(0, f).Sign() != 0 {
		t.Error("sign(0) != 0")
	}
}

func TestShifts(t *testing.T) {
	f := Q(6, 4)
	n := FromFloat(1.5, f, RoundNearestAway)
	if got := n.Shl(2).Float(); got != 6 {
		t.Errorf("1.5<<2 = %g", got)
	}
	if got := n.Shr(1, RoundNearestAway).Float(); got != 0.75 {
		t.Errorf("1.5>>1 = %g", got)
	}
	if got := n.Shl(20); got.Raw() != f.MaxRaw() {
		t.Errorf("huge shl should saturate, got %v", got)
	}
	if got := n.Neg().Shl(20); got.Raw() != f.MinRaw() {
		t.Errorf("huge negative shl should saturate, got %v", got)
	}
	// Shl with negative count delegates to Shr and vice versa.
	if got := n.Shl(-1).Float(); got != 0.75 {
		t.Errorf("shl(-1) = %g", got)
	}
	if got := n.Shr(-2, RoundZero).Float(); got != 6 {
		t.Errorf("shr(-2) = %g", got)
	}
}

func TestConvert(t *testing.T) {
	src := Q(6, 8)
	dst := Q(6, 2)
	n := FromFloat(1.3671875, src, RoundNearestAway) // 350/256
	if got := n.Convert(dst, RoundNearestAway).Float(); got != 1.25 {
		t.Errorf("convert down = %g, want 1.25", got)
	}
	up := n.Convert(Q(6, 12), RoundNearestAway)
	if got := up.Float(); got != n.Float() {
		t.Errorf("convert up changed value: %g != %g", got, n.Float())
	}
	// Narrowing the integer part saturates.
	wide := FromFloat(30, Q(6, 4), RoundNearestAway)
	narrow := wide.Convert(Q(2, 4), RoundNearestAway)
	if narrow.Raw() != Q(2, 4).MaxRaw() {
		t.Errorf("narrowing should saturate, got %v", narrow)
	}
}

func TestCmpPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on format mismatch")
		}
	}()
	FromInt(1, Q(3, 4)).Cmp(FromInt(1, Q(4, 4)))
}

func TestInt(t *testing.T) {
	f := Q(6, 4)
	tests := []struct {
		x    float64
		want int64
	}{
		{3.75, 3}, {-3.75, -3}, {0.5, 0}, {-0.5, 0}, {5, 5},
	}
	for _, tt := range tests {
		if got := FromFloat(tt.x, f, RoundNearestAway).Int(); got != tt.want {
			t.Errorf("Int(%g) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestDivRoundExhaustiveSmall(t *testing.T) {
	// Cross-check divRound against float math for every mode over a
	// small exhaustive grid.
	modes := []RoundMode{RoundNearestAway, RoundNearestEven, RoundDown, RoundUp, RoundZero}
	for a := int64(-40); a <= 40; a++ {
		for b := int64(-7); b <= 7; b++ {
			if b == 0 {
				continue
			}
			exact := float64(a) / float64(b)
			for _, m := range modes {
				want := int64(roundScaled(exact, m))
				if got := divRound(a, b, m); got != want {
					t.Fatalf("divRound(%d,%d,%v) = %d, want %d", a, b, m, got, want)
				}
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := Q(10, 12)
	// Any value already on the grid survives a float round trip.
	prop := func(raw int32) bool {
		r := int64(raw) % (f.MaxRaw() + 1)
		n := FromRaw(r, f)
		return FromFloat(n.Float(), f, RoundNearestAway).Raw() == n.Raw()
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := Q(12, 10)
	prop := func(a, b int32) bool {
		x := FromRaw(int64(a)%f.MaxRaw(), f)
		y := FromRaw(int64(b)%f.MaxRaw(), f)
		return x.Add(y).Raw() == y.Add(x).Raw()
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulMatchesFloatWithinStep(t *testing.T) {
	f := Q(10, 10)
	prop := func(a, b int16) bool {
		x := FromRaw(int64(a), f)
		y := FromRaw(int64(b), f)
		got := x.Mul(y, RoundNearestAway).Float()
		exact := x.Float() * y.Float()
		if exact > f.MaxValue() || exact < f.MinValue() {
			return true // saturation regime, checked elsewhere
		}
		return math.Abs(got-exact) <= f.Step()/2+1e-12
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestQuickConvertNeverWidensError(t *testing.T) {
	src := Q(8, 14)
	dst := Q(8, 6)
	prop := func(a int32) bool {
		n := FromRaw(int64(a)%src.MaxRaw(), src)
		c := n.Convert(dst, RoundNearestAway)
		return math.Abs(c.Float()-n.Float()) <= dst.Step()/2+1e-12
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	f := Q(4, 15)
	if got := f.String(); got != "Q4.15/20" {
		t.Errorf("format string = %q", got)
	}
	n := FromFloat(1.5, Q(3, 2), RoundNearestAway)
	if got := n.String(); got != "1.5[Q3.2/6]" {
		t.Errorf("num string = %q", got)
	}
	if got := RoundNearestEven.String(); got != "nearest-even" {
		t.Errorf("mode string = %q", got)
	}
	if got := RoundMode(99).String(); got != "RoundMode(99)" {
		t.Errorf("unknown mode string = %q", got)
	}
}
