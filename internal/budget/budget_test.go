package budget

import (
	"errors"
	"math"
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

var par = core.Params{Lo: 0, Hi: 8, Eps: 0.5, Bu: 12, By: 10, Delta: 0.5}

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(par, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(par, Config{Budget: 0}); err == nil {
		t.Error("zero budget should be rejected")
	}
	if _, err := New(par, Config{Budget: 1, Mult: 0.5}); err == nil {
		t.Error("mult <= 1 should be rejected")
	}
	if _, err := New(par, Config{Budget: 1, Multipliers: []float64{3}}); err == nil {
		t.Error("multiplier >= Mult should be rejected")
	}
	if _, err := New(par, Config{Budget: 1, Multipliers: []float64{1.8, 1.5}}); err == nil {
		t.Error("descending multipliers should be rejected")
	}
	bad := par
	bad.Eps = -1
	if _, err := New(bad, Config{Budget: 1}); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestChargeBands(t *testing.T) {
	c := newController(t, Config{Budget: 100, Mult: 3, Multipliers: []float64{1.5, 2}})
	// In-range outputs cost the interior charge, close to ε.
	in := c.ChargeFor(par.LoSteps() + 3)
	if in != c.InteriorCharge() {
		t.Errorf("interior charge = %g, want %g", in, c.InteriorCharge())
	}
	if in < 0.5*par.Eps || in > 1.5*par.Eps {
		t.Errorf("interior charge %g implausible for ε=%g", in, par.Eps)
	}
	segs := c.Segments()
	if len(segs) == 0 {
		t.Fatal("no charging bands")
	}
	// Just beyond the range: first band multiplier.
	if got := c.ChargeFor(par.HiSteps() + 1); got != segs[0].Mult*par.Eps {
		t.Errorf("first band charge = %g, want %g", got, segs[0].Mult*par.Eps)
	}
	// Beyond the last band: the top charge.
	if got := c.ChargeFor(par.HiSteps() + segs[len(segs)-1].Offset + 1); got != 3*par.Eps {
		t.Errorf("top charge = %g, want %g", got, 3*par.Eps)
	}
	// Symmetric below the range.
	if lo, hi := c.ChargeFor(par.LoSteps()-1), c.ChargeFor(par.HiSteps()+1); lo != hi {
		t.Errorf("asymmetric band charges: %g vs %g", lo, hi)
	}
}

func TestChargesAreSoundPerOutput(t *testing.T) {
	// Every possible output's charge must be at least its exact
	// per-output privacy loss — the property that makes the
	// accumulated charge an upper bound on the true loss.
	c := newController(t, Config{Budget: 100, Mult: 2})
	an := core.NewAnalyzer(par)
	tstep := c.Threshold()
	for y := par.LoSteps() - tstep; y <= par.HiSteps()+tstep; y++ {
		loss := an.LossAt(tstep, y)
		if charge := c.ChargeFor(y); charge < loss-1e-9 {
			t.Errorf("output %d: charge %g below exact loss %g", y, charge, loss)
		}
	}
}

func TestResamplingChargesAreSoundPerOutput(t *testing.T) {
	// In resampling mode the conditional distributions are
	// renormalized per input; the charges must still dominate the
	// exact per-output loss (the zSlack term).
	c, err := New(par, Config{Budget: 100, Mult: 2, Mode: Resampling})
	if err != nil {
		t.Fatal(err)
	}
	an := core.NewAnalyzer(par)
	tstep := c.Threshold()
	for y := par.LoSteps() - tstep; y <= par.HiSteps()+tstep; y++ {
		loss := an.ResamplingLossAt(tstep, y)
		if charge := c.ChargeFor(y); charge < loss-1e-12 {
			t.Errorf("output %d: charge %g below exact resampling loss %g", y, charge, loss)
		}
	}
}

func TestBudgetDepletesAndCaches(t *testing.T) {
	c := newController(t, Config{Budget: 3, Mult: 2, Source: urng.NewTaus88(7)})
	var fresh int
	var cachedVal float64
	for i := 0; i < 100; i++ {
		r, err := c.Request(4)
		if err != nil {
			t.Fatal(err)
		}
		if r.FromCache {
			if r.Charged != 0 {
				t.Error("cached response must not charge")
			}
			if r.Value != cachedVal {
				t.Errorf("cache replay changed value: %g != %g", r.Value, cachedVal)
			}
		} else {
			fresh++
			cachedVal = r.Value
			if r.Charged <= 0 {
				t.Error("fresh response must charge")
			}
		}
	}
	if fresh == 0 || fresh == 100 {
		t.Errorf("expected partial depletion, got %d fresh responses", fresh)
	}
	if c.Remaining() != 0 {
		t.Errorf("remaining = %g, want 0", c.Remaining())
	}
	// Total spend is bounded by budget + one top charge.
	if maxSpend := 3 + 2*par.Eps; float64(fresh)*c.InteriorCharge() > maxSpend+3 {
		t.Errorf("%d fresh responses implausible for budget 3", fresh)
	}
}

func TestExhaustedWithoutCache(t *testing.T) {
	c := newController(t, Config{Budget: 0.0001, Mult: 2})
	// First request drives the budget to zero but is served.
	if _, err := c.Request(1); err != nil {
		t.Fatal(err)
	}
	r, err := c.Request(1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache {
		t.Error("second request should be cached")
	}
}

func TestErrExhaustedNoCache(t *testing.T) {
	c := newController(t, Config{Budget: 1, Mult: 2})
	c.remaining = 0 // simulate a boot-time-depleted budget
	if _, err := c.Request(1); !errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
}

func TestReplenishment(t *testing.T) {
	c := newController(t, Config{Budget: 0.6, Mult: 2, ReplenishPeriod: 1000, Source: urng.NewTaus88(3)})
	if _, err := c.Request(4); err != nil {
		t.Fatal(err)
	}
	if c.Remaining() >= 0.6 {
		t.Fatal("request did not charge")
	}
	c.Tick(999)
	before := c.Remaining()
	c.Tick(1)
	if c.Remaining() != 0.6 {
		t.Errorf("after period: remaining = %g, want full 0.6 (was %g)", c.Remaining(), before)
	}
	// Multiple periods in one tick.
	c.remaining = 0
	c.Tick(3000)
	if c.Remaining() != 0.6 {
		t.Errorf("multi-period tick: remaining = %g", c.Remaining())
	}
}

func TestNoReplenishmentWhenDisabled(t *testing.T) {
	c := newController(t, Config{Budget: 0.6, Mult: 2})
	if _, err := c.Request(4); err != nil {
		t.Fatal(err)
	}
	spent := c.Remaining()
	c.Tick(1 << 40)
	if c.Remaining() != spent {
		t.Error("budget replenished despite period 0")
	}
}

func TestThresholdingModeClampsOutputs(t *testing.T) {
	c := newController(t, Config{Budget: 1e9, Mult: 2, Source: urng.NewTaus88(21)})
	lo := par.Lo - float64(c.Threshold())*par.Delta
	hi := par.Hi + float64(c.Threshold())*par.Delta
	for i := 0; i < 20000; i++ {
		r, err := c.Request(par.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value < lo-1e-9 || r.Value > hi+1e-9 {
			t.Fatalf("output %g outside [%g, %g]", r.Value, lo, hi)
		}
		if r.Resamples != 0 {
			t.Fatal("thresholding mode must not resample")
		}
	}
}

func TestResamplingModeResamples(t *testing.T) {
	c, err := New(par, Config{Budget: 1e9, Mult: 2, Mode: Resampling, Source: urng.NewTaus88(23)})
	if err != nil {
		t.Fatal(err)
	}
	lo := par.Lo - float64(c.Threshold())*par.Delta
	hi := par.Hi + float64(c.Threshold())*par.Delta
	saw := false
	for i := 0; i < 20000; i++ {
		r, err := c.Request(par.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value < lo-1e-9 || r.Value > hi+1e-9 {
			t.Fatalf("output %g outside [%g, %g]", r.Value, lo, hi)
		}
		if r.Resamples > 0 {
			saw = true
		}
	}
	if !saw {
		t.Error("expected at least one resample")
	}
}

func TestAdaptiveChargingSavesBudget(t *testing.T) {
	// The whole point of Algorithm 1: charging per segment lets more
	// requests through than always charging the worst case.
	const budget = 20.0
	adaptive := newController(t, Config{Budget: budget, Mult: 3, Multipliers: []float64{1.5, 2}, Source: urng.NewTaus88(31)})
	countFresh := func(c *Controller) int {
		n := 0
		for i := 0; i < 1000; i++ {
			r, err := c.Request(4)
			if err != nil {
				t.Fatal(err)
			}
			if !r.FromCache {
				n++
			}
		}
		return n
	}
	freshAdaptive := countFresh(adaptive)
	// Worst-case flat charging would allow budget/(3ε) requests.
	flat := int(budget / (3 * par.Eps))
	if freshAdaptive <= flat {
		t.Errorf("adaptive charging allowed %d fresh responses, flat worst-case %d", freshAdaptive, flat)
	}
}

func TestModeString(t *testing.T) {
	if Thresholding.String() != "thresholding" || Resampling.String() != "resampling" {
		t.Error("mode strings wrong")
	}
}

func TestCompositionAccounting(t *testing.T) {
	// Sum of charges never exceeds budget + one maximal charge
	// (Algorithm 1 may overshoot by at most the final request).
	c := newController(t, Config{Budget: 5, Mult: 2, Source: urng.NewTaus88(37)})
	var total float64
	for i := 0; i < 500; i++ {
		r, err := c.Request(4)
		if err != nil {
			t.Fatal(err)
		}
		total += r.Charged
	}
	if total > 5+2*par.Eps+1e-9 {
		t.Errorf("total charge %g exceeds budget plus one top charge", total)
	}
	if math.Abs(c.Remaining()) > 1e-12 {
		t.Errorf("remaining = %g", c.Remaining())
	}
}

// stuckSource is a URNG stuck at one word; it counts its draws.
type stuckSource struct {
	word  uint32
	draws int
}

func (s *stuckSource) Uint32() uint32 {
	s.draws++
	return s.word
}

// TestResamplingFailsClosedOnStuckURNG pins the controller's
// fail-closed contract: a URNG stuck at the largest noise magnitude
// never lands in the guard window, so after 1024 noise draws (two
// URNG words each: magnitude and sign) the request fails, charges
// nothing, on every retry.
func TestResamplingFailsClosedOnStuckURNG(t *testing.T) {
	src := &stuckSource{word: 1}
	c := newController(t, Config{Budget: 10, Mode: Resampling, Source: src})
	for i := 0; i < 2; i++ {
		_, err := c.Request(4)
		if err == nil || err.Error() != "budget: resampling did not converge" {
			t.Fatalf("request %d: err = %v, want the non-convergence error", i, err)
		}
		if src.draws != (i+1)*2*1024 {
			t.Fatalf("request %d: %d URNG draws, want %d", i, src.draws, (i+1)*2*1024)
		}
		if c.Remaining() != 10 {
			t.Fatalf("request %d: remaining %g, want the full budget 10", i, c.Remaining())
		}
	}
}
