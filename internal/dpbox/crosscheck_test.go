package dpbox

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"ulpdp/internal/budget"
	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

// TestChargeTableMatchesReferenceController checks the DP-Box's
// rounding of Algorithm 1: both sides charge from one
// core.ChargeSchedule, and the DP-Box's fixed-point unit table must
// never charge less than the reference controller (rounding up to
// sixteenth-nat units is the only allowed difference).
func TestChargeTableMatchesReferenceController(t *testing.T) {
	par := core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}
	ref, err := budget.New(par, budget.Config{
		Budget: 1e6, Mult: 2, Multipliers: []float64{1.25, 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	box := boot(t, Config{Bu: 12, By: 10, Mult: 2, Multipliers: []float64{1.25, 1.5},
		Source: urng.NewTaus88(77)}, 1e6)
	if _, err := box.NoiseValue(8); err != nil {
		t.Fatal(err) // derive tables
	}
	if box.Threshold() != ref.Threshold() {
		t.Fatalf("thresholds differ: dpbox %d vs controller %d", box.Threshold(), ref.Threshold())
	}
	for y := -box.Threshold(); y <= 16+box.Threshold(); y++ {
		_, units := box.plan.Charge(y)
		hw := float64(units) * chargeUnit
		sw := ref.ChargeFor(y)
		if hw < sw-1e-12 {
			t.Errorf("output %d: hardware charge %g below reference %g", y, hw, sw)
		}
		if hw > sw+chargeUnit+1e-12 {
			t.Errorf("output %d: hardware charge %g over-rounds reference %g", y, hw, sw)
		}
	}
}

// chargeTableFingerprint is FNV-1a over every charge-table quantity
// TestChargeTableFingerprint visits. It pins the guard thresholds and
// Algorithm 1 charge bands of both the DP-Box and the reference
// controller bit for bit, so a refactor of where they are derived
// cannot move a single charge.
const chargeTableFingerprint = 0xf135e027b29844f3

// boxUnits returns the DP-Box's interior and top charges in budget
// units.
func boxUnits(b *DPBox) (interior, top int64) {
	return b.plan.Units[0], b.plan.Units[len(b.plan.Units)-1]
}

func TestChargeTableFingerprint(t *testing.T) {
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	geos := []struct {
		bu, by, shift int
		lo, hi        int64
	}{
		{12, 10, 1, 0, 16},
		{17, 12, 1, 0, 20},
		{14, 12, 2, -4, 12},
		{10, 10, 0, 2, 10},
	}
	type mode struct {
		resampling, constantTime, disabled bool
		override                           int64 // -1 = none
	}
	modes := []mode{
		{override: -1},                   // thresholding
		{resampling: true, override: -1}, // resampling
		{resampling: true, constantTime: true, override: -1},
		{override: 0}, // randomized response
		{override: 3},
		{resampling: true, override: 3},
		{disabled: true, override: -1},
	}
	multSets := []struct {
		mult  float64
		mults []float64
	}{
		{0, nil}, // each side's defaults
		{2.5, []float64{1.1, 1.4, 1.8}},
	}
	for _, g := range geos {
		par := core.Params{Lo: float64(g.lo), Hi: float64(g.hi), Eps: math.Ldexp(1, -g.shift),
			Bu: g.bu, By: g.by, Delta: 1}
		for _, ms := range multSets {
			for _, m := range modes {
				box, err := New(Config{Bu: g.bu, By: g.by, Mult: ms.mult, Multipliers: ms.mults,
					ConstantTime: m.constantTime, GuardDisabled: m.disabled,
					Source: urng.NewTaus88(5)})
				if err != nil {
					t.Fatal(err)
				}
				if err := box.Initialize(1e6, 0); err != nil {
					t.Fatal(err)
				}
				if err := box.Configure(g.shift, g.lo, g.hi); err != nil {
					t.Fatal(err)
				}
				if m.resampling {
					if err := box.SetResampling(true); err != nil {
						t.Fatal(err)
					}
				}
				if m.override >= 0 {
					if err := box.OverrideThreshold(m.override); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := box.NoiseValue((g.lo + g.hi) / 2); err != nil {
					put(math.MaxUint64) // no certified threshold for this cell
					continue
				}
				th := box.Threshold()
				put(uint64(th))
				for y := g.lo - th - 2; y <= g.hi+th+2; y++ {
					band, units := box.plan.Charge(y)
					put(uint64(units))
					put(uint64(band))
				}
				interior, top := boxUnits(box)
				degTh, degOK := box.DegradeThreshold()
				put(uint64(interior))
				put(uint64(top))
				put(uint64(degTh))
				put(uint64(box.plan.DegradeUnits))
				if degOK {
					put(1)
				}
				put(uint64(box.ResampleCap()))
			}
			for _, mode := range []budget.Mode{budget.Thresholding, budget.Resampling} {
				hashController(put, par, budget.Config{Budget: 1e6, Mult: ms.mult,
					Multipliers: ms.mults, Mode: mode})
			}
		}
	}
	if got := h.Sum64(); got != chargeTableFingerprint {
		t.Errorf("charge-table fingerprint %#x, want %#x", got, uint64(chargeTableFingerprint))
	}
}

// hashController feeds the reference controller's threshold, interior
// charge, segments and per-output charges over the guard window ±2.
func hashController(put func(uint64), par core.Params, cfg budget.Config) {
	c, err := budget.New(par, cfg)
	if err != nil {
		put(math.MaxUint64)
		return
	}
	th := c.Threshold()
	put(uint64(th))
	put(math.Float64bits(c.InteriorCharge()))
	for _, s := range c.Segments() {
		put(math.Float64bits(s.Mult))
		put(uint64(s.Offset))
	}
	for y := par.LoSteps() - th - 2; y <= par.HiSteps()+th+2; y++ {
		put(math.Float64bits(c.ChargeFor(y)))
	}
}

// TestQuickCertifiedThresholdsAlwaysHold fuzzes the privacy
// configuration space: whenever the closed-form calculators accept a
// configuration, the exact analyzer must certify the result.
func TestQuickCertifiedThresholdsAlwaysHold(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzer fuzzing is slow")
	}
	prop := func(buRaw, rangeRaw, epsRaw, multRaw uint8) bool {
		bu := 8 + int(buRaw%9)               // 8..16
		rangeSteps := 4 + int(rangeRaw%60)   // 4..63
		eps := math.Ldexp(1, -int(epsRaw%3)) // 1, 0.5, 0.25
		mult := 1.5 + float64(multRaw%3)*0.5 // 1.5, 2, 2.5
		par := core.Params{
			Lo: 0, Hi: float64(rangeSteps), Eps: eps,
			Bu: bu, By: 12, Delta: 1,
		}
		if par.Validate() != nil {
			return true
		}
		an := core.NewAnalyzer(par)
		if th, err := core.ThresholdingThreshold(par, mult); err == nil {
			if !an.ThresholdingLoss(th).Bounded(mult * eps) {
				t.Logf("thresholding violation: %+v mult=%g th=%d", par, mult, th)
				return false
			}
		}
		if th, err := core.ResamplingThreshold(par, mult); err == nil {
			if !an.ResamplingLoss(th).Bounded(mult * eps) {
				t.Logf("resampling violation: %+v mult=%g th=%d", par, mult, th)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
