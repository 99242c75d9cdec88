package dpbox

import (
	"math"
	"testing"

	"ulpdp/internal/budget"
	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

// TestCoreAndBoxLockstep pins every guard decision of the DP-Box to
// the matching core mechanism: built from the same URNG seed at the
// box's threshold, both must release the identical value on every
// report (and spend the identical resamples in resampling mode). A
// statistical comparison would miss a rule that moves one output in
// a thousand; this one does not. Randomized response is fed only the
// two categories, because the core mechanism snaps its input to them.
func TestCoreAndBoxLockstep(t *testing.T) {
	const (
		seed    = 2024
		reports = 20000
	)
	par := core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}
	modes := []struct {
		name         string
		resampling   bool
		constantTime bool
		override     int64 // -1 = the certified threshold
	}{
		{"thresholding", false, false, -1},
		{"resampling", true, false, -1},
		{"constant-time", true, true, -1},
		{"randomized-response", false, false, 0},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			box := boot(t, Config{Bu: par.Bu, By: par.By, ConstantTime: m.constantTime,
				Source: urng.NewTaus88(seed)}, 1e15)
			if err := box.SetResampling(m.resampling); err != nil {
				t.Fatal(err)
			}
			if m.override >= 0 {
				if err := box.OverrideThreshold(m.override); err != nil {
					t.Fatal(err)
				}
			}
			// The box derives its threshold on its first report, from the
			// guard policy; it is checked against the box after the run.
			guard := core.GuardThresholding
			switch {
			case m.constantTime:
				guard = core.GuardConstantTime
			case m.resampling:
				guard = core.GuardResampling
			}
			th, err := core.GuardThreshold(par, guard, 2, box.cfg.Candidates)
			if err != nil {
				t.Fatal(err)
			}
			if m.override >= 0 {
				th = m.override
			}
			src := urng.NewTaus88(seed)
			var mech core.Mechanism
			switch {
			case m.override == 0:
				mech, err = core.NewRandomizedResponse(par, nil, src)
			case m.constantTime:
				mech, err = core.NewConstantTime(par, th, box.cfg.Candidates, nil, src)
			case m.resampling:
				mech, err = core.NewResampling(par, th, nil, src)
			default:
				mech, err = core.NewThresholding(par, th, nil, src)
			}
			if err != nil {
				t.Fatal(err)
			}
			mismatches := 0
			for i := 0; i < reports; i++ {
				x := int64(i % 17)
				if m.override == 0 {
					x = 16 * int64(i%2)
				}
				got, err := box.NoiseValue(x)
				if err != nil {
					t.Fatal(err)
				}
				want := mech.Noise(float64(x))
				if got.Value != want.Step || float64(got.Value) != want.Value ||
					(m.resampling && !m.constantTime && got.Resamples != want.Resamples) {
					if mismatches++; mismatches <= 5 {
						t.Errorf("report %d (x=%d): box %d (%d resamples), core %g (%d resamples)",
							i, x, got.Value, got.Resamples, want.Value, want.Resamples)
					}
				}
			}
			if box.Threshold() != th {
				t.Errorf("box threshold %d, core mechanism's %d", box.Threshold(), th)
			}
			if mismatches > 0 {
				t.Errorf("threshold %d: %d of %d reports differ", th, mismatches, reports)
			} else {
				t.Logf("threshold %d: %d reports in lockstep", th, reports)
			}
		})
	}
}

// stuckWord is a URNG stuck at one word; it counts its draws.
type stuckWord struct {
	word  uint32
	draws int
}

func (s *stuckWord) Uint32() uint32 { s.draws++; return s.word }

// TestStuckURNGOneFaultRule drives every resampling producer, the core
// mechanism, budget.Controller and the DP-Box, with a URNG stuck at
// word 1: the largest noise magnitude, which never lands in the
// window. All three must run the one watchdog rule of the guard plan:
// the same cap of missed draws (two URNG words each), then the clamp
// at the certified thresholding threshold, charged at least Mult·ε by
// the box, or, where no thresholding threshold is certified, a
// withheld report. The last geometry certifies no threshold at all, so
// the box and the core mechanism run at an explicit threshold and the
// controller refuses the configuration outright.
func TestStuckURNGOneFaultRule(t *testing.T) {
	geos := []struct {
		bu, by, shift int
		hi, override  int64 // override -1 = the certified threshold
		withheld      bool
	}{
		{12, 10, 1, 16, -1, false},
		{17, 12, 1, 20, -1, false},
		{14, 12, 2, 12, -1, false},
		{8, 8, 2, 8, 1, true},
	}
	for _, g := range geos {
		par := core.Params{Lo: 0, Hi: float64(g.hi), Eps: math.Ldexp(1, -g.shift), Bu: g.bu, By: g.by, Delta: 1}
		x := g.hi / 2

		boxSrc := &stuckWord{word: 1}
		box, err := New(Config{Bu: g.bu, By: g.by, Source: boxSrc})
		if err == nil {
			err = box.Initialize(1e6, 0)
		}
		if err == nil {
			err = box.Configure(g.shift, 0, g.hi)
		}
		if err == nil {
			err = box.SetResampling(true)
		}
		if err == nil && g.override >= 0 {
			err = box.OverrideThreshold(g.override)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := box.NoiseValue(x)
		if err != nil {
			t.Fatalf("%+v: box: %v", par, err)
		}
		plan, err := core.NewGuardPlan(par, core.GuardSpec{Guard: core.GuardResampling,
			Threshold: box.Threshold(), Mult: core.DefaultMult})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cap != box.ResampleCap() || plan.DegradeOK == g.withheld {
			t.Fatalf("%+v: plan cap %d, certified clamp %v; box cap %d", par, plan.Cap, plan.DegradeOK, box.ResampleCap())
		}
		if !got.Degraded || got.Resamples != plan.Cap || boxSrc.draws != 2*plan.Cap {
			t.Errorf("%+v: box degraded %v after %d resamples, %d URNG words; cap %d",
				par, got.Degraded, got.Resamples, boxSrc.draws, plan.Cap)
		}

		coreSrc := &stuckWord{word: 1}
		mech, err := core.NewResampling(par, box.Threshold(), nil, coreSrc)
		if err != nil {
			t.Fatal(err)
		}
		want := mech.Noise(float64(x))
		if !want.Degraded || want.Withheld != g.withheld || want.Resamples != plan.Cap || coreSrc.draws != 2*plan.Cap {
			t.Errorf("%+v: core degraded %v withheld %v after %d resamples, %d URNG words; cap %d",
				par, want.Degraded, want.Withheld, want.Resamples, coreSrc.draws, plan.Cap)
		}
		if got.Value != want.Step {
			t.Errorf("%+v: box released %d, core %d", par, got.Value, want.Step)
		}
		if g.withheld {
			if !got.FromCache || got.Charged != 0 || got.Value != 0 {
				t.Errorf("%+v: box withheld report %+v, want the uncharged lower bound", par, got)
			}
		} else {
			edge := plan.DegradeThreshold
			if got.Value != -edge && got.Value != g.hi+edge {
				t.Errorf("%+v: box released %d, not a clamp at threshold %d", par, got.Value, edge)
			}
			_, top := boxUnits(box)
			if wantU := max(top, plan.DegradeUnits); got.Charged != float64(wantU)*chargeUnit ||
				got.Charged < core.DefaultMult*par.Eps {
				t.Errorf("%+v: box charged %g, want %g (at least %g)", par, got.Charged,
					float64(wantU)*chargeUnit, core.DefaultMult*par.Eps)
			}
		}

		ctlSrc := &stuckWord{word: 1}
		ctl, err := budget.New(par, budget.Config{Budget: 10, Mode: budget.Resampling, Source: ctlSrc})
		if g.withheld {
			if err == nil {
				t.Errorf("%+v: controller accepted a configuration with no certified threshold", par)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Threshold() != box.Threshold() {
			t.Fatalf("%+v: controller threshold %d, box %d", par, ctl.Threshold(), box.Threshold())
		}
		if _, err := ctl.Request(float64(x)); err == nil || ctlSrc.draws != 2*plan.Cap || ctl.Remaining() != 10 {
			t.Errorf("%+v: controller err %v after %d URNG words (cap %d), remaining %g",
				par, err, ctlSrc.draws, plan.Cap, ctl.Remaining())
		}
	}
}
