package core

import (
	"math"
	"reflect"
	"testing"
)

// planGeometries are TestChargeTableFingerprint's DP-Box geometries
// (internal/dpbox): Δ = 1, ε = 2^-shift. The last adds a saturating
// output word, where the thresholding and resampling thresholds
// differ (111 and 110 steps); in the others they coincide.
var planGeometries = []Params{
	{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1},
	{Lo: 0, Hi: 20, Eps: 0.5, Bu: 17, By: 12, Delta: 1},
	{Lo: -4, Hi: 12, Eps: 0.25, Bu: 14, By: 12, Delta: 1},
	{Lo: 2, Hi: 10, Eps: 1, Bu: 10, By: 10, Delta: 1},
	{Lo: 0, Hi: 16, Eps: 0.5, Bu: 17, By: 8, Delta: 1},
}

// sameSchedule reports whether two schedules agree field for field,
// floats by bit pattern.
func sameSchedule(a, b ChargeSchedule) bool {
	bits := math.Float64bits
	if a.Lo != b.Lo || a.Hi != b.Hi || a.Threshold != b.Threshold ||
		bits(a.Eps) != bits(b.Eps) || bits(a.ZSlack) != bits(b.ZSlack) ||
		bits(a.Interior) != bits(b.Interior) || bits(a.Top) != bits(b.Top) ||
		len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		if a.Segments[i].Offset != b.Segments[i].Offset ||
			bits(a.Segments[i].Mult) != bits(b.Segments[i].Mult) {
			return false
		}
	}
	return true
}

func planCount(an *Analyzer) int {
	an.plans.mu.Lock()
	defer an.plans.mu.Unlock()
	return len(an.plans.m)
}

// TestGuardPlanMemoMatchesDerivation checks that memoized guard
// thresholds and charge schedules equal an unmemoized derivation on a
// fresh analyzer: on the first pass over every plan of a geometry, on
// a second pass of memo hits, and after the cache is reset. Schedules
// are derived at the guard's threshold and at a fixed one every guard
// shares, and the first multiplier sets share a multiplier, a
// threshold and a length, so a key that dropped any of its fields
// would collide. The last set is longer than a plan key, so it
// exercises the compute-without-store path.
func TestGuardPlanMemoMatchesDerivation(t *testing.T) {
	const (
		sharedThreshold = 3
		candidates      = 4
	)
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	multSets := []struct {
		mult  float64
		mults []float64
	}{
		{2.5, []float64{1.25, 1.5}},
		{2.5, []float64{1.25, 1.75}},
		{2.5, []float64{1.1, 1.4, 1.8}},
		{2, []float64{1.25, 1.5}},
		{2.5, []float64{1.1, 1.2, 1.3, 1.4, 1.6, 1.8}},
	}
	if n := len(multSets[len(multSets)-1].mults); n <= planKeyMults {
		t.Fatalf("overflow case has %d multipliers, key holds %d", n, planKeyMults)
	}
	for _, par := range planGeometries {
		for pass := 0; pass < 3; pass++ {
			if pass == 2 {
				ResetAnalyzerCache()
			}
			for _, guard := range []Guard{GuardThresholding, GuardResampling, GuardConstantTime} {
				for _, ms := range multSets {
					var wantTh int64
					var err error
					switch guard {
					case GuardThresholding:
						wantTh, err = ThresholdingThreshold(par, ms.mult)
					case GuardResampling:
						wantTh, err = ResamplingThreshold(par, ms.mult)
					default:
						wantTh, err = ExactConstantTimeThreshold(par, ms.mult, candidates)
					}
					if err != nil {
						t.Fatalf("%+v guard %d: %v", par, guard, err)
					}
					if th, err := GuardThreshold(par, guard, ms.mult, candidates); err != nil || th != wantTh {
						t.Errorf("%+v guard %d pass %d: threshold %d, %v; want %d", par, guard, pass, th, err, wantTh)
					}
					for _, th := range []int64{wantTh, sharedThreshold} {
						want := NewAnalyzer(par).chargeSchedule(guard, th, ms.mult, ms.mults)
						before := planCount(CachedAnalyzer(par))
						got := NewChargeSchedule(par, guard, th, ms.mult, ms.mults)
						if !sameSchedule(got, want) {
							t.Errorf("%+v guard %d th %d mults %v pass %d:\n got %+v\nwant %+v",
								par, guard, th, ms.mults, pass, got, want)
						}
						// A keyed schedule is stored on its first call and
						// hit on the second; an overflowing one never is.
						grew := 0
						if len(ms.mults) <= planKeyMults && pass != 1 {
							grew = 1
						}
						if th == sharedThreshold && wantTh == sharedThreshold {
							grew = 0 // the same key twice in one pass
						}
						if after := planCount(CachedAnalyzer(par)); after-before != grew {
							t.Errorf("%+v guard %d th %d mults %v pass %d: memo grew %d -> %d, want +%d",
								par, guard, th, ms.mults, pass, before, after, grew)
						}
					}
				}
			}
		}
	}
}

// TestGuardPlanMemoCap derives more distinct schedules on one
// analyzer than the memo holds: it must stop storing at the cap and
// keep returning exact derivations.
func TestGuardPlanMemoCap(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	par := planGeometries[1]
	fresh := NewAnalyzer(par)
	mults := []float64{1.25, 1.5}
	for th := int64(1); th <= planMaxEntries+8; th++ {
		got := NewChargeSchedule(par, GuardThresholding, th, 2, mults)
		if want := fresh.chargeSchedule(GuardThresholding, th, 2, mults); !sameSchedule(got, want) {
			t.Errorf("threshold %d: got %+v, want %+v", th, got, want)
		}
	}
	if n := planCount(CachedAnalyzer(par)); n != planMaxEntries {
		t.Errorf("memo holds %d plans, cap %d", n, planMaxEntries)
	}
}

// TestGuardThresholdBuildsNoAnalyzer pins that a closed-form
// threshold never materializes a PMF: on a cold cache it neither
// builds an analyzer nor misses.
func TestGuardThresholdBuildsNoAnalyzer(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	for _, guard := range []Guard{GuardThresholding, GuardResampling} {
		if _, err := GuardThreshold(planGeometries[1], guard, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := AnalyzerCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("closed-form thresholds touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// samePlan reports whether two guard plans agree field for field,
// schedule floats by bit pattern (an override into the hole region
// has NaN charges).
func samePlan(a, b *GuardPlan) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	if !sameSchedule(x.Schedule, y.Schedule) {
		return false
	}
	x.Schedule, y.Schedule = ChargeSchedule{}, ChargeSchedule{}
	return reflect.DeepEqual(x, y)
}

// TestGuardPlanMemo checks that memoized guard plans equal an
// unmemoized derivation for every spec kind the DP-Box and the core
// mechanisms use (certified, explicit, RR, disabled, uncharged), and
// that a second call hits the stored plan.
func TestGuardPlanMemo(t *testing.T) {
	ResetAnalyzerCache()
	defer ResetAnalyzerCache()
	mults := []float64{1.25, 1.5}
	specs := []GuardSpec{
		{Guard: GuardThresholding, Threshold: -1, Mult: 2, Multipliers: mults, Charged: true},
		{Guard: GuardResampling, Threshold: -1, Mult: 2, Multipliers: mults, Charged: true},
		{Guard: GuardConstantTime, Threshold: -1, Candidates: 4, Mult: 2, Multipliers: mults, Charged: true},
		{Guard: GuardThresholding, Threshold: 0, Mult: 2, Multipliers: mults, Charged: true, RR: true},
		{Guard: GuardResampling, Threshold: 3, Mult: 2.5, Multipliers: mults, Charged: true},
		{Guard: GuardResampling, Mult: 2, Multipliers: mults, Charged: true, Disabled: true},
		{Guard: GuardResampling, Threshold: 5, Mult: DefaultMult},
	}
	for _, par := range planGeometries {
		for _, spec := range specs {
			want, wantErr := newGuardPlan(par, spec)
			got, err := NewGuardPlan(par, spec)
			if !samePlan(got, want) || !reflect.DeepEqual(err, wantErr) {
				t.Errorf("%+v %+v:\n got %+v, %v\nwant %+v, %v", par, spec, got, err, want, wantErr)
			}
			if again, _ := NewGuardPlan(par, spec); again != got {
				t.Errorf("%+v %+v: second call missed the memo", par, spec)
			}
		}
	}
}

// BenchmarkGuardPlanHit is the memo hit every DP-Box derive and crash
// recovery takes after the first; CI requires 0 allocs/op.
func BenchmarkGuardPlanHit(b *testing.B) {
	spec := GuardSpec{Guard: GuardResampling, Threshold: -1, Mult: 2,
		Multipliers: []float64{1.25, 1.5}, Charged: true}
	want, err := NewGuardPlan(planGeometries[1], spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, err := NewGuardPlan(planGeometries[1], spec); p != want || err != nil {
			b.Fatal("wrong plan")
		}
	}
}

// BenchmarkChargeScheduleHit is the memo hit path every DP-Box derive
// and crash recovery takes after the first; CI requires 0 allocs/op.
func BenchmarkChargeScheduleHit(b *testing.B) {
	par := planGeometries[1]
	mults := []float64{1.25, 1.5}
	th, err := GuardThreshold(par, GuardThresholding, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	NewChargeSchedule(par, GuardThresholding, th, 2, mults)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := NewChargeSchedule(par, GuardThresholding, th, 2, mults); s.Threshold != th {
			b.Fatal("wrong schedule")
		}
	}
}

// BenchmarkGuardThresholdHit is GuardThreshold's memo hit path; CI
// requires 0 allocs/op.
func BenchmarkGuardThresholdHit(b *testing.B) {
	par := planGeometries[1]
	CachedAnalyzer(par) // closed forms memoize once the analyzer is cached
	want, err := GuardThreshold(par, GuardResampling, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if th, err := GuardThreshold(par, GuardResampling, 2, 0); th != want || err != nil {
			b.Fatal("wrong threshold")
		}
	}
}
