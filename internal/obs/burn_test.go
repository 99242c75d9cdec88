package obs

import (
	"math"
	"testing"
)

// newTestAlerter builds an alerter planning 16 000 units over 1000
// charges (16 units, one nat, per charge).
func newTestAlerter(t *testing.T) *BurnAlerter {
	t.Helper()
	ba, err := NewBurnAlerter(BurnConfig{
		EnvelopeUnits:  16_000,
		HorizonCharges: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ba
}

func TestBurnAlerterOnPlanNeverTrips(t *testing.T) {
	ba := newTestAlerter(t)
	r := NewRegistry()
	ba.Bind(NewBurnMetrics(r))
	odo := r.Odometer("budget.odometer", 4)
	odo.SetBurn(ba)
	for i := 0; i < 1000; i++ {
		odo.Charge(i%4, 16) // exactly the plan
	}
	if ba.Tripped() {
		t.Fatal("on-plan spend tripped the alert")
	}
	s := ba.Snapshot()
	if s.Charges != 1000 {
		t.Fatalf("charges = %d, want 1000", s.Charges)
	}
	// Burn should hover at 1.000× the plan.
	if s.FastBurnMilli < 900 || s.FastBurnMilli > 1100 {
		t.Fatalf("fast burn %d milli, want ≈1000", s.FastBurnMilli)
	}
	if got := r.Snapshot().Counters["burn.alerts"]; got != 0 {
		t.Fatalf("burn.alerts = %d, want 0", got)
	}
}

func TestBurnAlerterOverspendTripsBeforeEnvelope(t *testing.T) {
	ba := newTestAlerter(t)
	r := NewRegistry()
	ba.Bind(NewBurnMetrics(r))
	odo := r.Odometer("budget.odometer", 1)
	odo.SetBurn(ba)

	// Synthetic overspend fault: 10× the planned rate, every charge.
	for i := 0; i < 200 && !ba.Tripped(); i++ {
		odo.Charge(0, 160) // 160 units vs 16 planned
	}
	if !ba.Tripped() {
		t.Fatal("sustained 10× overspend never tripped")
	}
	s := ba.Snapshot()
	if s.TrippedAtUnits >= ba.Config().EnvelopeUnits {
		t.Fatalf("tripped at %d units — after the %d unit envelope", s.TrippedAtUnits, ba.Config().EnvelopeUnits)
	}
	if s.Alerts == 0 || !s.Active {
		t.Fatalf("snapshot: %+v", s)
	}
	// The latched snapshot renders as exactly one burn.alert instant
	// carrying the trip spend.
	data, err := PerfettoJSON(NewFlightRecorder(16).Snapshot(), s)
	if err != nil {
		t.Fatal(err)
	}
	alerts := burnAlerts(t, data)
	if len(alerts) != 1 {
		t.Fatalf("export has %d burn.alert instants, want 1", len(alerts))
	}
	if got := alerts[0].Args["spent_units"]; got != float64(s.TrippedAtUnits) {
		t.Errorf("burn.alert spent_units = %v, want trip spend %d", got, s.TrippedAtUnits)
	}
	snap := r.Snapshot()
	if snap.Counters["burn.alerts"] != s.Alerts {
		t.Errorf("burn.alerts counter %d != snapshot alerts %d", snap.Counters["burn.alerts"], s.Alerts)
	}
	if snap.Gauges["burn.alert_active"] != 1 {
		t.Errorf("burn.alert_active = %d, want 1", snap.Gauges["burn.alert_active"])
	}
}

func TestBurnAlerterSpikeRejected(t *testing.T) {
	ba := newTestAlerter(t)
	odo := NewRegistry().Odometer("o", 1)
	odo.SetBurn(ba)
	// One giant spike inside an otherwise on-plan stream: the fast
	// window dilutes it below threshold before the slow window heats.
	odo.Charge(0, 320) // 20× plan, once
	for i := 0; i < 500; i++ {
		odo.Charge(0, 16)
	}
	if ba.Tripped() {
		t.Fatal("a single spike should not trip the multi-window alert")
	}
}

func TestBurnAlerterConfigValidation(t *testing.T) {
	if _, err := NewBurnAlerter(BurnConfig{HorizonCharges: 10}); err == nil {
		t.Error("zero envelope accepted")
	}
	if _, err := NewBurnAlerter(BurnConfig{EnvelopeUnits: 1}); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()

	t.Run("empty is NaN", func(t *testing.T) {
		h := r.Histogram("q.empty", []int64{1, 2, 4})
		if q := h.snapshot().Quantile(0.5); !math.IsNaN(q) {
			t.Fatalf("empty quantile = %v, want NaN", q)
		}
	})

	t.Run("NaN q is NaN", func(t *testing.T) {
		h := r.Histogram("q.nan", []int64{1, 2})
		h.Observe(1)
		if q := h.snapshot().Quantile(math.NaN()); !math.IsNaN(q) {
			t.Fatalf("Quantile(NaN) = %v, want NaN", q)
		}
	})

	t.Run("single bucket is exact for constant stream", func(t *testing.T) {
		h := r.Histogram("q.single", []int64{10, 100, 1000})
		for i := 0; i < 50; i++ {
			h.Observe(40) // all land in (10, 100]
		}
		s := h.snapshot()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != 40 {
				t.Fatalf("Quantile(%v) = %v, want exactly 40", q, got)
			}
		}
	})

	t.Run("monotone across q", func(t *testing.T) {
		h := r.Histogram("q.mono", []int64{1, 2, 4, 8, 16, 32})
		vals := []int64{1, 1, 2, 3, 5, 8, 13, 21, 30, 40}
		for _, v := range vals {
			h.Observe(v)
		}
		s := h.snapshot()
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			cur := s.Quantile(q)
			if math.IsNaN(cur) || cur < prev {
				t.Fatalf("Quantile(%v) = %v not monotone (prev %v)", q, cur, prev)
			}
			prev = cur
		}
	})

	t.Run("overflow mass pins to last bound", func(t *testing.T) {
		h := r.Histogram("q.over", []int64{1, 2, 4})
		h.Observe(1)
		h.Observe(1000) // overflow bucket
		if got := h.snapshot().Quantile(0.99); got != 4 {
			t.Fatalf("Quantile(0.99) = %v, want 4 (last bound)", got)
		}
	})

	t.Run("clamps out-of-range q", func(t *testing.T) {
		h := r.Histogram("q.clamp", []int64{1, 2, 4})
		h.Observe(1)
		h.Observe(3)
		s := h.snapshot()
		if lo, hi := s.Quantile(-0.5), s.Quantile(1.5); math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
			t.Fatalf("clamped quantiles lo=%v hi=%v", lo, hi)
		}
	})
}
