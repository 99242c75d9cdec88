package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race this is the plane's concurrency gate.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1, 2, 4, 8})
	o := r.Odometer("o", 4)

	const (
		workers = 8
		iters   = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 10))
				o.Charge(w%4, 1)
				// Concurrent re-registration must return the same
				// instruments, not fresh ones.
				if r.Counter("c") != c || r.Odometer("o", 4) != o {
					panic("registry returned a different instrument")
				}
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*iters {
		t.Fatalf("counter %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge %d, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*iters)
	}
	if o.Charges() != workers*iters {
		t.Fatalf("odometer charges %d, want %d", o.Charges(), workers*iters)
	}
	if want := int64(workers * iters); o.TotalUnits() != want {
		t.Fatalf("odometer total %d units, want %d", o.TotalUnits(), want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{0, 10, 100})
	for _, v := range []int64{-5, 0, 1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Bounds are inclusive upper edges: (-inf,0], (0,10], (10,100], (100,inf).
	want := []uint64{2, 2, 2, 2}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("bucket counts %v, want %v", s.Counts, want)
	}
	if s.Count != 8 || s.Sum != -5+0+1+10+11+100+101+5000 {
		t.Fatalf("count/sum %d/%d", s.Count, s.Sum)
	}
}

func TestOdometerMonotoneAndClamped(t *testing.T) {
	r := NewRegistry()
	o := r.Odometer("odo", 2)
	o.Charge(0, 8)
	o.Charge(1, 4)
	o.Charge(-3, 2) // clamps to channel 0
	o.Charge(99, 2) // clamps to channel 1
	o.Replenish()
	if got := o.SpentUnits(0); got != 10 {
		t.Fatalf("channel 0: %d units", got)
	}
	if got := o.SpentUnits(1); got != 6 {
		t.Fatalf("channel 1: %d units", got)
	}
	if o.Replenishes() != 1 {
		t.Fatalf("replenishes %d", o.Replenishes())
	}
	// A replenish never shrinks the odometer.
	if o.TotalUnits() != 16 {
		t.Fatalf("replenish rolled back the odometer: %d", o.TotalUnits())
	}
}

func TestRegistryShapeConflictsPanic(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("x")
	mustPanic("kind conflict", func() { r.Gauge("x") })
	r.Histogram("h", []int64{1, 2})
	mustPanic("bounds conflict", func() { r.Histogram("h", []int64{1, 3}) })
	mustPanic("bounds length conflict", func() { r.Histogram("h", []int64{1}) })
	mustPanic("unordered bounds", func() { r.Histogram("h2", []int64{2, 2}) })
	mustPanic("empty bounds", func() { r.Histogram("h3", nil) })
	r.Odometer("o", 3)
	mustPanic("channel conflict", func() { r.Odometer("o", 4) })
}

func TestNamesSortedAndSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count")
	r.Gauge("a.gauge")
	r.Histogram("c.hist", []int64{1})
	r.Odometer("d.odo", 1).Charge(0, 8)

	want := []string{"a.gauge", "b.count", "c.hist", "d.odo"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, raw)
	}
	if back.Odometers["d.odo"].TotalUnits != 8 {
		t.Fatalf("odometer lost in JSON: %s", raw)
	}
	// Marshalling twice yields identical bytes (sorted map keys), the
	// property the golden schema test relies on.
	raw2, _ := json.Marshal(r)
	if string(raw) != string(raw2) {
		t.Fatal("snapshot JSON not deterministic")
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub.count").Add(3)
	// Publishing twice must not panic (expvar.Publish would).
	r.PublishExpvar("ulpdp-test")
	r.PublishExpvar("ulpdp-test")
}

// TestDetachedInstrumentsAreNoOps pins the one telemetry-off rule every
// layer relies on: recording through a nil instrument, a recorder
// without mirror metrics, or an alerter without bound metrics does
// nothing and does not panic.
func TestDetachedInstrumentsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		o *Odometer
	)
	c.Inc()
	c.Add(2)
	g.Set(3)
	g.Add(4)
	h.Observe(5)
	o.Charge(0, 6)
	o.Replenish()

	fr := NewFlightRecorder(1)
	fr.SetMetrics(NewFlightMetrics(NewRegistry()))
	fr.SetMetrics(nil)
	fr.Record(1, 1, StageNoised)
	fr.Record(1, 1, StageAck)
	if got := fr.Snapshot().Spans[0].Hits[StageAck]; got != 1 {
		t.Fatalf("detached-metrics recorder lost the span: ack hits %d", got)
	}

	ba, err := NewBurnAlerter(BurnConfig{EnvelopeUnits: 1, HorizonCharges: 1})
	if err != nil {
		t.Fatal(err)
	}
	ba.Bind(nil)
	odo := NewRegistry().Odometer("o", 1)
	odo.SetBurn(ba)
	for i := 0; i < fastWindow; i++ {
		odo.Charge(0, 16)
	}
	if !ba.Tripped() {
		t.Fatal("unbound alerter did not trip on a 16x overspend")
	}
}
