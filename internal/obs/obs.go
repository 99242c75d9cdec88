// Package obs is the telemetry plane: atomic counters, fixed-bucket
// histograms, and a privacy odometer, collected in a process-wide
// Registry snapshotable to JSON and expvar, plus the per-report
// flight recorder and the privacy burn-rate alerter.
//
// Whether telemetry is attached is decided here, in one place: every
// recording method — Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Observe, Odometer.Charge/Replenish, FlightRecorder.Record
// and the BurnAlerter methods — is a no-op on a nil receiver. A
// component holds a pointer to its (pre-registered) metrics struct;
// when its caller attached no plane, that is a zero struct whose
// instruments are all nil, and every hook site calls its instrument
// unconditionally:
//
//	c.obs.Something.Inc()
//
// so a detached plane costs one nil compare per instrument call on
// the hot path and allocates nothing. The only guards left in the
// components skip work that exists for telemetry alone, such as
// reading the clock for a latency histogram. An attached plane costs
// atomic adds on pre-allocated instruments — no allocation either, so
// telemetry can stay on in production without touching the noise
// path's allocation profile (the Benchmark gate in bench_test.go pins
// both claims).
//
// Instruments are registered by name; registration is idempotent
// (asking for an existing name returns the existing instrument), which
// lets many components — every link of a fleet, every channel of a
// bank — share one instrument by agreeing on its name. Registering
// the same name as two different instrument kinds, or with conflicting
// shape (histogram bounds, odometer channels), panics: that is a
// wiring error, caught at configuration time like a mis-declared VCD
// signal (DESIGN.md §6).
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations. The
// bounds are inclusive upper bucket edges; one extra overflow bucket
// catches everything above the last bound. Buckets are atomic, so
// concurrent Observe calls never lock, and the bucket count is fixed
// at registration, so Observe never allocates.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64
	sum    atomic.Int64
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Odometer is the privacy odometer: cumulative privacy loss charged
// per channel, in whole budget-ledger charge units (core.ChargeUnit,
// one sixteenth of a nat: the DP-Box's fixed-point resolution), so it
// counts the same integers the ledger debits; only the charge that
// exhausts the ledger, which saturates at zero, is recorded here in
// full but debited there in part. It is monotone by
// construction — an odometer never rolls back, even when the budget
// it mirrors is replenished (replenish events are counted
// separately). It is the operator-facing dual of the budget ledger:
// the ledger says what may still be spent, the odometer proves what
// was spent. Printers convert units to nats.
type Odometer struct {
	channels []atomic.Int64 // spent units per channel
	total    atomic.Int64
	charges  atomic.Uint64
	repl     atomic.Uint64
	burn     atomic.Pointer[BurnAlerter] // optional burn-rate sink
}

// Charge records a privacy charge of the given size, in charge units,
// against a channel (clamped into the registered channel range).
func (o *Odometer) Charge(ch int, units int64) {
	if o == nil {
		return
	}
	if ch < 0 {
		ch = 0
	}
	if ch >= len(o.channels) {
		ch = len(o.channels) - 1
	}
	o.channels[ch].Add(units)
	t := o.total.Add(units)
	o.charges.Add(1)
	if ba := o.burn.Load(); ba != nil {
		ba.observe(units, t)
	}
}

// SetBurn attaches (or detaches, with nil) a burn-rate alerter: every
// subsequent Charge is folded into its sliding windows. Without a
// sink, the extra cost is one atomic pointer load per charge.
func (o *Odometer) SetBurn(ba *BurnAlerter) { o.burn.Store(ba) }

// Replenish counts one budget refill event. The cumulative spend is
// untouched: replenishment restores the ledger, not history.
func (o *Odometer) Replenish() {
	if o != nil {
		o.repl.Add(1)
	}
}

// SpentUnits returns a channel's cumulative spend in charge units.
func (o *Odometer) SpentUnits(ch int) int64 {
	if ch < 0 || ch >= len(o.channels) {
		return 0
	}
	return o.channels[ch].Load()
}

// TotalUnits returns the cumulative spend across all channels in
// charge units.
func (o *Odometer) TotalUnits() int64 { return o.total.Load() }

// Charges returns the number of charge events recorded.
func (o *Odometer) Charges() uint64 { return o.charges.Load() }

// Replenishes returns the number of refill events recorded.
func (o *Odometer) Replenishes() uint64 { return o.repl.Load() }

func (o *Odometer) snapshot() OdometerSnapshot {
	s := OdometerSnapshot{
		ChannelUnits: make([]int64, len(o.channels)),
		TotalUnits:   o.total.Load(),
		Charges:      o.charges.Load(),
		Replenishes:  o.repl.Load(),
	}
	for i := range o.channels {
		s.ChannelUnits[i] = o.channels[i].Load()
	}
	return s
}

// Registry is the process-wide instrument namespace. All methods are
// safe for concurrent use; instrument registration is idempotent by
// (name, kind, shape).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	odos     map[string]*Odometer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		odos:     make(map[string]*Odometer),
	}
}

// checkFresh panics if name is already registered as another kind.
func (r *Registry) checkFresh(name, kind string) {
	for k, taken := range map[string]bool{
		"counter":   r.counters[name] != nil,
		"gauge":     r.gauges[name] != nil,
		"histogram": r.hists[name] != nil,
		"odometer":  r.odos[name] != nil,
	} {
		if taken && k != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, k, kind))
		}
	}
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.checkFresh(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (registering if needed) the named histogram with
// the given ascending inclusive upper bucket bounds. Re-registration
// with different bounds panics.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	r.checkFresh(name, "histogram")
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Odometer returns (registering if needed) the named odometer with the
// given channel count. Re-registration with a different channel count
// panics.
func (r *Registry) Odometer(name string, channels int) *Odometer {
	if channels < 1 {
		channels = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o := r.odos[name]; o != nil {
		if len(o.channels) != channels {
			panic(fmt.Sprintf("obs: odometer %q re-registered with %d channels, have %d", name, channels, len(o.channels)))
		}
		return o
	}
	r.checkFresh(name, "odometer")
	o := &Odometer{channels: make([]atomic.Int64, channels)}
	r.odos[name] = o
	return o
}

// Names returns every registered metric name, sorted — the schema the
// golden test pins.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0,
		len(r.counters)+len(r.gauges)+len(r.hists)+len(r.odos))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.odos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bucket edges.
	Bounds []int64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow
	// bucket.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
}

// Quantile estimates the q-quantile (q in [0, 1], clamped) by linear
// interpolation inside the target bucket, the standard Prometheus
// histogram_quantile estimator. Special cases keep it honest at the
// edges:
//
//   - an empty histogram returns NaN (as does a NaN q);
//   - when all mass sits in a single bucket, the mean Sum/Count —
//     exact for a constant stream — is returned, clamped into the
//     bucket;
//   - mass in the overflow bucket pins the estimate to the last bound
//     (the histogram cannot see further).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	occupied, multi := -1, false
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if occupied >= 0 {
			multi = true
			break
		}
		occupied = i
	}
	if !multi {
		lo, hi := s.bucketEdges(occupied)
		mean := float64(s.Sum) / float64(s.Count)
		if mean < lo {
			return lo
		}
		if mean > hi {
			return hi
		}
		return mean
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := s.bucketEdges(i)
			if i == len(s.Counts)-1 {
				return hi // overflow bucket: pin to the last bound
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	_, hi := s.bucketEdges(len(s.Counts) - 1)
	return hi
}

// bucketEdges returns bucket i's [lower, upper] value range. The first
// bucket's lower edge is 0 for non-negative bound sets (the common
// latency/count case) and the bound itself otherwise; the overflow
// bucket collapses to the last bound.
func (s HistogramSnapshot) bucketEdges(i int) (lo, hi float64) {
	last := float64(s.Bounds[len(s.Bounds)-1])
	if i >= len(s.Bounds) {
		return last, last
	}
	hi = float64(s.Bounds[i])
	switch {
	case i > 0:
		lo = float64(s.Bounds[i-1])
	case s.Bounds[0] >= 0:
		lo = 0
	default:
		lo = hi
	}
	return lo, hi
}

// OdometerSnapshot is one odometer's frozen state.
type OdometerSnapshot struct {
	// ChannelUnits is the cumulative spend per channel, charge units.
	ChannelUnits []int64 `json:"channel_units"`
	// TotalUnits is the cumulative spend across channels, charge units.
	TotalUnits int64 `json:"total_units"`
	// Charges counts charge events.
	Charges uint64 `json:"charges"`
	// Replenishes counts budget refill events.
	Replenishes uint64 `json:"replenishes"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// Counters and gauges are plain values; maps marshal with sorted keys,
// so the JSON form is deterministic given deterministic values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Odometers  map[string]OdometerSnapshot  `json:"odometers,omitempty"`
}

// Snapshot freezes the registry. Instruments keep counting afterwards;
// the snapshot is a copy.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters))}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	if len(r.odos) > 0 {
		s.Odometers = make(map[string]OdometerSnapshot, len(r.odos))
		for n, o := range r.odos {
			s.Odometers[n] = o.snapshot()
		}
	}
	return s
}

// MarshalJSON renders a snapshot of the registry.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// PublishExpvar exposes the registry under the given expvar name
// (visible on /debug/vars when an HTTP server runs). Publishing the
// same name twice is a no-op rather than the expvar panic, so
// simulators can wire it unconditionally.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
