package obs

import (
	"fmt"
	"sync"
)

// BurnConfig parameterises the burn-rate alerter. The planned spend
// rate is EnvelopeUnits / HorizonCharges: the certified n·ε
// envelope amortised over the expected charge count. Burn is the
// observed per-charge spend divided by that plan; the alert trips when
// the fast AND slow window burns both exceed their thresholds —
// the SRE multi-window pattern, which rejects single-charge spikes but
// catches sustained overspend long before the envelope is exhausted.
//
// Windows are measured in charge events, not wall time, so the alerter
// is deterministic for a deterministic charge stream.
type BurnConfig struct {
	// EnvelopeUnits is the certified cumulative spend ceiling (n·ε in
	// the odometer's charge units). Must be positive.
	EnvelopeUnits int64
	// HorizonCharges is the number of charges the envelope is planned
	// to last. Must be positive.
	HorizonCharges uint64
	// FastWindow and SlowWindow are window lengths in charges
	// (defaults 8 and 64; fast must be shorter than slow).
	FastWindow, SlowWindow int
	// FastBurn and SlowBurn are the trip thresholds as multiples of
	// the planned rate (defaults 4 and 2).
	FastBurn, SlowBurn float64
}

// BurnAlerter watches the odometer's charge stream and trips when the
// spend derivative exceeds the plan in both windows. It attaches to an
// Odometer via SetBurn; each charge costs one mutex-guarded ring
// update (no allocation). The trip is latched: Tripped stays true for
// the rest of the run even if the burn rate later subsides, while
// Active follows the instantaneous state.
type BurnAlerter struct {
	cfg BurnConfig

	mu        sync.Mutex
	ring      []int64 // last SlowWindow charges, units
	n         uint64  // charges observed
	fastSum   int64
	slowSum   int64
	active    bool
	tripped   bool
	trippedAt int64 // cumulative units when first tripped
	alerts    uint64

	metrics *BurnMetrics
}

// NewBurnAlerter validates the config (applying defaults) and builds
// an alerter.
func NewBurnAlerter(cfg BurnConfig) (*BurnAlerter, error) {
	if cfg.EnvelopeUnits <= 0 {
		return nil, fmt.Errorf("obs: burn alerter needs a positive envelope, got %d units", cfg.EnvelopeUnits)
	}
	if cfg.HorizonCharges == 0 {
		return nil, fmt.Errorf("obs: burn alerter needs a positive charge horizon")
	}
	if cfg.FastWindow == 0 {
		cfg.FastWindow = 8
	}
	if cfg.SlowWindow == 0 {
		cfg.SlowWindow = 64
	}
	if cfg.FastBurn == 0 {
		cfg.FastBurn = 4
	}
	if cfg.SlowBurn == 0 {
		cfg.SlowBurn = 2
	}
	if cfg.FastWindow < 1 || cfg.FastWindow >= cfg.SlowWindow {
		return nil, fmt.Errorf("obs: burn windows must satisfy 1 <= fast (%d) < slow (%d)", cfg.FastWindow, cfg.SlowWindow)
	}
	if cfg.FastBurn <= 0 || cfg.SlowBurn <= 0 {
		return nil, fmt.Errorf("obs: burn thresholds must be positive")
	}
	return &BurnAlerter{cfg: cfg, ring: make([]int64, cfg.SlowWindow)}, nil
}

// Bind attaches registry instruments (nil detaches them).
func (b *BurnAlerter) Bind(m *BurnMetrics) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.metrics = m
	b.mu.Unlock()
}

// Config returns the validated configuration (defaults applied).
func (b *BurnAlerter) Config() BurnConfig { return b.cfg }

// observe folds one charge into the windows; called by the Odometer
// with the charge size and the new cumulative total.
func (b *BurnAlerter) observe(units, total int64) {
	b.mu.Lock()
	defer b.mu.Unlock()

	i := int(b.n % uint64(len(b.ring)))
	if b.n >= uint64(len(b.ring)) {
		b.slowSum -= b.ring[i]
	}
	if b.n >= uint64(b.cfg.FastWindow) {
		j := int((b.n - uint64(b.cfg.FastWindow)) % uint64(len(b.ring)))
		b.fastSum -= b.ring[j]
	}
	b.ring[i] = units
	b.slowSum += units
	b.fastSum += units
	b.n++

	fastBurn, slowBurn := b.burns()

	if m := b.metrics; m != nil {
		m.FastBurnMilli.Set(int64(fastBurn * 1000))
		m.SlowBurnMilli.Set(int64(slowBurn * 1000))
	}

	// Both windows must be hot; the fast window must be full so a
	// single early charge cannot trip the alert on a cold start.
	active := b.n >= uint64(b.cfg.FastWindow) &&
		fastBurn >= b.cfg.FastBurn && slowBurn >= b.cfg.SlowBurn
	if active && !b.active {
		b.alerts++
		if !b.tripped {
			b.tripped = true
			b.trippedAt = total
		}
		if m := b.metrics; m != nil {
			m.Alerts.Inc()
			m.AlertActive.Set(1)
		}
	}
	if !active && b.active {
		if m := b.metrics; m != nil {
			m.AlertActive.Set(0)
		}
	}
	b.active = active
}

// Tripped reports whether the alert has ever fired (latched).
func (b *BurnAlerter) Tripped() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped
}

// BurnSnapshot is the alerter's frozen state.
type BurnSnapshot struct {
	// Tripped is the latched alert status; Active the instantaneous
	// one.
	Tripped bool `json:"tripped"`
	Active  bool `json:"active"`
	// Alerts counts rising edges (quiet → alerting transitions).
	Alerts uint64 `json:"alerts"`
	// Charges is the number of charge events observed.
	Charges uint64 `json:"charges"`
	// TrippedAtUnits is the cumulative spend, in charge units, when
	// the alert first fired (0 if never).
	TrippedAtUnits int64 `json:"tripped_at_units"`
	// FastBurnMilli and SlowBurnMilli are the last computed window
	// burns in milli-multiples of the planned rate.
	FastBurnMilli int64 `json:"fast_burn_milli"`
	SlowBurnMilli int64 `json:"slow_burn_milli"`
}

// Snapshot freezes the alerter.
func (b *BurnAlerter) Snapshot() *BurnSnapshot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &BurnSnapshot{
		Tripped:        b.tripped,
		Active:         b.active,
		Alerts:         b.alerts,
		Charges:        b.n,
		TrippedAtUnits: b.trippedAt,
	}
	if b.n > 0 {
		fast, slow := b.burns()
		s.FastBurnMilli = int64(fast * 1000)
		s.SlowBurnMilli = int64(slow * 1000)
	}
	return s
}

// burns returns the fast- and slow-window burns: each window's mean
// charge over the planned per-charge spend. The caller holds b.mu and
// has observed at least one charge; a window not yet full averages
// over the charges it has.
func (b *BurnAlerter) burns() (fast, slow float64) {
	plan := float64(b.cfg.EnvelopeUnits) / float64(b.cfg.HorizonCharges)
	fastN := min(b.n, uint64(b.cfg.FastWindow))
	slowN := min(b.n, uint64(len(b.ring)))
	return float64(b.fastSum) / float64(fastN) / plan, float64(b.slowSum) / float64(slowN) / plan
}

// BurnMetrics mirrors the alerter onto the registry.
type BurnMetrics struct {
	Alerts        *Counter // rising-edge alert count
	AlertActive   *Gauge   // 1 while the alert condition holds
	FastBurnMilli *Gauge   // fast-window burn, milli-multiples of plan
	SlowBurnMilli *Gauge   // slow-window burn, milli-multiples of plan
}

// NewBurnMetrics registers (or re-binds) the burn-alerter metric
// schema.
func NewBurnMetrics(r *Registry) *BurnMetrics {
	return &BurnMetrics{
		Alerts:        r.Counter("burn.alerts"),
		AlertActive:   r.Gauge("burn.alert_active"),
		FastBurnMilli: r.Gauge("burn.fast_burn_milli"),
		SlowBurnMilli: r.Gauge("burn.slow_burn_milli"),
	}
}
