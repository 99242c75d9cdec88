// Package budget implements the paper's privacy budget control
// algorithm (Algorithm 1, Section III-C): per-request privacy-loss
// charges that depend on which segment of the output range the noised
// value falls in, caching once the budget is exhausted, and periodic
// budget replenishment as configured at secure boot.
//
// The charging bands come from the exact per-output loss analysis in
// internal/core (the staircase of Fig. 8), so the accumulated charge
// is a true upper bound on the privacy loss actually incurred — the
// property a simple request counter cannot provide on fixed-point
// hardware, where the loss is output-dependent.
package budget

import (
	"errors"
	"fmt"
	"math"

	"ulpdp/internal/core"
	"ulpdp/internal/laplace"
	"ulpdp/internal/obs"
	"ulpdp/internal/urng"
)

// Mode selects which guard the controller applies to out-of-band
// outputs, mirroring the DP-Box's Set Threshold toggle.
type Mode int

const (
	// Thresholding clamps out-of-band outputs to the band edge and
	// charges the top multiplier (the `y = M+n2 if tmp > M+n2` arm of
	// Algorithm 1).
	Thresholding Mode = iota
	// Resampling redraws the noise until the output falls inside the
	// band (the resampling variant described below Algorithm 1).
	Resampling
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Resampling {
		return "resampling"
	}
	return "thresholding"
}

// Config parameterizes a Controller.
type Config struct {
	// Budget is the total privacy budget B in nats. Must be positive.
	Budget float64
	// Mult is the worst-case loss multiplier the guard threshold is
	// computed for (> 1). Defaults to 2 if zero.
	Mult float64
	// Multipliers are the ascending charging-band multipliers of
	// Algorithm 1. Defaults to {1.5, 2} capped by Mult.
	Multipliers []float64
	// Mode selects thresholding (default) or resampling.
	Mode Mode
	// ReplenishPeriod is the number of ticks between budget resets;
	// 0 disables replenishment. Configured once at boot, like the
	// DP-Box's initialization phase.
	ReplenishPeriod uint64
	// Log selects the log datapath (nil = CORDIC).
	Log laplace.LogUnit
	// Source supplies uniform randomness (nil = Taus88 seeded with 1).
	Source urng.Source
	// Obs is an optional telemetry plane; nil costs one nil check per
	// request and nothing else.
	Obs *Metrics
	// ObsChannel indexes the privacy odometer for this controller.
	ObsChannel int
}

// ErrExhausted is returned when the budget is spent and no cached
// response exists yet.
var ErrExhausted = errors.New("budget: privacy budget exhausted and no cached response")

// Response is one answer to a sensor data request.
type Response struct {
	// Value is the noised output.
	Value float64
	// Charged is the privacy loss deducted for this response (0 when
	// served from cache).
	Charged float64
	// FromCache reports that the cached output was replayed because
	// the budget is exhausted.
	FromCache bool
	// Resamples counts extra noise draws (resampling mode only).
	Resamples int
}

// Controller is the budget-control engine embedded in the DP-Box.
type Controller struct {
	cfg   Config
	mech  core.Mechanism // *core.Thresholding or *core.Resampling
	sched core.ChargeSchedule

	remaining float64
	cache     float64
	cached    bool
	ticks     uint64
}

// New builds a Controller. The guard threshold and charging bands are
// derived from the exact loss analysis of par.
func New(par core.Params, cfg Config) (*Controller, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.Budget > 0) {
		return nil, fmt.Errorf("budget: non-positive budget %g", cfg.Budget)
	}
	if cfg.Mult == 0 {
		cfg.Mult = 2
	}
	if cfg.Mult <= 1 {
		return nil, fmt.Errorf("budget: loss multiplier %g must exceed 1", cfg.Mult)
	}
	if cfg.Source == nil {
		cfg.Source = urng.NewTaus88(1)
	}
	guard := core.GuardThresholding
	if cfg.Mode == Resampling {
		guard = core.GuardResampling
	}
	threshold, err := core.GuardThreshold(par, guard, cfg.Mult, 0)
	if err != nil {
		return nil, err
	}
	mults := cfg.Multipliers
	if mults == nil {
		for _, m := range []float64{1.5, 2} {
			if m < cfg.Mult {
				mults = append(mults, m)
			}
		}
	}
	for i, m := range mults {
		if m <= 1 || m >= cfg.Mult {
			return nil, fmt.Errorf("budget: multiplier %g (index %d) outside (1, %g)", m, i, cfg.Mult)
		}
		if i > 0 && m <= mults[i-1] {
			return nil, fmt.Errorf("budget: multipliers must be ascending")
		}
	}
	c := &Controller{
		cfg:       cfg,
		sched:     core.NewChargeSchedule(par, guard, threshold, cfg.Mult, mults),
		remaining: cfg.Budget,
	}
	if guard == core.GuardResampling {
		c.mech, err = core.NewResampling(par, threshold, cfg.Log, cfg.Source)
	} else {
		c.mech, err = core.NewThresholding(par, threshold, cfg.Log, cfg.Source)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Threshold returns the guard threshold in steps of Δ.
func (c *Controller) Threshold() int64 { return c.sched.Threshold }

// Remaining returns the unspent budget in nats.
func (c *Controller) Remaining() float64 { return c.remaining }

// Segments returns the charging bands in use.
func (c *Controller) Segments() []core.Segment {
	out := make([]core.Segment, len(c.sched.Segments))
	copy(out, c.sched.Segments)
	return out
}

// InteriorCharge returns the ε_RNG charge for in-range outputs.
func (c *Controller) InteriorCharge() float64 { return c.sched.Charge(0) }

// ChargeFor returns the privacy loss Algorithm 1 charges for a noised
// output at step y (before any clamping).
func (c *Controller) ChargeFor(y int64) float64 {
	return c.sched.Charge(c.sched.Band(y))
}

// Tick advances the controller's notion of time by n ticks,
// replenishing the budget each time the configured period elapses.
func (c *Controller) Tick(n uint64) {
	if c.cfg.ReplenishPeriod == 0 {
		return
	}
	c.ticks += n
	for c.ticks >= c.cfg.ReplenishPeriod {
		c.ticks -= c.cfg.ReplenishPeriod
		c.remaining = c.cfg.Budget
		if m := c.cfg.Obs; m != nil {
			m.Replenishes.Inc()
			m.Odometer.Replenish()
		}
	}
}

// Request answers one sensor data request for the private value x,
// per Algorithm 1: noise, segment-charge, guard, decrement; or replay
// the cache when the budget is spent.
func (c *Controller) Request(x float64) (Response, error) {
	if c.remaining <= 0 {
		if !c.cached {
			return Response{}, ErrExhausted
		}
		if m := c.cfg.Obs; m != nil {
			m.Requests.Inc()
			m.CacheReplays.Inc()
		}
		return Response{Value: c.cache, FromCache: true}, nil
	}
	r := c.mech.Noise(x)
	if r.Degraded {
		// The resampling guard exhausted its draws: a faulty URNG.
		// Fail closed instead of charging for the degraded clamp.
		return Response{}, errors.New("budget: resampling did not converge")
	}
	band := c.sched.Band(r.Step)
	charge := c.sched.Charge(band)
	c.remaining = math.Max(0, c.remaining-charge)
	c.cache, c.cached = r.Value, true
	if m := c.cfg.Obs; m != nil {
		m.Requests.Inc()
		if r.Resamples > 0 {
			m.Resamples.Add(uint64(r.Resamples))
		}
		m.Odometer.Charge(c.cfg.ObsChannel, charge)
		m.ChargeMicroNat.Observe(obs.MicroNats(charge))
		m.ChargeBands.Observe(int64(band))
	}
	return Response{Value: r.Value, Charged: charge, Resamples: r.Resamples}, nil
}
