package core

import (
	"errors"
	"math"

	"ulpdp/internal/laplace"
	"ulpdp/internal/urng"
)

// Result is one noised report.
type Result struct {
	// Value is the noised output.
	Value float64
	// Step is Value in steps of Δ for the fixed-point mechanisms (0
	// for the ideal one).
	Step int64
	// Resamples counts how many extra noise draws the resampling
	// guard needed (always 0 for other mechanisms). Each resample
	// costs one additional hardware cycle.
	Resamples int
	// Clamped reports whether the thresholding guard clamped the
	// output to a boundary.
	Clamped bool
	// Degraded reports that the resampling guard's watchdog tripped:
	// the draws kept missing the window, so the output fell back to
	// the certified thresholding clamp (fail-closed behaviour under a
	// faulty or adversarial RNG; see DESIGN.md §8).
	Degraded bool
	// Withheld reports a degraded report with no certified clamp to
	// fall back to: Value is the range's lower bound, a constant that
	// carries nothing about the input.
	Withheld bool
}

// Mechanism is a local-DP noising mechanism for scalar sensor values.
type Mechanism interface {
	// Noise perturbs one sensor value.
	Noise(x float64) Result
	// Name identifies the mechanism in reports.
	Name() string
}

// IdealLaplace is the reference mechanism: real-valued Lap(d/ε) noise
// added to the (quantized) sensor value. It guarantees ε-LDP exactly
// but is unimplementable on finite-precision hardware — the point of
// the paper.
type IdealLaplace struct {
	par Params
	src *laplace.Ideal
}

// NewIdealLaplace returns the reference mechanism. Parameters are
// caller configuration: invalid ones are a returned error, not a
// panic (DESIGN.md §6).
func NewIdealLaplace(par Params, seed uint64) (*IdealLaplace, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	src, err := laplace.NewIdeal(par.Lambda(), seed)
	if err != nil {
		return nil, err
	}
	return &IdealLaplace{par: par, src: src}, nil
}

// Noise implements Mechanism.
func (m *IdealLaplace) Noise(x float64) Result {
	xq := m.par.StepValue(m.par.QuantizeInput(x))
	return Result{Value: xq + m.src.Sample()}
}

// Name implements Mechanism.
func (m *IdealLaplace) Name() string { return "ideal" }

// Params returns the mechanism's parameters.
func (m *IdealLaplace) Params() Params { return m.par }

// Guarded is a fixed-point mechanism: the FxP Laplace RNG's output
// is added to the quantized sensor value and every draw goes through
// one guard plan (GuardPlan.Step). The plan is uncharged: charging is
// the budget controller's. The constructors below select the guard.
type Guarded struct {
	par  Params
	rng  *laplace.Sampler
	plan *GuardPlan
}

// NewGuarded builds the mechanism running spec's guard, uncharged.
// A negative Threshold selects the one certified at spec.Mult, which
// is also the certificate of the watchdog's clamp. log == nil selects
// the CORDIC datapath. Invalid parameters, or a spec with no certified
// threshold, are a returned error.
func NewGuarded(par Params, spec GuardSpec, log laplace.LogUnit, src urng.Source) (*Guarded, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	rng, err := laplace.NewSampler(par.FxP(), log, src)
	if err != nil {
		return nil, err
	}
	plan, err := NewGuardPlan(par, spec)
	if err != nil {
		return nil, err
	}
	return &Guarded{par: par, rng: rng, plan: plan}, nil
}

// newExplicit is NewGuarded at an explicit threshold, with the
// watchdog's clamp certified at DefaultMult. A negative threshold is
// a returned error.
func newExplicit(par Params, spec GuardSpec, log laplace.LogUnit, src urng.Source) (*Guarded, error) {
	if spec.Threshold < 0 {
		return nil, errors.New("core: negative guard threshold")
	}
	spec.Mult = DefaultMult
	return NewGuarded(par, spec, log, src)
}

// NewBaseline builds the naive fixed-point implementation of Section
// III-A: no guard. Its utility matches the ideal mechanism, but its
// worst-case privacy loss is infinite (Analyzer proves this).
func NewBaseline(par Params, log laplace.LogUnit, src urng.Source) (*Guarded, error) {
	return newExplicit(par, GuardSpec{Disabled: true}, log, src)
}

// NewResampling builds the first guard of Section III-B: noise is
// redrawn until the noised output lies within [Lo − t, Hi + t], t in
// steps of Δ (use GuardThreshold for the certified value, which bounds
// the worst-case loss by n·ε). It runs the DP-Box's resample watchdog:
// after the plan's Cap missed draws (probability at most 2^-64 per
// report for an honest RNG, so in practice a faulty one) the last
// sample is clamped at the thresholding threshold certified at
// DefaultMult·ε and the result is marked Degraded; with no such
// threshold the report is Withheld.
func NewResampling(par Params, t int64, log laplace.LogUnit, src urng.Source) (*Guarded, error) {
	return newExplicit(par, GuardSpec{Guard: GuardResampling, Threshold: t}, log, src)
}

// NewThresholding builds the second guard of Section III-B: the noised
// output is clamped to [Lo − t, Hi + t]. The boundary values absorb
// the tail mass (Fig. 7); with the threshold from GuardThreshold the
// worst-case loss is bounded by n·ε. It needs exactly one noise draw,
// so it is the energy-efficient option.
func NewThresholding(par Params, t int64, log laplace.LogUnit, src urng.Source) (*Guarded, error) {
	return newExplicit(par, GuardSpec{Guard: GuardThresholding, Threshold: t}, log, src)
}

// Threshold returns the threshold in steps.
func (m *Guarded) Threshold() int64 { return m.plan.Schedule.Threshold }

// Candidates returns the constant-time parallel sample count k (0 for
// the other guards).
func (m *Guarded) Candidates() int { return m.plan.Candidates }

// Params returns the mechanism's parameters.
func (m *Guarded) Params() Params { return m.par }

// Noise implements Mechanism. Resamples counts the resampling guard's
// missed draws (each one extra hardware cycle); the constant-time
// candidates cost draws but no cycles.
func (m *Guarded) Noise(x float64) Result {
	xs := m.par.QuantizeInput(x)
	for misses := 0; ; misses++ {
		s := m.plan.Step(xs+m.rng.SampleK(), misses)
		if s.Decision == StepRedraw {
			continue
		}
		r := s.result(m.par)
		if m.plan.Guard == GuardResampling {
			r.Resamples = misses
			if r.Degraded {
				r.Resamples++ // the draw that tripped the watchdog missed too
			}
		}
		return r
	}
}

// Name implements Mechanism.
func (m *Guarded) Name() string {
	switch {
	case m.plan.Disabled:
		return "fxp-baseline"
	case m.plan.Guard == GuardResampling:
		return "resampling"
	case m.plan.Guard == GuardConstantTime:
		return "constant-time"
	}
	return "thresholding"
}

// RandomizedResponse is the DP-Box's categorical mode (Section VI-E):
// thresholding with threshold zero plus a 1-bit output stage that
// rounds the clamped value to the nearest of {Lo, Hi}. For binary
// inputs this is exactly Warner's randomized response with flip
// probability q = Pr[x + n crosses the midpoint].
type RandomizedResponse struct{ Guarded }

// NewRandomizedResponse builds the categorical mechanism. Inputs are
// snapped to the nearer of {Lo, Hi}. Invalid parameters are a
// returned error.
func NewRandomizedResponse(par Params, log laplace.LogUnit, src urng.Source) (*RandomizedResponse, error) {
	m, err := newExplicit(par, GuardSpec{RR: true}, log, src)
	if err != nil {
		return nil, err
	}
	return &RandomizedResponse{*m}, nil
}

// Noise implements Mechanism. The result Value is always Lo or Hi.
func (m *RandomizedResponse) Noise(x float64) Result {
	// Snap input to the nearer category.
	xs := m.par.LoSteps()
	if x-m.par.Lo > m.par.Hi-x {
		xs = m.par.HiSteps()
	}
	r := m.plan.Step(xs+m.rng.SampleK(), 0).result(m.par)
	r.Value = m.par.Lo
	if r.Step != m.par.LoSteps() {
		r.Value = m.par.Hi
	}
	return r
}

// Name implements Mechanism.
func (m *RandomizedResponse) Name() string { return "randomized-response" }

// FlipProbs returns the exact per-direction flip probabilities
// (qLoHi = Pr[report Hi | x = Lo], qHiLo = Pr[report Lo | x = Hi]),
// computed from the RNG's closed-form PMF. They differ only when the
// midpoint lies on the grid (even range), because a report exactly at
// the midpoint rounds to Lo.
func (m *RandomizedResponse) FlipProbs() (qLoHi, qHiLo float64) {
	d := laplace.NewDist(m.par.FxP())
	ds := m.par.RangeSteps()
	// x = Lo flips iff noise k > ds/2, i.e. k >= floor(ds/2)+1.
	qLoHi = d.TailMag(ds/2+1) / 2
	// x = Hi flips iff y <= mid, i.e. noise -k with k >= ceil(ds/2).
	qHiLo = d.TailMag((ds+1)/2) / 2
	return qLoHi, qHiLo
}

// RREpsilon returns the effective ε of the binary mechanism: the
// worst-case log likelihood ratio over both outputs and both inputs.
func (m *RandomizedResponse) RREpsilon() float64 {
	q1, q2 := m.FlipProbs()
	return math.Max(math.Log((1-q2)/q1), math.Log((1-q1)/q2))
}
