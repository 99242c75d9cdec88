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
	// Degraded reports that the resampling guard exhausted its draw
	// budget and fell back to the thresholding clamp (fail-closed
	// behaviour under a faulty or adversarial RNG; see DESIGN.md §8).
	Degraded bool
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

// Baseline is the naive fixed-point implementation of Section III-A:
// the FxP Laplace RNG's output is added to the sensor value with no
// guard. Its utility matches the ideal mechanism, but its worst-case
// privacy loss is infinite (Analyzer proves this).
type Baseline struct {
	par Params
	rng *laplace.Sampler
}

// NewBaseline builds the naive FxP mechanism. log == nil selects the
// CORDIC datapath. Invalid parameters are a returned error.
func NewBaseline(par Params, log laplace.LogUnit, src urng.Source) (*Baseline, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	rng, err := laplace.NewSampler(par.FxP(), log, src)
	if err != nil {
		return nil, err
	}
	return &Baseline{par: par, rng: rng}, nil
}

// Noise implements Mechanism.
func (m *Baseline) Noise(x float64) Result {
	y := m.par.QuantizeInput(x) + m.rng.SampleK()
	return Result{Value: m.par.StepValue(y), Step: y}
}

// Name implements Mechanism.
func (m *Baseline) Name() string { return "fxp-baseline" }

// Params returns the mechanism's parameters.
func (m *Baseline) Params() Params { return m.par }

// maxResampleDraws bounds the resampling loop. The acceptance region
// always contains the distribution's bulk (more than half the mass
// for any certified threshold), so an honest RNG hits this bound with
// probability below 2^-1000; reaching it indicates a faulty or
// adversarial RNG, and the mechanism degrades to the thresholding
// clamp instead of looping or panicking (fail closed; DESIGN.md §8).
const maxResampleDraws = 1024

// Resampling is the first guard of Section III-B: noise is redrawn
// until the noised output lies within [Lo − T, Hi + T]. With the
// threshold from GuardThreshold the worst-case privacy loss is
// bounded by n·ε.
type Resampling struct {
	par Params
	rng *laplace.Sampler
	t   int64 // threshold in steps
}

// NewResampling builds the resampling mechanism with threshold t
// expressed in steps of Δ (use GuardThreshold to compute the
// certified value). Invalid parameters or t < 0 are a returned error.
func NewResampling(par Params, t int64, log laplace.LogUnit, src urng.Source) (*Resampling, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, errors.New("core: negative resampling threshold")
	}
	rng, err := laplace.NewSampler(par.FxP(), log, src)
	if err != nil {
		return nil, err
	}
	return &Resampling{par: par, rng: rng, t: t}, nil
}

// Threshold returns the threshold in steps.
func (m *Resampling) Threshold() int64 { return m.t }

// Noise implements Mechanism. If the loop exhausts maxResampleDraws —
// impossible for an honest RNG, so in practice a faulty one — the
// last sample is clamped to the window edge (the thresholding guard's
// certified behaviour) and the result is marked Degraded.
func (m *Resampling) Noise(x float64) Result {
	xs := m.par.QuantizeInput(x)
	lo := m.par.LoSteps() - m.t
	hi := m.par.HiSteps() + m.t
	var y int64
	for i := 0; i < maxResampleDraws; i++ {
		y = xs + m.rng.SampleK()
		if y >= lo && y <= hi {
			return Result{Value: m.par.StepValue(y), Step: y, Resamples: i}
		}
	}
	if y < lo {
		y = lo
	} else {
		y = hi
	}
	return Result{Value: m.par.StepValue(y), Step: y, Resamples: maxResampleDraws,
		Clamped: true, Degraded: true}
}

// Name implements Mechanism.
func (m *Resampling) Name() string { return "resampling" }

// Params returns the mechanism's parameters.
func (m *Resampling) Params() Params { return m.par }

// Thresholding is the second guard of Section III-B: the noised
// output is clamped to [Lo − T, Hi + T]. The boundary values absorb
// the tail mass (Fig. 7); with the threshold from GuardThreshold
// the worst-case loss is bounded by n·ε. It
// needs exactly one noise draw, so it is the energy-efficient option.
type Thresholding struct {
	par Params
	rng *laplace.Sampler
	t   int64 // threshold in steps
}

// NewThresholding builds the thresholding mechanism with threshold t
// in steps of Δ (use GuardThreshold for the certified value).
// t == 0 degenerates into the randomized-response configuration of
// Section VI-E. Invalid parameters or t < 0 are a returned error.
func NewThresholding(par Params, t int64, log laplace.LogUnit, src urng.Source) (*Thresholding, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, errors.New("core: negative thresholding threshold")
	}
	rng, err := laplace.NewSampler(par.FxP(), log, src)
	if err != nil {
		return nil, err
	}
	return &Thresholding{par: par, rng: rng, t: t}, nil
}

// Threshold returns the threshold in steps.
func (m *Thresholding) Threshold() int64 { return m.t }

// Noise implements Mechanism.
func (m *Thresholding) Noise(x float64) Result {
	xs := m.par.QuantizeInput(x)
	y := xs + m.rng.SampleK()
	lo := m.par.LoSteps() - m.t
	hi := m.par.HiSteps() + m.t
	clamped := false
	if y < lo {
		y, clamped = lo, true
	}
	if y > hi {
		y, clamped = hi, true
	}
	return Result{Value: m.par.StepValue(y), Step: y, Clamped: clamped}
}

// Name implements Mechanism.
func (m *Thresholding) Name() string { return "thresholding" }

// Params returns the mechanism's parameters.
func (m *Thresholding) Params() Params { return m.par }

// ConstantTime is the timing-channel-safe resampling variant of
// Section IV-C: k candidate noise samples are drawn at once (one
// cycle with k parallel RNG datapaths); the first candidate landing
// inside the window is reported, and if all miss, the last candidate
// is clamped to the window edge it fell beyond. Latency is constant —
// the number of resamples no longer depends on the sensor value.
// GuardThreshold(par, GuardConstantTime, mult, k) gives the certified
// threshold.
type ConstantTime struct {
	par Params
	rng *laplace.Sampler
	t   int64
	k   int
}

// NewConstantTime builds the constant-time mechanism with threshold t
// (steps of Δ) and k parallel candidates. Invalid parameters, t < 0,
// or k < 1 are a returned error.
func NewConstantTime(par Params, t int64, k int, log laplace.LogUnit, src urng.Source) (*ConstantTime, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, errors.New("core: negative constant-time threshold")
	}
	if k < 1 {
		return nil, errors.New("core: need at least one candidate sample")
	}
	rng, err := laplace.NewSampler(par.FxP(), log, src)
	if err != nil {
		return nil, err
	}
	return &ConstantTime{par: par, rng: rng, t: t, k: k}, nil
}

// Threshold returns the threshold in steps.
func (m *ConstantTime) Threshold() int64 { return m.t }

// Candidates returns the parallel sample count k.
func (m *ConstantTime) Candidates() int { return m.k }

// Noise implements Mechanism. Resamples is always k−1 draws' worth of
// work but zero extra cycles; Clamped reports the all-missed
// fallback.
func (m *ConstantTime) Noise(x float64) Result {
	xs := m.par.QuantizeInput(x)
	lo := m.par.LoSteps() - m.t
	hi := m.par.HiSteps() + m.t
	var y int64
	for i := 0; i < m.k; i++ {
		y = xs + m.rng.SampleK()
		if y >= lo && y <= hi {
			return Result{Value: m.par.StepValue(y), Step: y}
		}
	}
	if y < lo {
		y = lo
	} else {
		y = hi
	}
	return Result{Value: m.par.StepValue(y), Step: y, Clamped: true}
}

// Name implements Mechanism.
func (m *ConstantTime) Name() string { return "constant-time" }

// Params returns the mechanism's parameters.
func (m *ConstantTime) Params() Params { return m.par }

// RandomizedResponse is the DP-Box's categorical mode (Section VI-E):
// thresholding with threshold zero plus a 1-bit output stage that
// rounds the clamped value to the nearest of {Lo, Hi}. For binary
// inputs this is exactly Warner's randomized response with flip
// probability q = Pr[x + n crosses the midpoint].
type RandomizedResponse struct {
	par Params
	rng *laplace.Sampler
}

// NewRandomizedResponse builds the categorical mechanism. Inputs are
// snapped to the nearer of {Lo, Hi}. Invalid parameters are a
// returned error.
func NewRandomizedResponse(par Params, log laplace.LogUnit, src urng.Source) (*RandomizedResponse, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	rng, err := laplace.NewSampler(par.FxP(), log, src)
	if err != nil {
		return nil, err
	}
	return &RandomizedResponse{par: par, rng: rng}, nil
}

// Noise implements Mechanism. The result Value is always Lo or Hi.
func (m *RandomizedResponse) Noise(x float64) Result {
	// Snap input to the nearer category.
	xs := m.par.LoSteps()
	if x-m.par.Lo > m.par.Hi-x {
		xs = m.par.HiSteps()
	}
	y := xs + m.rng.SampleK()
	mid := float64(m.par.LoSteps()+m.par.HiSteps()) / 2
	v, step := m.par.Lo, m.par.LoSteps()
	if float64(y) > mid {
		v, step = m.par.Hi, m.par.HiSteps()
	}
	return Result{Value: v, Step: step, Clamped: true}
}

// Name implements Mechanism.
func (m *RandomizedResponse) Name() string { return "randomized-response" }

// Params returns the mechanism's parameters.
func (m *RandomizedResponse) Params() Params { return m.par }

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
