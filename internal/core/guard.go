package core

import (
	"fmt"
	"math"

	"ulpdp/internal/laplace"
)

// Guard selects one of the out-of-range guards of Section III-B.
type Guard int

const (
	// GuardThresholding clamps out-of-window outputs to the window
	// edge.
	GuardThresholding Guard = iota
	// GuardResampling redraws the noise until the output lands in the
	// window.
	GuardResampling
	// GuardConstantTime draws a fixed number of candidates per report
	// and takes the first in-window one (Section IV-C).
	GuardConstantTime
)

// GuardThreshold is the guard policy: the threshold (in steps of Δ)
// a guard runs at for worst-case loss mult·ε. Every mechanism, budget
// controller and DP-Box takes its threshold from here. Thresholding
// and resampling use the closed forms ThresholdingThreshold and
// ResamplingThreshold; constant-time resampling, which has no closed
// form, uses the exact search over candidates parallel draws (the
// other guards ignore candidates).
//
// The result is memoized on par's cached Analyzer (see cache.go).
// GuardThreshold never builds one itself, so a closed-form threshold
// costs no PMF: it memoizes once an analyzer for par is cached (the
// constant-time search caches one).
func GuardThreshold(par Params, guard Guard, mult float64, candidates int) (int64, error) {
	if guard < GuardThresholding || guard > GuardConstantTime {
		return 0, fmt.Errorf("core: unknown guard %d", int(guard))
	}
	if guard != GuardConstantTime {
		candidates = 0
	}
	key := planKey{kind: planThreshold, guard: guard, candidates: candidates, mult: math.Float64bits(mult)}
	an := cachedAnalyzerIfPresent(par)
	if an != nil {
		if p, ok := an.plans.get(key); ok {
			return p.th, p.err
		}
	}
	var th int64
	var err error
	switch guard {
	case GuardThresholding:
		th, err = ThresholdingThreshold(par, mult)
	case GuardResampling:
		th, err = ResamplingThreshold(par, mult)
	default:
		th, err = ExactConstantTimeThreshold(par, mult, candidates)
	}
	if an == nil {
		an = cachedAnalyzerIfPresent(par)
	}
	if an != nil {
		an.plans.put(key, plan{th: th, err: err})
	}
	return th, err
}

// ChargeSchedule is Algorithm 1's output-dependent charge table for
// one guard at one threshold (Fig. 8). Outputs are split into bands
// by their raw step y: band 0 is the sensor range [Lo, Hi], band i in
// 1..len(Segments) holds outputs at most Segments[i-1].Offset steps
// beyond it, and band len(Segments)+1 everything further out. It is
// the one place the bands and their charges are derived:
// budget.Controller charges them in nats, the DP-Box rounds them up
// into its budget units.
//
// Schedules are memoized per configuration, so every copy of one
// shares its Segments slice: Segments is read-only, and a caller that
// hands it out must copy it.
type ChargeSchedule struct {
	// Lo and Hi bound the sensor range in steps of Δ.
	Lo, Hi int64
	// Eps is the per-report ε the segment multipliers scale.
	Eps float64
	// Threshold is the guard threshold in steps of Δ.
	Threshold int64
	// Segments are the charging bands beyond the range.
	Segments []Segment
	// ZSlack is the resampling guards' renormalization slack, folded
	// into every band below the top (0 for thresholding).
	ZSlack float64
	// Interior is the worst in-range per-output loss plus ZSlack.
	Interior float64
	// Top is the charge beyond the last segment. It caps every band.
	Top float64
}

// NewChargeSchedule derives the schedule for a guard running at a
// threshold certified at mult·ε (one from GuardThreshold), so Top is
// mult·ε. The result is memoized on par's cached Analyzer (see
// cache.go).
//
// The bands come from the thresholding per-output loss profile. The
// resampling guards renormalize each input's conditional distribution
// by its acceptance mass Z(x), which inflates interior per-output
// losses by at most ln(Zmax/Zmin) <= -ln(1 - 2·Pr[|n| >= threshold]);
// that slack is folded into the charges so they stay sound. The top
// charge is the certified bound and needs no slack.
func NewChargeSchedule(par Params, guard Guard, threshold int64, mult float64, multipliers []float64) ChargeSchedule {
	an := CachedAnalyzer(par)
	key, keyed := scheduleKey(guard, threshold, mult, multipliers)
	if keyed {
		if p, ok := an.plans.get(key); ok {
			return p.sched
		}
	}
	s := an.chargeSchedule(guard, threshold, mult, multipliers)
	if keyed {
		an.plans.put(key, plan{sched: s})
	}
	return s
}

// chargeSchedule is NewChargeSchedule's derivation, unmemoized.
func (a *Analyzer) chargeSchedule(guard Guard, threshold int64, mult float64, multipliers []float64) ChargeSchedule {
	par := a.par
	s := ChargeSchedule{
		Lo: par.LoSteps(), Hi: par.HiSteps(), Eps: par.Eps,
		Threshold: threshold,
		Segments:  a.Segments(threshold, multipliers),
		Top:       mult * par.Eps,
	}
	if guard != GuardThresholding {
		s.ZSlack = -math.Log1p(-2 * laplace.NewDist(par.FxP()).TailMag(threshold))
	}
	s.Interior = a.InteriorLoss(threshold) + s.ZSlack
	return s
}

// Bands returns the number of bands: the interior, one per segment
// and the top.
func (s *ChargeSchedule) Bands() int { return len(s.Segments) + 2 }

// Band returns the band of a raw (pre-clamp) output step y.
func (s *ChargeSchedule) Band(y int64) int {
	var offset int64
	switch {
	case y > s.Hi:
		offset = y - s.Hi
	case y < s.Lo:
		offset = s.Lo - y
	default:
		return 0
	}
	for i, seg := range s.Segments {
		if offset <= seg.Offset {
			return i + 1
		}
	}
	return len(s.Segments) + 1
}

// Charge returns band b's charge in nats.
func (s *ChargeSchedule) Charge(b int) float64 {
	c := s.Top
	switch {
	case b == 0:
		c = s.Interior
	case b <= len(s.Segments):
		c = s.Segments[b-1].Mult*s.Eps + s.ZSlack
	}
	return math.Min(c, s.Top)
}

// ChargeUnit is the DP-Box budget's fixed-point resolution: one
// sixteenth of a nat. Charges are rounded up to it, keeping the
// accounting sound.
const ChargeUnit = 1.0 / 16

// ChargeUnits rounds a charge in nats up to whole ChargeUnits.
func ChargeUnits(nats float64) int64 {
	// Infinite or absurd losses saturate to the budget-draining
	// charge: converting +Inf to int64 directly would wrap negative
	// and *credit* the ledger.
	if math.IsNaN(nats) || nats >= float64(math.MaxInt32)*ChargeUnit {
		return math.MaxInt32
	}
	return int64(math.Ceil(nats / ChargeUnit))
}

// DefaultMult is the loss multiplier the core mechanisms' watchdog
// clamp is certified at, the DP-Box's and budget.Controller's default.
const DefaultMult = 2

// GuardSpec names one guard plan. Mult is the certificate of a
// negative (certified) Threshold, the top charge and the watchdog's
// degrade clamp. An uncharged plan charges nothing and never builds
// par's analyzer. RR is the randomized-response 1-bit output stage
// (thresholding at threshold 0, Section VI-E); Disabled runs no guard
// at all, charged a flat ε (the naive mode of Fig. 12).
type GuardSpec struct {
	Guard       Guard
	Threshold   int64 // in steps of Δ; negative = GuardThreshold's
	Candidates  int   // constant-time parallel draws
	Mult        float64
	Multipliers []float64 // Algorithm 1's charging bands
	Charged     bool
	RR          bool
	Disabled    bool
}

// GuardPlan is the whole out-of-range guard of one configuration: the
// window, the charge table, the resample watchdog and its degrade
// clamp, and the RR output stage. Every noise producer, the core
// mechanisms and the DP-Box alike, runs its draws through Step, so
// each guard decision is made in one place. Plans are memoized per
// configuration (see cache.go) and shared: a plan is read-only.
//
// The Schedule's Lo, Hi and Threshold fix the window [Lo − Threshold,
// Hi + Threshold]; an uncharged plan sets only those, so it charges 0
// in two bands. Units is each band's charge in ChargeUnits. Cap is the
// resampling guard's watchdog, the missed draws after which a report
// degrades (0 for the other guards): it is clamped at
// DegradeThreshold, the thresholding threshold certified at Mult·ε,
// and pays at least DegradeUnits = Mult·ε, or is withheld without
// DegradeOK.
type GuardPlan struct {
	Schedule         ChargeSchedule
	Units            []int64
	Guard            Guard
	Candidates       int
	Cap              int
	DegradeThreshold int64
	DegradeUnits     int64
	DegradeOK        bool
	RR               bool
	Disabled         bool
}

// Decision is what the guard makes of one draw.
type Decision uint8

// The guard's decisions.
const (
	StepAccept   Decision = iota // release the output as it is
	StepRedraw                   // reject the draw: the guard needs another
	StepClamp                    // release it clamped to the window (or RR-snapped)
	StepDegrade                  // watchdog tripped: clamp at DegradeThreshold, top charge
	StepWithhold                 // watchdog tripped, no certified clamp: release nothing
)

// GuardStep is one guard decision.
type GuardStep struct {
	Decision Decision
	// Y is the released output in steps (the range's lower bound when
	// withheld); Band and Units are its charge.
	Y     int64
	Band  int
	Units int64
}

// NewGuardPlan returns the plan for spec, or the error of a spec with
// no certified threshold. The result is memoized on par's cached
// Analyzer (see cache.go); a charged plan builds that analyzer, an
// uncharged one never does.
func NewGuardPlan(par Params, spec GuardSpec) (*GuardPlan, error) {
	if spec.Guard != GuardConstantTime {
		spec.Candidates = 0
	}
	key, keyed := scheduleKey(spec.Guard, spec.Threshold, spec.Mult, spec.Multipliers)
	key.kind, key.candidates = planGuard, spec.Candidates
	key.charged, key.rr, key.disabled = spec.Charged, spec.RR, spec.Disabled
	var an *Analyzer
	if spec.Charged {
		an = CachedAnalyzer(par)
	} else {
		an = cachedAnalyzerIfPresent(par)
	}
	if an != nil && keyed {
		if p, ok := an.plans.get(key); ok {
			return p.guard, p.err
		}
	}
	g, err := newGuardPlan(par, spec)
	if an == nil {
		an = cachedAnalyzerIfPresent(par)
	}
	if an != nil && keyed {
		an.plans.put(key, plan{guard: g, err: err})
	}
	return g, err
}

// newGuardPlan is NewGuardPlan's derivation, unmemoized.
func newGuardPlan(par Params, spec GuardSpec) (*GuardPlan, error) {
	g := &GuardPlan{Guard: spec.Guard, Candidates: spec.Candidates, RR: spec.RR, Disabled: spec.Disabled}
	th := spec.Threshold
	switch {
	case spec.Disabled:
		// The RNG's full range and a flat nominal charge (and no
		// guarantee: the entire point of Fig. 12).
		g.Schedule = ChargeSchedule{Lo: par.LoSteps(), Hi: par.HiSteps(), Eps: par.Eps,
			Threshold: laplace.NewDist(par.FxP()).MaxK(), Interior: par.Eps, Top: par.Eps}
	case th < 0:
		var err error
		if th, err = GuardThreshold(par, spec.Guard, spec.Mult, spec.Candidates); err != nil {
			return nil, err
		}
		fallthrough
	default:
		g.Schedule = ChargeSchedule{Lo: par.LoSteps(), Hi: par.HiSteps(), Eps: par.Eps, Threshold: th}
		if !spec.Charged {
			break
		}
		g.Schedule = NewChargeSchedule(par, spec.Guard, th, spec.Mult, spec.Multipliers)
		if spec.Threshold >= 0 {
			// An explicit threshold carries no certificate, so the top
			// charge comes from the exact analysis. An infinite worst
			// case (a threshold into the hole region) drains the whole
			// budget on first use: the honest price of an uncertified
			// configuration.
			worst := CachedAnalyzer(par).ThresholdingLoss(th).MaxLoss
			g.Schedule.Top = math.Max(worst, g.Schedule.Interior)
		}
	}
	g.Units = make([]int64, g.Schedule.Bands())
	for i := range g.Units {
		g.Units[i] = ChargeUnits(g.Schedule.Charge(i))
	}
	if spec.Guard == GuardResampling && !spec.Disabled {
		g.Cap = watchdogCap(laplace.NewDist(par.FxP()).TailMag(th + 1))
		if dth, err := GuardThreshold(par, GuardThresholding, spec.Mult, 0); err == nil {
			g.DegradeThreshold, g.DegradeUnits, g.DegradeOK = dth, ChargeUnits(spec.Mult*par.Eps), true
		}
	}
	return g, nil
}

// watchdogCap converts the per-draw miss probability of the resampling
// guard into the watchdog's cap: the smallest n with pMiss^n ≤ 2^-64,
// clamped to [4, 2048]. An honest URNG therefore trips the watchdog
// with probability at most 2^-64 per report; any trip in practice
// indicates a faulty or adversarial RNG, and the report degrades to
// the certified thresholding clamp instead of looping forever.
func watchdogCap(pMiss float64) int {
	const failBits = 64
	if !(pMiss > 0) {
		// A miss is impossible for an honest RNG; keep a small cap as
		// a backstop against fault-induced misses.
		return 4
	}
	if pMiss >= 1 {
		return 2048
	}
	return int(min(max(math.Ceil(failBits*math.Ln2/-math.Log(pMiss)), 4), 2048))
}

// Charge returns the band of a raw (pre-guard) output step y and its
// charge in ChargeUnits.
func (g *GuardPlan) Charge(y int64) (band int, units int64) {
	band = g.Schedule.Band(y)
	return band, g.Units[band]
}

// Step is the guard's per-draw rule: it takes one draw's raw output y,
// after misses earlier draws of the same report missed the window, and
// decides it. Resampling redraws a miss until the watchdog's Cap-th
// one, which degrades (or withholds); constant-time redraws until the
// last of its Candidates, which is clamped; thresholding clamps, then
// applies the RR stage; a disabled guard accepts everything.
func (g *GuardPlan) Step(y int64, misses int) GuardStep {
	s := &g.Schedule
	lo, hi := s.Lo-s.Threshold, s.Hi+s.Threshold
	switch {
	case g.Disabled || g.Guard != GuardThresholding && y >= lo && y <= hi:
		return g.release(StepAccept, y, y)
	case g.Guard == GuardResampling && misses+1 < g.Cap:
		return GuardStep{Decision: StepRedraw}
	case g.Guard == GuardResampling && !g.DegradeOK:
		return GuardStep{Decision: StepWithhold, Y: s.Lo}
	case g.Guard == GuardResampling:
		// A degraded report pays the top band, and at least Mult·ε,
		// which the analyzer certifies as the clamp's worst case.
		top := len(g.Units) - 1
		y = min(max(y, s.Lo-g.DegradeThreshold), s.Hi+g.DegradeThreshold)
		return GuardStep{Decision: StepDegrade, Y: y, Band: top, Units: max(g.Units[top], g.DegradeUnits)}
	case g.Guard == GuardConstantTime && misses+1 < g.Candidates:
		return GuardStep{Decision: StepRedraw}
	}
	c := min(max(y, lo), hi)
	if g.RR {
		c = s.Lo
		if 2*y > s.Lo+s.Hi {
			c = s.Hi
		}
	}
	d := StepAccept
	if g.RR || c != y {
		d = StepClamp
	}
	return g.release(d, y, c)
}

// release is a released step: output out, charged for the raw y.
func (g *GuardPlan) release(d Decision, y, out int64) GuardStep {
	band, units := g.Charge(y)
	return GuardStep{Decision: d, Y: out, Band: band, Units: units}
}

// result is a final step as a mechanism Result; the caller sets
// Resamples.
func (s GuardStep) result(par Params) Result {
	return Result{Value: par.StepValue(s.Y), Step: s.Y,
		Clamped:  s.Decision == StepClamp || s.Decision == StepDegrade,
		Degraded: s.Decision >= StepDegrade, Withheld: s.Decision == StepWithhold}
}
