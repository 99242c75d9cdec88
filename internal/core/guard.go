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
	yLo, losses := a.lossSweep(threshold) // one sweep serves both
	s := ChargeSchedule{
		Lo: par.LoSteps(), Hi: par.HiSteps(), Eps: par.Eps,
		Threshold: threshold,
		Segments:  a.segments(threshold, yLo, losses, multipliers),
		Top:       mult * par.Eps,
	}
	if guard != GuardThresholding {
		s.ZSlack = -math.Log1p(-2 * laplace.NewDist(par.FxP()).TailMag(threshold))
	}
	s.Interior = a.interiorLoss(yLo, losses) + s.ZSlack
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
