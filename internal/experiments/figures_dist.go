package experiments

import (
	"io"
	"math"

	"ulpdp/internal/core"
	"ulpdp/internal/laplace"
)

// fig4Params are the paper's Fig. 4 parameters: Lap(20) noise from a
// B_u = 17 URNG on a B_y = 12 grid with Δ = 10/2^5 (sensor range of
// length 10 at ε = 0.5).
var fig4Params = core.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}

// Fig4Point is one grid point of the Fig. 4 comparison.
type Fig4Point struct {
	// Noise is the value kΔ.
	Noise float64
	// Ideal is the ideal Laplace probability of the surrounding bin.
	Ideal float64
	// FxP is the exact FxP RNG probability mass at kΔ.
	FxP float64
}

// Fig4Result reproduces Fig. 4: the ideal Lap(20) distribution versus
// the exact fixed-point RNG PMF, with the zoomed tail region where
// they diverge (bounded range, zero-probability holes).
type Fig4Result struct {
	// Bulk samples the high-density region (|noise| <= 2λ).
	Bulk []Fig4Point
	// Tail samples the divergent region near the RNG's maximum.
	Tail []Fig4Point
	// MaxNoise is the FxP RNG's bound L = λ·B_u·ln2.
	MaxNoise float64
	// FirstHole is the smallest positive noise step with zero
	// probability (the Fig. 4(b) holes); -1 if none.
	FirstHole float64
	// HolesInTail counts zero-probability steps below the maximum.
	HolesInTail int
}

// Figure4 computes the Fig. 4 comparison.
func Figure4(cfg Config) (Fig4Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig4Result{}, err
	}
	par := fig4Params
	d := laplace.NewDist(par.FxP())
	lambda := par.Lambda()
	res := Fig4Result{MaxNoise: par.FxP().MaxNoise(), FirstHole: -1}

	maxK := d.MaxK()
	bulkK := int64(2 * lambda / par.Delta)
	stride := bulkK / 64
	if stride < 1 {
		stride = 1
	}
	for k := -bulkK; k <= bulkK; k += stride {
		x := float64(k) * par.Delta
		res.Bulk = append(res.Bulk, Fig4Point{
			Noise: x,
			Ideal: idealBin(x, par.Delta, lambda),
			FxP:   d.Prob(k),
		})
	}
	// Tail: the last 15% of the support, where quantization bites.
	start := maxK - maxK*15/100
	for k := start; k <= maxK; k++ {
		x := float64(k) * par.Delta
		res.Tail = append(res.Tail, Fig4Point{
			Noise: x,
			Ideal: idealBin(x, par.Delta, lambda),
			FxP:   d.Prob(k),
		})
	}
	if hole, ok := d.FirstZeroHole(); ok {
		res.FirstHole = float64(hole) * par.Delta
	}
	for k := int64(1); k < maxK; k++ {
		if d.Prob(k) == 0 {
			res.HolesInTail++
		}
	}
	return res, nil
}

// idealBin integrates the ideal Laplace density over one Δ bin.
func idealBin(x, delta, lambda float64) float64 {
	return laplace.CDF(x+delta/2, lambda) - laplace.CDF(x-delta/2, lambda)
}

// Print renders the result.
func (r Fig4Result) Print(w io.Writer) {
	fprintf(w, "Figure 4: ideal Lap(20) vs fixed-point RNG (Bu=17, By=12, Δ=0.3125)\n")
	fprintf(w, "max representable noise L = %.1f; first tail hole at %.1f; %d holes below L\n",
		r.MaxNoise, r.FirstHole, r.HolesInTail)
	fprintf(w, "\n(a) bulk (|n| <= 2λ): noise  ideal  fxp\n")
	for _, p := range sampleEvery(r.Bulk, 8) {
		fprintf(w, "%8.2f  %.3e  %.3e\n", p.Noise, p.Ideal, p.FxP)
	}
	fprintf(w, "\n(b) tail zoom: noise  ideal  fxp\n")
	for _, p := range sampleEvery(r.Tail, 6) {
		fprintf(w, "%8.2f  %.3e  %.3e\n", p.Noise, p.Ideal, p.FxP)
	}
}

func sampleEvery(ps []Fig4Point, n int) []Fig4Point {
	if n <= 1 || len(ps) <= n {
		return ps
	}
	out := make([]Fig4Point, 0, len(ps)/n+1)
	for i := 0; i < len(ps); i += n {
		out = append(out, ps[i])
	}
	return out
}

// GuardDistResult reproduces Figs. 6 and 7: the conditional noised-
// output distribution of a guarded mechanism for the two extreme
// sensor values, showing the shared bounded support (and, for
// thresholding, the boundary atoms).
type GuardDistResult struct {
	// Setting is SettingResampling (Fig. 6) or SettingThresholding
	// (Fig. 7).
	Setting Setting
	// Threshold is the certified guard threshold in steps.
	Threshold int64
	// Outputs lists the output grid (absolute steps).
	Outputs []int64
	// ProbLo and ProbHi are P(y | x = Lo) and P(y | x = Hi).
	ProbLo, ProbHi []float64
	// WorstLoss is the exact worst-case privacy loss.
	WorstLoss float64
	// BoundaryAtomLo/Hi are the clamp atoms for x = Hi at the two
	// window edges (thresholding only).
	BoundaryAtomLo, BoundaryAtomHi float64
}

// Figure6 computes the resampling output distribution.
func Figure6(cfg Config) (GuardDistResult, error) {
	return guardDist(cfg, SettingResampling)
}

// Figure7 computes the thresholding output distribution.
func Figure7(cfg Config) (GuardDistResult, error) {
	return guardDist(cfg, SettingThresholding)
}

func guardDist(cfg Config, s Setting) (GuardDistResult, error) {
	if err := cfg.Validate(); err != nil {
		return GuardDistResult{}, err
	}
	par := fig4Params
	an := core.CachedAnalyzer(par)
	th, err := core.GuardThreshold(par, s.guard(), cfg.Mult, 0)
	if err != nil {
		return GuardDistResult{}, err
	}
	res := GuardDistResult{Setting: s, Threshold: th}
	yLo := par.LoSteps() - th
	yHi := par.HiSteps() + th
	condLo := guardCond(an, par, s, th, par.LoSteps())
	condHi := guardCond(an, par, s, th, par.HiSteps())
	for y := yLo; y <= yHi; y++ {
		res.Outputs = append(res.Outputs, y)
		res.ProbLo = append(res.ProbLo, condLo(y))
		res.ProbHi = append(res.ProbHi, condHi(y))
	}
	if s == SettingResampling {
		res.WorstLoss = an.ResamplingLoss(th).MaxLoss
	} else {
		res.WorstLoss = an.ThresholdingLoss(th).MaxLoss
		res.BoundaryAtomLo = condHi(yLo)
		res.BoundaryAtomHi = condHi(yHi)
	}
	return res, nil
}

// guardCond builds P(y|x) for one guarded mechanism via the exact
// distribution (probabilities via the analyzer's loss machinery).
func guardCond(an *core.Analyzer, par core.Params, s Setting, th, x int64) func(int64) float64 {
	d := laplace.NewDist(par.FxP())
	yLo := par.LoSteps() - th
	yHi := par.HiSteps() + th
	if s == SettingResampling {
		var z float64
		for k := yLo - x; k <= yHi-x; k++ {
			z += d.Prob(k)
		}
		return func(y int64) float64 { return d.Prob(y-x) / z }
	}
	return func(y int64) float64 {
		switch {
		case y == yLo:
			return tailAtMost(d, yLo-x)
		case y == yHi:
			return tailAtLeast(d, yHi-x)
		default:
			return d.Prob(y - x)
		}
	}
}

func tailAtLeast(d laplace.Dist, k int64) float64 {
	if k <= 0 {
		return 1 - tailAtLeast(d, -k+1)
	}
	return d.TailMag(k) / 2
}

func tailAtMost(d laplace.Dist, k int64) float64 { return tailAtLeast(d, -k) }

// Print renders the result.
func (r GuardDistResult) Print(w io.Writer) {
	fig := "6 (resampling)"
	if r.Setting == SettingThresholding {
		fig = "7 (thresholding)"
	}
	fprintf(w, "Figure %s: noised output distribution, threshold %d steps, worst-case loss %.4f nats\n",
		fig, r.Threshold, r.WorstLoss)
	if r.Setting == SettingThresholding {
		fprintf(w, "boundary atoms for x=Hi: P(lo edge)=%.3e  P(hi edge)=%.3e\n",
			r.BoundaryAtomLo, r.BoundaryAtomHi)
	}
	fprintf(w, "output  P(y|x=Lo)  P(y|x=Hi)\n")
	stride := len(r.Outputs) / 24
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(r.Outputs); i += stride {
		fprintf(w, "%6d  %.3e  %.3e\n", r.Outputs[i], r.ProbLo[i], r.ProbHi[i])
	}
	last := len(r.Outputs) - 1
	fprintf(w, "%6d  %.3e  %.3e\n", r.Outputs[last], r.ProbLo[last], r.ProbHi[last])
}

// Fig8Result reproduces Fig. 8: the normalized per-output privacy
// loss of the thresholding mechanism as a function of the noised
// output's distance beyond the sensor range, with the segment
// boundaries the budget controller charges at.
type Fig8Result struct {
	// Threshold is the certified guard threshold in steps.
	Threshold int64
	// Profile is the per-offset loss staircase.
	Profile []core.LossPoint
	// Segments are the charging bands for multipliers {1.25, 1.5,
	// 1.75} (bounded by cfg.Mult).
	Segments []core.Segment
	// InteriorLoss is ε_RNG, the in-range charge.
	InteriorLoss float64
	// Eps is the nominal ε.
	Eps float64
}

// Figure8 computes the loss profile and segments.
func Figure8(cfg Config) (Fig8Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig8Result{}, err
	}
	par := fig4Params
	th, err := core.GuardThreshold(par, core.GuardThresholding, cfg.Mult, 0)
	if err != nil {
		return Fig8Result{}, err
	}
	var mults []float64
	for _, m := range []float64{1.25, 1.5, 1.75} {
		if m < cfg.Mult {
			mults = append(mults, m)
		}
	}
	sched := core.NewChargeSchedule(par, core.GuardThresholding, th, cfg.Mult, mults)
	// The schedule's Segments are shared with every other caller.
	segs := make([]core.Segment, len(sched.Segments))
	copy(segs, sched.Segments)
	return Fig8Result{
		Threshold:    th,
		Profile:      core.CachedAnalyzer(par).ThresholdingLossProfile(th),
		Segments:     segs,
		InteriorLoss: sched.Interior,
		Eps:          par.Eps,
	}, nil
}

// Print renders the result.
func (r Fig8Result) Print(w io.Writer) {
	fprintf(w, "Figure 8: normalized privacy loss vs output offset beyond M (threshold %d steps)\n", r.Threshold)
	fprintf(w, "interior (in-range) loss: %.4f nats = %.3f·ε\n", r.InteriorLoss, r.InteriorLoss/r.Eps)
	for _, s := range r.Segments {
		fprintf(w, "outputs in (M, M+%d steps] cost at most %.2f·ε\n", s.Offset, s.Mult)
	}
	fprintf(w, "offset  loss/ε\n")
	stride := len(r.Profile) / 24
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(r.Profile); i += stride {
		p := r.Profile[i]
		norm := p.Normalized
		if math.IsInf(norm, 1) {
			fprintf(w, "%6d  inf\n", p.Offset)
			continue
		}
		fprintf(w, "%6d  %.4f\n", p.Offset, norm)
	}
}
