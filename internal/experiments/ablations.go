package experiments

import (
	"io"

	"ulpdp/internal/budget"
	"ulpdp/internal/cordic"
	"ulpdp/internal/core"
	"ulpdp/internal/floatleak"
	"ulpdp/internal/laplace"
	"ulpdp/internal/noisedist"
	"ulpdp/internal/rappor"
	"ulpdp/internal/urng"
)

// This file contains ablations of the design choices the paper fixes
// without exploring: the URNG width (B_u = 17), the single-cycle
// 30-stage CORDIC, and the segmented (rather than flat worst-case)
// budget charging. They are not paper exhibits, but they answer the
// "why these numbers" questions a hardware team would ask.

// AblateRNGRow is one URNG width data point.
type AblateRNGRow struct {
	// Bu is the URNG magnitude width.
	Bu int
	// Threshold is the certified thresholding guard (steps), 0 if no
	// positive threshold exists at this width.
	Threshold int64
	// Feasible reports whether a certified threshold exists.
	Feasible bool
	// ExactLoss is the enumerated worst-case loss at the threshold.
	ExactLoss float64
	// FirstHole is the first zero-probability noise step (-1: none).
	FirstHole int64
	// TailMass is the probability the guard clips/redraws for a
	// centred input (the resampling energy cost driver).
	TailMass float64
}

// AblateRNGResult sweeps the URNG width at the Fig. 4 geometry.
type AblateRNGResult struct {
	Rows []AblateRNGRow
	Mult float64
}

// AblateRNG runs the width sweep.
func AblateRNG(cfg Config) (AblateRNGResult, error) {
	if err := cfg.Validate(); err != nil {
		return AblateRNGResult{}, err
	}
	res := AblateRNGResult{Mult: cfg.Mult}
	for bu := 6; bu <= 20; bu += 2 {
		par := fig4Params
		par.Bu = bu
		row := AblateRNGRow{Bu: bu, FirstHole: -1}
		d := laplace.NewDist(par.FxP())
		if hole, ok := d.FirstZeroHole(); ok {
			row.FirstHole = hole
		}
		th, err := core.GuardThreshold(par, core.GuardThresholding, cfg.Mult, 0)
		if err == nil {
			row.Feasible = true
			row.Threshold = th
			an := core.CachedAnalyzer(par)
			row.ExactLoss = an.ThresholdingLoss(th).MaxLoss
			row.TailMass = d.TailMag(th)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the result.
func (r AblateRNGResult) Print(w io.Writer) {
	fprintf(w, "Ablation: URNG width vs certified guard (Fig. 4 geometry, target %.2g·ε)\n", r.Mult)
	fprintf(w, "%4s %10s %12s %12s %12s\n", "Bu", "threshold", "exact loss", "first hole", "tail mass")
	for _, row := range r.Rows {
		if !row.Feasible {
			fprintf(w, "%4d %10s %12s %12d %12s\n", row.Bu, "none", "-", row.FirstHole, "-")
			continue
		}
		fprintf(w, "%4d %10d %12.4f %12d %12.3e\n",
			row.Bu, row.Threshold, row.ExactLoss, row.FirstHole, row.TailMass)
	}
	fprintf(w, "(wider URNGs push the hole onset out and admit larger guards;\n")
	fprintf(w, " below ~10 bits no certified guard exists at this grid)\n")
}

// AblateChargingResult compares Algorithm 1's segmented charging with
// flat worst-case charging: fresh responses served from one budget.
type AblateChargingResult struct {
	Budget float64
	// FreshSegmented / FreshFlat are the fresh responses served.
	FreshSegmented, FreshFlat int
	// MeanChargeSegmented is the average per-response charge.
	MeanChargeSegmented float64
	// FlatCharge is the flat worst-case charge Mult·ε.
	FlatCharge float64
}

// AblateCharging measures the benefit of output-dependent charging.
func AblateCharging(cfg Config) (AblateChargingResult, error) {
	if err := cfg.Validate(); err != nil {
		return AblateChargingResult{}, err
	}
	par := fig4Params
	const budgetNats = 60.0
	res := AblateChargingResult{Budget: budgetNats, FlatCharge: cfg.Mult * par.Eps}

	// Segmented: the real controller.
	ctl, err := budget.New(par, budget.Config{
		Budget: budgetNats, Mult: cfg.Mult, Multipliers: []float64{1.25, 1.5},
		Log: fastLog, Source: urng.NewTaus88(cfg.Seed),
	})
	if err != nil {
		return AblateChargingResult{}, err
	}
	var spent float64
	for i := 0; i < 100000; i++ {
		r, err := ctl.Request(5)
		if err != nil {
			return AblateChargingResult{}, err
		}
		if r.FromCache {
			break
		}
		res.FreshSegmented++
		spent += r.Charged
	}
	if res.FreshSegmented > 0 {
		res.MeanChargeSegmented = spent / float64(res.FreshSegmented)
	}
	// Flat: every response costs the worst case.
	res.FreshFlat = int(budgetNats / res.FlatCharge)
	return res, nil
}

// Print renders the result.
func (r AblateChargingResult) Print(w io.Writer) {
	fprintf(w, "Ablation: segmented vs flat worst-case budget charging (budget %.0f nats)\n", r.Budget)
	fprintf(w, "flat worst-case charging:  %6d fresh responses (%.4f nats each)\n", r.FreshFlat, r.FlatCharge)
	fprintf(w, "Algorithm 1 segments:      %6d fresh responses (%.4f nats mean)\n",
		r.FreshSegmented, r.MeanChargeSegmented)
	fprintf(w, "-> adaptive charging serves %.2fx more responses from the same budget\n",
		float64(r.FreshSegmented)/float64(r.FreshFlat))
}

// AblateFamilyRow is one noise family's finite-precision audit.
type AblateFamilyRow struct {
	// Family names the distribution.
	Family string
	// MaxK is the largest representable noise step.
	MaxK int64
	// IdealTailBeyond is the ideal probability mass past the
	// hardware's reach — the bounded-support pathology.
	IdealTailBeyond float64
	// FirstHole is the first zero-probability step (-1 if none).
	FirstHole int64
	// NaiveInfinite reports the unguarded mechanism's infinite loss.
	NaiveInfinite bool
	// CertifiedThreshold is the exact-search thresholding guard for
	// 2ε (0 if none exists).
	CertifiedThreshold int64
	// CertifiedLoss is the exact loss at that threshold.
	CertifiedLoss float64
}

// AblateFamilyResult executes Section III-A4's generalization claim:
// the Laplace, Gaussian and staircase mechanisms all lose DP on
// fixed-point hardware, and the thresholding guard (with an exactly
// certified threshold) restores a bound for each.
type AblateFamilyResult struct {
	Rows []AblateFamilyRow
	Eps  float64
}

// AblateFamily runs the cross-family audit on a common geometry.
func AblateFamily(cfg Config) (AblateFamilyResult, error) {
	if err := cfg.Validate(); err != nil {
		return AblateFamilyResult{}, err
	}
	geo := noisedist.Geometry{Bu: 14, By: 12, Delta: 0.25}
	par := core.Params{Lo: 0, Hi: 8, Eps: cfg.Eps, Bu: geo.Bu, By: geo.By, Delta: geo.Delta}
	lambda := par.Lambda()
	fams := []noisedist.Family{
		noisedist.Laplace{Lambda: lambda},
		// Gaussian scaled for (ε, δ=1e-5)-DP: σ = d·sqrt(2 ln(1.25/δ))/ε.
		noisedist.Gaussian{Sigma: par.Range() * 4.84 / par.Eps},
		noisedist.Staircase{Eps: par.Eps, D: par.Range(), Gamma: noisedist.OptimalGamma(par.Eps)},
	}
	res := AblateFamilyResult{Eps: par.Eps}
	type famKey struct {
		Fam noisedist.Family
		Geo noisedist.Geometry
	}
	for _, fam := range fams {
		d, err := noisedist.NewDist(fam, geo)
		if err != nil {
			return AblateFamilyResult{}, err
		}
		an := core.CachedAnalyzerPMF(par, famKey{Fam: fam, Geo: geo}, d.PMF)
		maxK := an.MaxK()
		row := AblateFamilyRow{
			Family:          fam.Name(),
			MaxK:            maxK,
			IdealTailBeyond: fam.Survival((float64(maxK) + 0.5) * geo.Delta),
			FirstHole:       -1,
			NaiveInfinite:   an.BaselineLoss().Infinite,
		}
		if hole, ok := d.FirstZeroHole(); ok {
			row.FirstHole = hole
		}
		// Exact search (descending) for the largest certified guard.
		target := 2 * par.Eps
		for step := maxK; step >= 1; step-- {
			if rep := an.ThresholdingLoss(step); rep.Bounded(target) {
				row.CertifiedThreshold = step
				row.CertifiedLoss = rep.MaxLoss
				break
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the result.
func (r AblateFamilyResult) Print(w io.Writer) {
	fprintf(w, "Ablation: finite-precision pathology across noise families (ε=%g, target 2ε)\n", r.Eps)
	fprintf(w, "%-10s %7s %12s %11s %7s %10s %10s\n",
		"family", "maxK", "ideal tail>", "first hole", "naive∞", "cert. thr", "cert. loss")
	for _, row := range r.Rows {
		fprintf(w, "%-10s %7d %12.3e %11d %7v %10d %10.4f\n",
			row.Family, row.MaxK, row.IdealTailBeyond, row.FirstHole,
			row.NaiveInfinite, row.CertifiedThreshold, row.CertifiedLoss)
	}
	fprintf(w, "(Section III-A4 generalization: every DP noise family is bounded and\n")
	fprintf(w, " holed on fixed-point hardware; exact-certified thresholds restore LDP)\n")
}

// AblateFloatResult executes the other half of Section III-A4 (the
// paper's reference [27], Mironov's attack): naive double-precision
// software noising leaks through the floating-point grid's gaps,
// while the certified fixed-point guard leaks nothing.
type AblateFloatResult struct {
	// RevealRate01 / RevealRate10 are the fractions of naive float64
	// outputs from x=0 (resp. x=d) that are unreachable from the
	// other input — each one identifies the secret exactly.
	RevealRate01, RevealRate10 float64
	// Lambda and D are the mechanism scale and input distance.
	Lambda, D float64
	// GuardedInfinite reports whether the certified fixed-point
	// thresholding mechanism has any identifying output (it must
	// not).
	GuardedInfinite bool
	// GuardedLoss is its exact worst-case loss.
	GuardedLoss float64
}

// AblateFloat measures the float64 leak and the fixed-point fix.
func AblateFloat(cfg Config) (AblateFloatResult, error) {
	if err := cfg.Validate(); err != nil {
		return AblateFloatResult{}, err
	}
	const lambda, d = 2.0, 1.0
	n := 40 * cfg.Trials
	res := AblateFloatResult{
		Lambda:       lambda,
		D:            d,
		RevealRate01: floatleak.RevealRate(0, d, lambda, n, cfg.Seed),
		RevealRate10: floatleak.RevealRate(d, 0, lambda, n, cfg.Seed+1),
	}
	par := core.Params{Lo: 0, Hi: d, Eps: d / lambda, Bu: rngBu, By: rngBy, Delta: d / 64}
	th, err := core.GuardThreshold(par, core.GuardThresholding, cfg.Mult, 0)
	if err != nil {
		return AblateFloatResult{}, err
	}
	rep := core.CachedAnalyzer(par).ThresholdingLoss(th)
	res.GuardedInfinite = rep.Infinite
	res.GuardedLoss = rep.MaxLoss
	return res, nil
}

// Print renders the result.
func (r AblateFloatResult) Print(w io.Writer) {
	fprintf(w, "Ablation: naive float64 Laplace (Mironov's attack) vs certified fixed point\n")
	fprintf(w, "naive float64, λ=%g, inputs %g apart:\n", r.Lambda, r.D)
	fprintf(w, "  %.1f%% of outputs from x=0 identify the input exactly\n", 100*r.RevealRate01)
	fprintf(w, "  %.1f%% of outputs from x=%g identify the input exactly\n", 100*r.RevealRate10, r.D)
	fprintf(w, "certified fixed-point thresholding on the same task:\n")
	fprintf(w, "  identifying outputs: %v; exact worst-case loss %.4f nats\n", r.GuardedInfinite, r.GuardedLoss)
}

// RapporPoint is one (N, flip-prob) cell of the RAPPOR sweep.
type RapporPoint struct {
	// N is the number of reports.
	N int
	// MAE is the mean absolute frequency-estimate error across
	// candidates.
	MAE float64
}

// RapporResult is the RAPPOR extension exhibit: categorical frequency
// estimation over Bloom-encoded randomized-response reports — the
// mechanism the paper's Section VI-E cites — with accuracy improving
// in N, like Fig. 14 but for an open category set.
type RapporResult struct {
	Points []RapporPoint
	// Eps is the per-report privacy parameter of the configuration.
	Eps float64
	// Candidates is the decoded candidate count.
	Candidates int
}

// ExtRappor runs the RAPPOR sweep.
func ExtRappor(cfg Config) (RapporResult, error) {
	if err := cfg.Validate(); err != nil {
		return RapporResult{}, err
	}
	par := rappor.Params{Bits: 128, Hashes: 2, FlipProb: 0.3}
	candidates := []string{"maps", "mail", "news", "video", "music", "other"}
	truth := []float64{0.3, 0.25, 0.2, 0.15, 0.1, 0}
	res := RapporResult{Eps: par.Epsilon(), Candidates: len(candidates)}
	sizes := []int{500, 2000, 8000, 32000}
	for _, n := range sizes {
		var mae float64
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + uint64(trial)*31 + uint64(n)
			client := rappor.NewClient(par, seed)
			agg := rappor.NewAggregator(par)
			rng := urng.NewSplitMix64(seed ^ 0xABCD)
			for i := 0; i < n; i++ {
				u := rng.Float64()
				cat := candidates[0]
				acc := 0.0
				for j, f := range truth {
					acc += f
					if u < acc {
						cat = candidates[j]
						break
					}
				}
				agg.Add(client.Report(cat))
			}
			est, err := agg.Decode(candidates)
			if err != nil {
				return RapporResult{}, err
			}
			for j := range est {
				mae += absF(est[j] - truth[j])
			}
		}
		mae /= float64(cfg.Trials * len(candidates))
		res.Points = append(res.Points, RapporPoint{N: n, MAE: mae})
	}
	return res, nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Print renders the result.
func (r RapporResult) Print(w io.Writer) {
	fprintf(w, "Extension: RAPPOR categorical frequency estimation (%d candidates, per-report ε = %.2f)\n",
		r.Candidates, r.Eps)
	fprintf(w, "%10s %16s\n", "N", "frequency MAE")
	for _, p := range r.Points {
		fprintf(w, "%10d %16.4f\n", p.N, p.MAE)
	}
	fprintf(w, "(the Bloom-encoded generalization of the DP-Box randomized-response mode)\n")
}

// AblateLogRow is one CORDIC depth data point.
type AblateLogRow struct {
	// Iterations is the CORDIC stage count.
	Iterations int
	// MismatchPerMille is how many of 1000·(draws) magnitude mappings
	// differ from the exact-log datapath, in ‰.
	MismatchPerMille float64
	// MaxStepError is the largest magnitude difference in steps.
	MaxStepError int64
}

// AblateLogResult sweeps the CORDIC depth and compares the hardware
// datapath against exact logarithms, justifying the 30-stage choice.
type AblateLogResult struct {
	Rows []AblateLogRow
	// Draws is the number of URNG inputs compared per depth.
	Draws int
}

// AblateLog runs the depth sweep.
func AblateLog(cfg Config) (AblateLogResult, error) {
	if err := cfg.Validate(); err != nil {
		return AblateLogResult{}, err
	}
	par := fig4Params.FxP()
	exact, err := laplace.NewSampler(par, laplace.FloatLog{FracBits: 50}, urng.NewTaus88(1))
	if err != nil {
		return AblateLogResult{}, err
	}
	draws := 1 << par.Bu
	res := AblateLogResult{Draws: draws}
	for _, iters := range []int{8, 12, 16, 20, 24, 30} {
		c := cordic.New(cordic.Config{Iterations: iters, Frac: 40})
		s, err := laplace.NewSampler(par, c, urng.NewTaus88(1))
		if err != nil {
			return AblateLogResult{}, err
		}
		var mismatches int
		var maxErr int64
		for m := uint64(1); m <= uint64(draws); m++ {
			a := s.MagnitudeForDraw(m)
			b := exact.MagnitudeForDraw(m)
			if a != b {
				mismatches++
				d := a - b
				if d < 0 {
					d = -d
				}
				if d > maxErr {
					maxErr = d
				}
			}
		}
		res.Rows = append(res.Rows, AblateLogRow{
			Iterations:       iters,
			MismatchPerMille: 1000 * float64(mismatches) / float64(draws),
			MaxStepError:     maxErr,
		})
	}
	return res, nil
}

// Print renders the result.
func (r AblateLogResult) Print(w io.Writer) {
	fprintf(w, "Ablation: CORDIC depth vs exact-log datapath agreement (%d draws)\n", r.Draws)
	fprintf(w, "%6s %16s %16s\n", "stages", "mismatch (‰)", "max error (steps)")
	for _, row := range r.Rows {
		fprintf(w, "%6d %16.3f %16d\n", row.Iterations, row.MismatchPerMille, row.MaxStepError)
	}
	fprintf(w, "(the paper's single-cycle unrolled CORDIC uses ~30 stages: at that\n")
	fprintf(w, " depth the hardware reproduces the analyzed distribution bit-for-bit\n")
	fprintf(w, " on all but a vanishing fraction of rounding-boundary draws)\n")
}
