package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"ulpdp"
	"ulpdp/internal/core"
)

// The audit workload is ldpaudit's certification sequence over a
// seeded sweep of sensor configurations. Measured over the full grid,
// the sensor grid (steps), ε, By and Bu explain 99% of an audit's
// cost — a 256-step grid at ε = 0.25 costs ~150× a 32-step one at
// ε = 2 — and the range explains none of it. The pool is therefore
// the full factorial over those four, so every seed weighs the same
// cost mix and its percentiles stay comparable; the seed draws each
// config's range and the order within each block. Block b holds every
// (steps, By, ε) triple t once, at Bu index (b + t) mod 7, so each
// block, set-up's included, costs the same on every seed.
var (
	auditSteps  = []int{32, 64, 256}
	auditBys    = []int{10, 11, 12, 13, 14, 15, 16}
	auditBus    = []int{14, 15, 16, 17, 18, 19, 20}
	auditEps    = []float64{0.25, 0.5, 1, 2}
	auditRanges = []float64{10, 20, 100}
)

const (
	// auditBlock is one block of the pool: one config per (steps, By, ε).
	auditBlock = 3 * 7 * 4
	// auditMult and auditCandidates are ldpaudit's defaults.
	auditMult       = 2.0
	auditCandidates = 4
)

// auditPool draws the seeded configuration pool: len(auditBus) blocks.
func auditPool(seed uint64) []core.Params {
	rng := rand.New(rand.NewPCG(seed, 0xa0d17))
	pool := make([]core.Params, 0, auditBlock*len(auditBus))
	for b := range auditBus {
		for _, t := range rng.Perm(auditBlock) {
			steps := auditSteps[t%len(auditSteps)]
			by := auditBys[t/len(auditSteps)%len(auditBys)]
			eps := auditEps[t/(len(auditSteps)*len(auditBys))]
			r := auditRanges[rng.IntN(len(auditRanges))]
			pool = append(pool, core.Params{
				Lo: 0, Hi: r, Eps: eps,
				Bu: auditBus[(b+t)%len(auditBus)], By: by, Delta: r / float64(steps),
			})
		}
	}
	return pool
}

// auditResult is what ldpaudit reports for one configuration.
type auditResult struct {
	baselineInfinite bool
	thresholds       [3]int64   // thresholding, resampling, constant-time
	losses           [3]float64 // the same order
	certified        [3]bool
	interior         float64
	segments         []core.Segment
}

// auditCallNames names the timed steps of one audit, in call order.
var auditCallNames = []string{
	"analyzer_build", "certify_baseline", "certify_thresholding",
	"segments", "certify_resampling", "certify_constant_time",
}

// runAudit runs ldpaudit's sequence on par through the public entry
// points on an empty analyzer cache, as a fresh ldpaudit process
// would, so the first step builds the analyzer. lap, when non-nil, is
// called after each step with the step's index in auditCallNames.
func runAudit(par core.Params, lap func(step int)) (auditResult, error) {
	step := func(i int) {
		if lap != nil {
			lap(i)
		}
	}
	var a auditResult
	core.ResetAnalyzerCache()
	an := core.CachedAnalyzer(par)
	step(0)

	rep, err := ulpdp.CertifyBaseline(par)
	if err != nil {
		return a, fmt.Errorf("baseline: %w", err)
	}
	a.baselineInfinite = rep.Infinite
	step(1)

	bound := auditMult * par.Eps
	th, err := ulpdp.ThresholdingThreshold(par, auditMult)
	if err != nil {
		return a, fmt.Errorf("thresholding: %w", err)
	}
	if rep, err = ulpdp.CertifyThresholding(par, th); err != nil {
		return a, fmt.Errorf("thresholding: %w", err)
	}
	a.thresholds[0], a.losses[0], a.certified[0] = th, rep.MaxLoss, rep.Bounded(bound)
	step(2)

	a.interior = an.InteriorLoss(th)
	a.segments = an.Segments(th, []float64{1.25, 1.5, 1.75})
	step(3)

	if th, err = ulpdp.ResamplingThreshold(par, auditMult); err != nil {
		return a, fmt.Errorf("resampling: %w", err)
	}
	if rep, err = ulpdp.CertifyResampling(par, th); err != nil {
		return a, fmt.Errorf("resampling: %w", err)
	}
	a.thresholds[1], a.losses[1], a.certified[1] = th, rep.MaxLoss, rep.Bounded(bound)
	step(4)

	if th, err = core.ExactConstantTimeThreshold(par, auditMult, auditCandidates); err != nil {
		return a, fmt.Errorf("constant-time: %w", err)
	}
	if rep, err = ulpdp.CertifyConstantTime(par, th, auditCandidates); err != nil {
		return a, fmt.Errorf("constant-time: %w", err)
	}
	a.thresholds[2], a.losses[2], a.certified[2] = th, rep.MaxLoss, rep.Bounded(bound)
	step(5)
	return a, nil
}

// fingerprint hashes every verdict, threshold and loss bit-exactly.
func (a auditResult) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(b(a.baselineInfinite))
	for i := range a.thresholds {
		put(uint64(a.thresholds[i]))
		put(math.Float64bits(a.losses[i]))
		put(b(a.certified[i]))
	}
	put(math.Float64bits(a.interior))
	for _, s := range a.segments {
		put(math.Float64bits(s.Mult))
		put(uint64(s.Offset))
	}
	return h.Sum64()
}

// tracedAudit audits par with every step timed separately. It appends
// each step's time to calls[step] and returns the result with the
// audit's total traced time.
func tracedAudit(par core.Params, calls [][]float64) (auditResult, time.Duration, error) {
	var total time.Duration
	last := time.Now()
	res, err := runAudit(par, func(i int) {
		d := time.Since(last)
		calls[i] = append(calls[i], msOf(d.Nanoseconds()))
		total += d
		last = time.Now()
	})
	return res, total, err
}

// callMetrics turns per-step times into core.<step>_ms_p50/_p90.
func callMetrics(calls [][]float64) []metric {
	var out []metric
	for i, ms := range calls {
		name := "core." + auditCallNames[i]
		out = append(out,
			metric{name + "_ms_p50", "ms", quantile(ms, 0.5)},
			metric{name + "_ms_p90", "ms", quantile(ms, 0.9)})
	}
	return out
}
