// Package ulpdp is a Go implementation of "Guaranteeing Local
// Differential Privacy on Ultra-low-power Systems" (Choi, Tomei,
// Sanchez Vicarte, Hanumolu, Kumar — ISCA 2018).
//
// It provides:
//
//   - local-DP noising mechanisms for fixed-point hardware — the
//     ideal Laplace reference, the naive FxP baseline (whose privacy
//     loss is provably infinite), and the paper's resampling and
//     thresholding guards with certified loss bounds;
//   - exact privacy analysis: the closed-form PMF of the fixed-point
//     inverse-CDF Laplace RNG, worst-case loss enumeration, and
//     threshold calculators (the paper's eqs. 13/15, re-derived and
//     hardened — see DESIGN.md);
//   - Algorithm 1 budget control with output-dependent charging,
//     caching and replenishment;
//   - a cycle-level DP-Box hardware simulator, a synthesis cost
//     model, and an MSP430 emulator running the software noising
//     baselines;
//   - the complete experiment suite regenerating every table and
//     figure of the paper (internal/experiments, cmd/dpbench).
//
// Quick start:
//
//	par := ulpdp.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}
//	mech, err := ulpdp.NewThresholding(par, 2, 1)
//	if err != nil { ... }
//	noised := mech.Noise(reading).Value
//
// All randomness is seeded; identical seeds replay identical noise.
package ulpdp

import (
	"io"

	"ulpdp/internal/budget"
	"ulpdp/internal/core"
	"ulpdp/internal/dataset"
	"ulpdp/internal/dpbox"
	"ulpdp/internal/experiments"
	"ulpdp/internal/hwmodel"
	"ulpdp/internal/laplace"
	"ulpdp/internal/msp430"
	"ulpdp/internal/noisedist"
	"ulpdp/internal/obs"
	"ulpdp/internal/urng"
)

// Params describes one sensor's privacy configuration: range
// [Lo, Hi], per-report ε, and the fixed-point RNG geometry (B_u
// uniform bits, B_y output bits, quantization step Δ).
type Params = core.Params

// Mechanism is a local-DP noising mechanism for scalar sensor values.
type Mechanism = core.Mechanism

// Result is one noised report.
type Result = core.Result

// LossReport is an exact worst-case privacy-loss certification.
type LossReport = core.LossReport

// NewIdealLaplace returns the real-valued Laplace reference mechanism
// (ε-LDP by construction, unimplementable on fixed-point hardware).
func NewIdealLaplace(par Params, seed uint64) (Mechanism, error) {
	return core.NewIdealLaplace(par, seed)
}

// NewBaseline returns the naive fixed-point mechanism. Its utility
// matches the ideal mechanism but its worst-case privacy loss is
// infinite — use it only as a baseline.
func NewBaseline(par Params, seed uint64) (Mechanism, error) {
	return core.NewBaseline(par, nil, urng.NewTaus88(seed))
}

// NewResampling returns the resampling-guarded mechanism with the
// certified threshold for worst-case loss mult·ε.
func NewResampling(par Params, mult float64, seed uint64) (Mechanism, error) {
	return core.NewGuarded(par, core.GuardSpec{Guard: core.GuardResampling, Threshold: -1, Mult: mult},
		nil, urng.NewTaus88(seed))
}

// NewThresholding returns the thresholding-guarded mechanism with the
// certified threshold for worst-case loss mult·ε. This is the
// single-draw, energy-efficient guard.
func NewThresholding(par Params, mult float64, seed uint64) (Mechanism, error) {
	return core.NewGuarded(par, core.GuardSpec{Guard: core.GuardThresholding, Threshold: -1, Mult: mult},
		nil, urng.NewTaus88(seed))
}

// NewRandomizedResponse returns the binary (categorical) mechanism —
// the DP-Box's threshold-zero configuration. Inputs snap to the
// nearer of {Lo, Hi}; outputs are always Lo or Hi.
func NewRandomizedResponse(par Params, seed uint64) (*core.RandomizedResponse, error) {
	return core.NewRandomizedResponse(par, nil, urng.NewTaus88(seed))
}

// ResamplingThreshold computes the certified resampling guard
// threshold (in steps of Δ) for worst-case loss mult·ε.
func ResamplingThreshold(par Params, mult float64) (int64, error) {
	return core.ResamplingThreshold(par, mult)
}

// ThresholdingThreshold computes the certified thresholding guard
// threshold (in steps of Δ) for worst-case loss mult·ε.
func ThresholdingThreshold(par Params, mult float64) (int64, error) {
	return core.ThresholdingThreshold(par, mult)
}

// CertifyBaseline enumerates the naive mechanism's exact worst-case
// privacy loss (expect Infinite == true). Repeated certifications of
// identical Params share one process-wide analyzer (and its
// materialized PMF); the analyzer itself is immutable, so Certify
// calls are safe to issue concurrently.
func CertifyBaseline(par Params) (LossReport, error) {
	if err := par.Validate(); err != nil {
		return LossReport{}, err
	}
	return core.CachedAnalyzer(par).BaselineLoss(), nil
}

// CertifyThresholding enumerates the thresholding mechanism's exact
// worst-case loss at the given threshold (steps of Δ).
func CertifyThresholding(par Params, threshold int64) (LossReport, error) {
	if err := par.Validate(); err != nil {
		return LossReport{}, err
	}
	return core.CachedAnalyzer(par).ThresholdingLoss(threshold), nil
}

// CertifyResampling enumerates the resampling mechanism's exact
// worst-case loss at the given threshold (steps of Δ).
func CertifyResampling(par Params, threshold int64) (LossReport, error) {
	if err := par.Validate(); err != nil {
		return LossReport{}, err
	}
	return core.CachedAnalyzer(par).ResamplingLoss(threshold), nil
}

// Budget is the Algorithm 1 privacy budget controller.
type Budget = budget.Controller

// BudgetConfig parameterizes a Budget.
type BudgetConfig = budget.Config

// NewBudget builds a budget controller for the given parameters.
func NewBudget(par Params, cfg BudgetConfig) (*Budget, error) {
	return budget.New(par, cfg)
}

// DPBox is the cycle-level hardware module simulator.
type DPBox = dpbox.DPBox

// DPBoxConfig fixes a DP-Box variant's geometry.
type DPBoxConfig = dpbox.Config

// NewDPBox powers up a DP-Box in its initialization phase.
func NewDPBox(cfg DPBoxConfig) (*DPBox, error) {
	return dpbox.New(cfg)
}

// DPBoxJournal is the DP-Box's word-granular NVM budget journal.
// Attach one via DPBoxConfig.Journal for crash-consistent budget
// accounting and at-most-once sequence-labelled releases; see
// docs/nvm.md for the storage engine underneath.
type DPBoxJournal = dpbox.Journal

// NewDPBoxJournal returns an in-memory journal: full power-loss
// semantics inside the process, no durability across process exit.
func NewDPBoxJournal() *DPBoxJournal { return dpbox.NewJournal() }

// OpenDPBoxJournal opens (or creates) a file-backed journal under
// dir. A journal left behind by a dead process still holds its ledger
// and release window — boot from it with RecoverDPBox. Close the
// journal when done with the box.
func OpenDPBoxJournal(dir string) (*DPBoxJournal, error) { return dpbox.OpenJournal(dir) }

// RecoverDPBox is the secure-boot path after a crash: it replays j,
// compacts it, and powers up a DP-Box with the recovered ledger and
// release-retransmission window (cfg.Journal is overridden with j).
// A journal that never reached the budget lock boots fresh in the
// initialization phase.
func RecoverDPBox(cfg DPBoxConfig, j *DPBoxJournal) (*DPBox, error) { return dpbox.Recover(cfg, j) }

// DP-Box command-port opcodes, re-exported for hosts that drive the
// port directly instead of through the convenience methods.
const (
	DPBoxCmdDoNothing      = dpbox.CmdDoNothing
	DPBoxCmdStartNoising   = dpbox.CmdStartNoising
	DPBoxCmdSetEpsilon     = dpbox.CmdSetEpsilon
	DPBoxCmdSetSensorValue = dpbox.CmdSetSensorValue
	DPBoxCmdSetRangeUpper  = dpbox.CmdSetRangeUpper
	DPBoxCmdSetRangeLower  = dpbox.CmdSetRangeLower
	DPBoxCmdSetThreshold   = dpbox.CmdSetThreshold
)

// DPBoxPhase is the DP-Box FSM phase reported by (*DPBox).Phase.
type DPBoxPhase = dpbox.Phase

// DP-Box phases, re-exported so hosts can tell "busy" from "gone".
const (
	DPBoxPhaseInit    = dpbox.PhaseInit
	DPBoxPhaseWaiting = dpbox.PhaseWaiting
	DPBoxPhaseNoising = dpbox.PhaseNoising
	DPBoxPhaseDead    = dpbox.PhaseDead
)

// Bank is a multi-sensor DP-Box: several sensor channels charging one
// shared budget ledger, as Section IV requires when readings could be
// combined.
type Bank = dpbox.Bank

// NewBank powers up n sensor channels sharing one budget.
func NewBank(cfg DPBoxConfig, n int, seed uint64) (*Bank, error) {
	return dpbox.NewBank(cfg, n, seed)
}

// NewConstantTime returns the timing-channel-safe resampling variant
// (Section IV-C): candidates parallel samples per report, constant
// latency, threshold certified by the exact constant-time analysis.
func NewConstantTime(par Params, mult float64, candidates int, seed uint64) (Mechanism, error) {
	return core.NewGuarded(par, core.GuardSpec{Guard: core.GuardConstantTime, Threshold: -1, Mult: mult,
		Candidates: candidates}, nil, urng.NewTaus88(seed))
}

// CertifyConstantTime enumerates the constant-time mechanism's exact
// worst-case loss at the given threshold and candidate count.
func CertifyConstantTime(par Params, threshold int64, candidates int) (LossReport, error) {
	if err := par.Validate(); err != nil {
		return LossReport{}, err
	}
	return core.CachedAnalyzer(par).ConstantTimeLoss(threshold, candidates), nil
}

// FxPDist is the exact output distribution of the fixed-point Laplace
// RNG (eq. 11's closed form): the FamilyDist of LaplaceFamily.
type FxPDist = laplace.Dist

// NewFxPDist returns the exact RNG distribution for par.
func NewFxPDist(par Params) (FxPDist, error) {
	if err := par.Validate(); err != nil {
		return FxPDist{}, err
	}
	return laplace.NewDist(par.FxP()), nil
}

// NoiseFamily abstracts an ideal symmetric noise distribution
// (Laplace, Gaussian, staircase); see internal/noisedist for the
// Section III-A4 generalization.
type NoiseFamily = noisedist.Family

// NoiseGeometry is the fixed-point RNG geometry shared by families.
type NoiseGeometry = noisedist.Geometry

// FamilyDist is the exact quantized distribution of a family's
// fixed-point implementation.
type FamilyDist = noisedist.Dist

// Noise family constructors, re-exported.
type (
	// LaplaceFamily is Lap(λ).
	LaplaceFamily = noisedist.Laplace
	// GaussianFamily is N(0, σ²).
	GaussianFamily = noisedist.Gaussian
	// StaircaseFamily is the Geng–Viswanath staircase mechanism.
	StaircaseFamily = noisedist.Staircase
)

// NewFamilyDist builds the exact fixed-point distribution of any
// noise family. Feed its PMF to CertifyFamily for exact analysis.
func NewFamilyDist(fam NoiseFamily, geo NoiseGeometry) (FamilyDist, error) {
	return noisedist.NewDist(fam, geo)
}

// familyAnalyzer returns the shared analyzer for a family's exact
// distribution on par's grid. The cache key is the family value plus
// its geometry; a hit skips both the PMF enumeration and the analyzer
// construction, and families whose parameter types are not comparable
// simply bypass the cache.
func familyAnalyzer(par Params, d FamilyDist) *core.Analyzer {
	type familyKey struct {
		Fam NoiseFamily
		Geo NoiseGeometry
	}
	return core.CachedAnalyzerPMF(par, familyKey{Fam: d.Family(), Geo: d.Geometry()}, d.PMF)
}

// CertifyFamilyBaseline enumerates the unguarded mechanism's exact
// worst-case loss for an arbitrary noise family on par's grid
// (expect Infinite — the Section III-A4 generalization).
func CertifyFamilyBaseline(par Params, d FamilyDist) (LossReport, error) {
	if err := par.Validate(); err != nil {
		return LossReport{}, err
	}
	return familyAnalyzer(par, d).BaselineLoss(), nil
}

// CertifyFamilyThresholding enumerates the thresholding mechanism's
// exact worst-case loss for an arbitrary family at the given
// threshold (steps of Δ).
func CertifyFamilyThresholding(par Params, d FamilyDist, threshold int64) (LossReport, error) {
	if err := par.Validate(); err != nil {
		return LossReport{}, err
	}
	return familyAnalyzer(par, d).ThresholdingLoss(threshold), nil
}

// Dataset is a Table I dataset descriptor (synthetic regenerator).
type Dataset = dataset.Meta

// Datasets returns the seven Table I datasets.
func Datasets() []Dataset { return dataset.Catalog() }

// DatasetByName looks up a Table I dataset.
func DatasetByName(name string) (Dataset, error) { return dataset.ByName(name) }

// SynthReport is a hardware synthesis estimate.
type SynthReport = hwmodel.Report

// Synthesize estimates gates / critical path / power for a DP-Box
// hardware variant at the given clock.
func Synthesize(cfg hwmodel.Config, clockMHz float64) (SynthReport, error) {
	return hwmodel.Synthesize(cfg, clockMHz)
}

// BaselineHardware is the paper's synthesized DP-Box configuration.
func BaselineHardware() hwmodel.Config { return hwmodel.Baseline }

// SoftNoiser runs the Section III-D software noising routines on an
// emulated MSP430.
type SoftNoiser = msp430.SoftNoiser

// NewSoftNoiser assembles a software noising routine
// (msp430.FixedPoint20 or msp430.HalfPrecision).
func NewSoftNoiser(prec msp430.Precision, seed uint64) (*SoftNoiser, error) {
	return msp430.NewSoftNoiser(prec, seed)
}

// ExperimentConfig tunes the experiment suite's scale.
type ExperimentConfig = experiments.Config

// DefaultExperiments returns the full-scale experiment configuration.
func DefaultExperiments() ExperimentConfig { return experiments.Default() }

// QuickExperiments returns a fast, reduced-scale configuration.
func QuickExperiments() ExperimentConfig { return experiments.Quick() }

// ExperimentNames lists the reproducible exhibits (figures, tables,
// sections).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment executes one exhibit by name, printing its rows.
func RunExperiment(name string, cfg ExperimentConfig, w io.Writer) error {
	run, ok := experiments.Registry[name]
	if !ok {
		return &UnknownExperimentError{Name: name}
	}
	return run(cfg, w)
}

// RunExperimentJSON executes one exhibit and writes its result as
// indented JSON.
func RunExperimentJSON(name string, cfg ExperimentConfig, w io.Writer) error {
	if _, ok := experiments.Registry[name]; !ok {
		return &UnknownExperimentError{Name: name}
	}
	return experiments.RunJSON(name, cfg, w)
}

// RunAllExperiments executes the whole suite.
func RunAllExperiments(cfg ExperimentConfig, w io.Writer) error {
	return experiments.RunAll(cfg, w)
}

// UnknownExperimentError reports a bad experiment name.
type UnknownExperimentError struct {
	Name string
}

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "ulpdp: unknown experiment " + e.Name + " (see ExperimentNames)"
}

// VCDTracer streams DP-Box state into a VCD waveform (GTKWave etc.).
type VCDTracer = dpbox.VCDTracer

// NewVCDTracer builds a waveform tracer writing to out; attach it
// with (*DPBox).SetTracer.
func NewVCDTracer(out io.Writer) (*VCDTracer, error) {
	return dpbox.NewVCDTracer(out)
}

// ObsRegistry is the process-wide telemetry registry: counters,
// gauges, histograms, and the privacy odometer.
// See docs/observability.md for the metric name schema.
type ObsRegistry = obs.Registry

// NewObsRegistry returns an empty telemetry registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ObsSnapshot is a point-in-time copy of a registry, JSON-ready.
type ObsSnapshot = obs.Snapshot

// DPBoxMetrics is the DP-Box telemetry plane; attach one via
// DPBoxConfig.Obs (nil disables telemetry at zero cost on the noise
// hot path — see BenchmarkDPBoxObsDisabled).
type DPBoxMetrics = dpbox.Metrics

// NewDPBoxMetrics registers the DP-Box metric schema on a registry.
// channels sizes the privacy odometer — one channel per Bank sensor
// or fleet node.
func NewDPBoxMetrics(r *ObsRegistry, channels int) *DPBoxMetrics {
	return dpbox.NewMetrics(r, channels)
}
