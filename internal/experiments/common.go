// Package experiments reproduces every data-bearing table and figure
// of the paper. Each exhibit has a Run function returning structured
// results plus a text renderer printing the same rows/series the
// paper reports; cmd/dpbench drives them and the root bench_test.go
// wraps each in a testing.B benchmark.
//
// Absolute values depend on the substituted substrates (synthetic
// datasets, simulated hardware), so the criteria are the paper's
// shapes: who wins, by what order, and where behaviour changes. Those
// shape claims are asserted by this package's tests; EXPERIMENTS.md
// records paper-vs-measured numbers side by side.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"

	"ulpdp/internal/core"
	"ulpdp/internal/dataset"
	"ulpdp/internal/laplace"
	"ulpdp/internal/urng"
)

// Config tunes experiment scale. The zero value is invalid; use
// Default() or Quick().
type Config struct {
	// Seed makes every experiment deterministic.
	Seed uint64
	// Trials is the number of repeated noisy releases per utility
	// cell. The paper uses 500; Default uses fewer to keep the whole
	// suite in CPU-minutes.
	Trials int
	// MaxEntries caps each dataset's size in utility loops (the
	// largest Table I dataset has 164,860 rows). 0 = no cap.
	MaxEntries int
	// Eps is the per-report privacy parameter for the utility suite
	// (the paper's tables use ε = 0.5).
	Eps float64
	// Mult is the guard loss multiplier (worst case Mult·ε).
	Mult float64
	// DataDir optionally points at a directory of real dataset CSVs
	// (one per Table I dataset, named per dataset.Meta.FileName).
	// When a file exists there it replaces the synthetic regenerator,
	// letting the utility suite run on the true UCI data.
	DataDir string
}

// Default returns the full-scale configuration.
func Default() Config {
	return Config{Seed: 2018, Trials: 40, MaxEntries: 20000, Eps: 0.5, Mult: 2}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Config {
	return Config{Seed: 2018, Trials: 4, MaxEntries: 1500, Eps: 0.5, Mult: 2}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("experiments: trials %d < 1", c.Trials)
	}
	if !(c.Eps > 0) {
		return fmt.Errorf("experiments: eps %g <= 0", c.Eps)
	}
	if c.Mult <= 1 {
		return fmt.Errorf("experiments: mult %g <= 1", c.Mult)
	}
	if c.MaxEntries < 0 {
		return fmt.Errorf("experiments: negative entry cap")
	}
	return nil
}

// sensorGridBits is the sensor quantization used across the utility
// suite: every dataset attribute is mapped onto a 2^8-step grid
// (Δ = d/256), the paper's "sensors with resolution up to 13 bits"
// regime scaled to keep exact analysis cheap.
const sensorGridBits = 8

// rngBu and rngBy are the synthesized DP-Box RNG geometry used by the
// utility suite. B_y = 14 keeps the output word from saturating the
// inverse-CDF bound for ε >= 0.5 (L/Δ ≈ 6030 < 2^13).
const (
	rngBu = 17
	rngBy = 14
)

// paramsFor builds the privacy parameters for one dataset.
func paramsFor(m dataset.Meta, eps float64) core.Params {
	d := m.Range()
	return core.Params{
		Lo:    m.Min,
		Hi:    m.Max,
		Eps:   eps,
		Bu:    rngBu,
		By:    rngBy,
		Delta: d / (1 << sensorGridBits),
	}
}

// loadData returns a dataset's values: the real CSV from cfg.DataDir
// when present, the synthetic regenerator otherwise. The entry cap
// applies to both.
func loadData(cfg Config, m dataset.Meta) []float64 {
	if cfg.DataDir != "" {
		if xs, err := m.Load(cfg.DataDir); err == nil {
			return capEntries(xs, cfg.MaxEntries)
		}
	}
	return capEntries(m.Generate(cfg.Seed), cfg.MaxEntries)
}

// capEntries truncates data to the configured cap.
func capEntries(xs []float64, cap int) []float64 {
	if cap > 0 && len(xs) > cap {
		return xs[:cap]
	}
	return xs
}

// Setting identifies one of the four compared noising settings of
// Tables II-V.
type Setting int

const (
	// SettingIdeal is the real-valued Laplace reference.
	SettingIdeal Setting = iota
	// SettingBaseline is the naive FxP implementation (no guard).
	SettingBaseline
	// SettingResampling is the FxP implementation with resampling.
	SettingResampling
	// SettingThresholding is the FxP implementation with thresholding.
	SettingThresholding
)

// Settings lists the four settings in the tables' column order.
var Settings = []Setting{SettingIdeal, SettingBaseline, SettingResampling, SettingThresholding}

// String implements fmt.Stringer.
func (s Setting) String() string {
	switch s {
	case SettingIdeal:
		return "Ideal Local DP"
	case SettingBaseline:
		return "FxP HW Baseline"
	case SettingResampling:
		return "Resampling"
	case SettingThresholding:
		return "Thresholding"
	}
	return fmt.Sprintf("Setting(%d)", int(s))
}

// LDP reports whether the setting guarantees local DP (the "LDP?"
// column of Tables II-V).
func (s Setting) LDP() bool { return s != SettingBaseline }

// guard returns the core guard a guarded setting runs.
func (s Setting) guard() core.Guard {
	if s == SettingResampling {
		return core.GuardResampling
	}
	return core.GuardThresholding
}

// mechanismFor constructs the mechanism for a setting, with the fast
// exact log unit (the sweeps measure utility, not the datapath) and
// the guard threshold from core.GuardThreshold.
func mechanismFor(s Setting, par core.Params, mult float64, seed uint64) (core.Mechanism, error) {
	switch s {
	case SettingIdeal:
		return core.NewIdealLaplace(par, seed)
	case SettingBaseline:
		return core.NewBaseline(par, fastLog, urng.NewTaus88(seed))
	}
	th, err := core.GuardThreshold(par, s.guard(), mult, 0)
	if err != nil {
		return nil, err
	}
	if s == SettingResampling {
		return core.NewResampling(par, th, fastLog, urng.NewTaus88(seed))
	}
	return core.NewThresholding(par, th, fastLog, urng.NewTaus88(seed))
}

// ldpCache memoizes per-parameter LDP certification verdicts: the
// exact analyzer run is the expensive part of the utility tables.
var (
	ldpMu    sync.Mutex
	ldpCache = map[core.Params]map[Setting]bool{}
)

// fastLog is the exact float64 log unit used where datapath fidelity
// is not under test (large utility sweeps); the CORDIC unit is used
// wherever the hardware path itself is the subject.
var fastLog = laplace.FloatLog{FracBits: 50}

// fprintf writes formatted output, ignoring errors (report rendering
// is best-effort on the way to a terminal).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// fmtG formats a float compactly for tables.
func fmtG(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v != 0 && (math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
