// Package hwmodel estimates synthesis results (gate count, critical
// path, power) for DP-Box variants, substituting for the paper's
// Synopsys Design Compiler runs in a 65 nm node (Section V).
//
// The model is component-based: per-block gate and delay formulas for
// the Tausworthe URNG, the unrolled CORDIC logarithm, the scaling
// shifter, the guard datapath and the budget logic, calibrated so the
// paper's published design point is reproduced exactly
// (10431 gates, 58.66 ns critical path, 158.3 µW at 16 MHz, with the
// budget logic contributing 11% of area). It reproduces the *shape*
// of the paper's design-space observations — pipelining shortens the
// critical path at the cost of area, tighter timing constraints cost
// area and power — not transistor-level truth.
package hwmodel

import (
	"fmt"
	"math"
)

// Tech describes the technology node coefficients. The 65 nm values
// are calibrated against the paper's published synthesis point.
type Tech struct {
	// Name labels the node.
	Name string
	// GateDelayNs is the average logic delay per gate level.
	GateDelayNs float64
	// RegOverheadNs is the setup+clk-to-q cost of a pipeline register.
	RegOverheadNs float64
	// DynPerGateMHzUW is dynamic power per gate per MHz (µW).
	DynPerGateMHzUW float64
	// LeakPerGateUW is leakage power per gate (µW).
	LeakPerGateUW float64
}

// Tech65nm is the calibrated 65 nm node.
var Tech65nm = Tech{
	Name:            "65nm",
	GateDelayNs:     0.30929, // calibrated: 30-stage CORDIC datapath -> 58.66 ns
	RegOverheadNs:   0.45,
	DynPerGateMHzUW: 7.590e-4, // calibrated: 158.3 µW @ 16 MHz, 20% leakage
	LeakPerGateUW:   3.035e-3,
}

// Config selects a DP-Box hardware variant.
type Config struct {
	// Width is the datapath word width in bits (the paper uses 20).
	Width int
	// CordicIters is the number of unrolled CORDIC stages.
	CordicIters int
	// PipelineDepth cuts the combinational path into this many
	// stages (1 = fully combinational, the paper's baseline).
	PipelineDepth int
	// BudgetLogic includes the embedded budget controller (+11% area
	// in the paper).
	BudgetLogic bool
	// RNGCopies is the number of parallel noise datapaths (URNG +
	// CORDIC + scaler). The constant-time resampling mitigation of
	// Section IV-C needs one copy per candidate sample; the paper's
	// baseline has 1.
	RNGCopies int
	// TargetNs is the synthesis timing constraint; 0 means relaxed
	// (synthesize at natural delay). Constraints tighter than the
	// natural delay cost area and power (gate upsizing).
	TargetNs float64
	// Tech is the technology node; zero value selects Tech65nm.
	Tech Tech
}

// Baseline is the paper's synthesized configuration: 20-bit datapath,
// fully combinational 30-stage CORDIC, embedded budget logic,
// synthesized at its natural critical path.
var Baseline = Config{Width: 20, CordicIters: 30, PipelineDepth: 1, BudgetLogic: true}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Width < 8 || c.Width > 64 {
		return fmt.Errorf("hwmodel: width %d out of range [8,64]", c.Width)
	}
	if c.CordicIters < 4 || c.CordicIters > 60 {
		return fmt.Errorf("hwmodel: cordic iterations %d out of range [4,60]", c.CordicIters)
	}
	if c.PipelineDepth < 1 || c.PipelineDepth > 16 {
		return fmt.Errorf("hwmodel: pipeline depth %d out of range [1,16]", c.PipelineDepth)
	}
	if c.RNGCopies < 0 || c.RNGCopies > 16 {
		return fmt.Errorf("hwmodel: RNG copies %d out of range [0,16]", c.RNGCopies)
	}
	if c.TargetNs < 0 {
		return fmt.Errorf("hwmodel: negative timing target")
	}
	return nil
}

// Report is the synthesis estimate for one variant.
type Report struct {
	// Gates is the equivalent NAND2 gate count.
	Gates int
	// CritPathNs is the achieved critical path.
	CritPathNs float64
	// FMaxMHz is the maximum clock frequency.
	FMaxMHz float64
	// PowerUW is total power at the report's clock frequency.
	PowerUW float64
	// ClockMHz is the frequency PowerUW was evaluated at.
	ClockMHz float64
	// MeetsTarget reports whether the timing constraint was met.
	MeetsTarget bool
	// AreaBudgetFrac is the fraction of area in the budget logic.
	AreaBudgetFrac float64
}

// gatesPerAdderBit is the NAND2-equivalent cost of one full-adder bit
// including the carry chain contribution.
const gatesPerAdderBit = 4.16542 // calibrated against the paper's 10431-gate point

// Synthesize estimates one variant at the given clock frequency.
func Synthesize(cfg Config, clockMHz float64) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if clockMHz <= 0 {
		return Report{}, fmt.Errorf("hwmodel: non-positive clock %g MHz", clockMHz)
	}
	tech := cfg.Tech
	if tech == (Tech{}) {
		tech = Tech65nm
	}
	w := float64(cfg.Width)
	iters := float64(cfg.CordicIters)

	copies := float64(cfg.RNGCopies)
	if copies == 0 {
		copies = 1
	}
	// Component gate counts (NAND2 equivalents).
	urng := copies * 3 * 32 * 1.6                       // three Tausworthe components: shifts, xors, masks
	cordic := copies * iters * 3 * w * gatesPerAdderBit // x/y/z add-shift per stage, fully unrolled
	scale := copies * 3 * w * math.Log2(w)              // barrel shifter for the 2^-n_m scaling
	guard := 2*w*gatesPerAdderBit + 4*w                 // output adder, two comparators, clamp muxes
	fsm := 120.0                                        // three-phase controller + command decode
	regs := 8 * w * 7                                   // architectural registers (x, ranges, eps, out, Iu, timer)
	pipeRegs := float64(cfg.PipelineDepth-1) * 3 * w * 8

	comb := urng + cordic + scale + guard + fsm + regs + pipeRegs
	budget := 0.0
	if cfg.BudgetLogic {
		budget = comb * 0.11 // the paper's measured 11% overhead
	}
	gates := comb + budget

	// Critical path: the unrolled CORDIC dominates; each stage is an
	// adder (log-depth carry) plus routing, divided across pipeline
	// stages with register overhead.
	adderLevels := math.Log2(w) + 2
	combDelay := iters * adderLevels * tech.GateDelayNs
	crit := combDelay/float64(cfg.PipelineDepth) + tech.RegOverheadNs*boolTo(cfg.PipelineDepth > 1)

	// A timing constraint tighter than the natural delay forces gate
	// upsizing: area and power grow, delay shrinks toward a floor.
	meets := true
	if cfg.TargetNs > 0 && cfg.TargetNs < crit {
		ratio := crit / cfg.TargetNs
		floor := crit * 0.45 // upsizing cannot beat ~2.2x speedup
		achieved := math.Max(cfg.TargetNs, floor)
		meets = achieved <= cfg.TargetNs
		upsize := 1 + 0.55*(ratio-1)
		if !meets {
			upsize = 1 + 0.55*(crit/floor-1)
		}
		gates *= upsize
		crit = achieved
	}

	power := gates * (tech.DynPerGateMHzUW*clockMHz + tech.LeakPerGateUW)
	rep := Report{
		Gates:       int(math.Round(gates)),
		CritPathNs:  crit,
		FMaxMHz:     1000 / crit,
		PowerUW:     power,
		ClockMHz:    clockMHz,
		MeetsTarget: meets,
	}
	if cfg.BudgetLogic {
		rep.AreaBudgetFrac = budget / gates
	}
	return rep, nil
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
