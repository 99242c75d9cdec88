package hwmodel

import (
	"math"
	"testing"
)

func TestBaselineMatchesPaperPoint(t *testing.T) {
	// The model is calibrated to the paper's published synthesis
	// point: 10431 gates, 58.66 ns, 158.3 µW at 16 MHz.
	rep, err := Synthesize(Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rep.Gates)-10431) > 0.01*10431 {
		t.Errorf("gates = %d, want ~10431", rep.Gates)
	}
	if math.Abs(rep.CritPathNs-58.66) > 0.01*58.66 {
		t.Errorf("critical path = %g ns, want ~58.66", rep.CritPathNs)
	}
	if math.Abs(rep.PowerUW-158.3) > 0.01*158.3 {
		t.Errorf("power = %g µW, want ~158.3", rep.PowerUW)
	}
	if !rep.MeetsTarget {
		t.Error("unconstrained synthesis should meet timing")
	}
	if math.Abs(rep.AreaBudgetFrac-0.11/1.11) > 0.01 {
		t.Errorf("budget area fraction = %g, want ~%g", rep.AreaBudgetFrac, 0.11/1.11)
	}
}

func TestBudgetLogicOverhead(t *testing.T) {
	with, err := Synthesize(Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline
	cfg.BudgetLogic = false
	without, err := Synthesize(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(with.Gates)/float64(without.Gates) - 1
	if math.Abs(overhead-0.11) > 0.005 {
		t.Errorf("budget overhead = %g, want 0.11", overhead)
	}
	if without.AreaBudgetFrac != 0 {
		t.Error("no budget logic should mean zero budget area")
	}
}

func TestPipeliningTradesAreaForSpeed(t *testing.T) {
	base, err := Synthesize(Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline
	cfg.PipelineDepth = 4
	piped, err := Synthesize(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if piped.CritPathNs >= base.CritPathNs {
		t.Errorf("pipelining should cut the critical path: %g -> %g", base.CritPathNs, piped.CritPathNs)
	}
	if piped.Gates <= base.Gates {
		t.Errorf("pipelining should cost area: %d -> %d", base.Gates, piped.Gates)
	}
	if piped.FMaxMHz <= base.FMaxMHz {
		t.Error("pipelining should raise fmax")
	}
}

func TestTightTimingCostsAreaAndPower(t *testing.T) {
	cfg := Baseline
	cfg.TargetNs = 30
	tight, err := Synthesize(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Synthesize(Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.MeetsTarget {
		t.Error("30 ns should be achievable by upsizing")
	}
	if tight.CritPathNs > 30+1e-9 {
		t.Errorf("achieved %g ns > 30 ns target", tight.CritPathNs)
	}
	if tight.Gates <= base.Gates {
		t.Errorf("tight timing should cost area: %d vs %d", tight.Gates, base.Gates)
	}
	if tight.PowerUW <= base.PowerUW {
		t.Errorf("tight timing should cost power: %g vs %g", tight.PowerUW, base.PowerUW)
	}
}

func TestImpossibleTargetReported(t *testing.T) {
	cfg := Baseline
	cfg.TargetNs = 1 // far below the upsizing floor
	rep, err := Synthesize(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeetsTarget {
		t.Error("1 ns target should not be met by a combinational 30-stage CORDIC")
	}
	if rep.CritPathNs <= 1 {
		t.Errorf("achieved %g ns below physical floor", rep.CritPathNs)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Width: 4, CordicIters: 30, PipelineDepth: 1},
		{Width: 20, CordicIters: 2, PipelineDepth: 1},
		{Width: 20, CordicIters: 30, PipelineDepth: 0},
		{Width: 20, CordicIters: 30, PipelineDepth: 1, TargetNs: -5},
	}
	for i, cfg := range bad {
		if _, err := Synthesize(cfg, 16); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := Synthesize(Baseline, 0); err == nil {
		t.Error("zero clock should be rejected")
	}
}

func TestPowerScalesWithClock(t *testing.T) {
	slow, err := Synthesize(Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Synthesize(Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	if fast.PowerUW <= slow.PowerUW {
		t.Error("power must grow with clock")
	}
	// Leakage floor: at 1 MHz power is dominated by leakage, not 16x
	// smaller than at 16 MHz.
	if fast.PowerUW/slow.PowerUW > 10 {
		t.Errorf("power ratio %g implausible with leakage floor", fast.PowerUW/slow.PowerUW)
	}
}

func TestWiderDatapathCostsMore(t *testing.T) {
	narrow := Baseline
	narrow.Width = 16
	wide := Baseline
	wide.Width = 32
	n, err := Synthesize(narrow, 16)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Synthesize(wide, 16)
	if err != nil {
		t.Fatal(err)
	}
	if w.Gates <= n.Gates {
		t.Error("wider datapath should cost gates")
	}
	if w.CritPathNs <= n.CritPathNs {
		t.Error("wider datapath should be slower")
	}
}

func TestRNGCopiesCostArea(t *testing.T) {
	base, err := Synthesize(Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	quad := Baseline
	quad.RNGCopies = 4
	rep, err := Synthesize(quad, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Four noise datapaths roughly triple the area (the RNG dominates
	// the module), but the critical path is unchanged — they run in
	// parallel.
	if rep.Gates < 2*base.Gates {
		t.Errorf("4 copies = %d gates vs %d baseline; expected > 2x", rep.Gates, base.Gates)
	}
	if rep.CritPathNs != base.CritPathNs {
		t.Errorf("parallel copies changed the critical path: %g vs %g", rep.CritPathNs, base.CritPathNs)
	}
	bad := Baseline
	bad.RNGCopies = 99
	if _, err := Synthesize(bad, 16); err == nil {
		t.Error("excessive copies accepted")
	}
}
