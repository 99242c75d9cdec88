package dpbox

import (
	"math"
	"slices"
	"sync"
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/urng"
)

// boot powers up a DP-Box with a generous budget and a standard
// 8-step sensor range at ε = 0.5 (shift 1).
func boot(t *testing.T, cfg Config, budget float64) *DPBox {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(budget, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	return b
}

func smallCfg(seed uint64) Config {
	return Config{Bu: 12, By: 10, Mult: 2, Multipliers: []float64{1.25, 1.5}, Source: urng.NewTaus88(seed)}
}

func TestPowerUpPhase(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Phase() != PhaseInit {
		t.Errorf("phase = %v, want init", b.Phase())
	}
}

func TestNewRejectsBadMult(t *testing.T) {
	if _, err := New(Config{Bu: 12, By: 10, Mult: 0.5}); err == nil {
		t.Error("mult <= 1 should be rejected")
	}
}

func TestInitializationLocksBudget(t *testing.T) {
	b, err := New(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(5, 100); err != nil {
		t.Fatal(err)
	}
	if b.Phase() != PhaseWaiting {
		t.Fatalf("phase = %v", b.Phase())
	}
	if got := b.BudgetRemaining(); math.Abs(got-5) > 1e-9 {
		t.Errorf("budget = %g", got)
	}
	// Re-initialization requires a power cycle.
	if err := b.Initialize(100, 0); err == nil {
		t.Error("re-initialization should fail")
	}
	// Budget commands no longer reach the budget registers: in the
	// waiting phase SetEpsilon sets n_m instead.
	if err := b.Command(CmdSetEpsilon, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.BudgetRemaining(); math.Abs(got-5) > 1e-9 {
		t.Errorf("budget changed after lock: %g", got)
	}
}

func TestInitRequiresBudget(t *testing.T) {
	b, err := New(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Command(CmdStartNoising, 0); err == nil {
		t.Error("start without budget should fail")
	}
}

func TestInitRejectsNegatives(t *testing.T) {
	b, err := New(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Command(CmdSetEpsilon, -1); err == nil {
		t.Error("negative budget should fail")
	}
	if err := b.Command(CmdSetRangeUpper, -1); err == nil {
		t.Error("negative replenishment period should fail")
	}
	if err := b.Command(CmdSetSensorValue, 0); err == nil {
		t.Error("sensor value in init phase should fail")
	}
}

func TestNoisingRequiresConfiguration(t *testing.T) {
	b, err := New(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.NoiseValue(3); err == nil {
		t.Error("noising before configuration should fail")
	}
}

func TestThresholdingLatencyIsTwoCycles(t *testing.T) {
	b := boot(t, smallCfg(2), 1e9)
	for i := 0; i < 200; i++ {
		r, err := b.NoiseValue(8)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != 2 {
			t.Fatalf("thresholding latency = %d cycles, want 2", r.Cycles)
		}
		if r.Resamples != 0 {
			t.Fatal("thresholding must not resample")
		}
	}
}

func TestResamplingLatency(t *testing.T) {
	b := boot(t, smallCfg(3), 1e9)
	if err := b.SetResampling(true); err != nil {
		t.Fatal(err)
	}
	var total, n int
	sawResample := false
	for i := 0; i < 5000; i++ {
		r, err := b.NoiseValue(16) // extreme input maximizes resampling
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != 2+r.Resamples {
			t.Fatalf("latency %d != 2 + %d resamples", r.Cycles, r.Resamples)
		}
		if r.Resamples > 0 {
			sawResample = true
		}
		total += r.Cycles
		n++
	}
	if !sawResample {
		t.Error("expected some resamples from an extreme input")
	}
	// The paper's Fig. 11 observation: resampling adds less than one
	// cycle on average.
	if avg := float64(total) / float64(n); avg >= 3 {
		t.Errorf("average latency %g exceeds 3 cycles", avg)
	}
}

func TestOutputsStayInGuardWindow(t *testing.T) {
	b := boot(t, smallCfg(4), 1e9)
	if _, err := b.NoiseValue(16); err != nil {
		t.Fatal(err) // derive the threshold
	}
	if b.Threshold() == 0 {
		t.Fatal("threshold not derived")
	}
	lo := -b.Threshold()
	hi := int64(16) + b.Threshold()
	for i := 0; i < 5000; i++ {
		r, err := b.NoiseValue(16)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value < lo || r.Value > hi {
			t.Fatalf("output %d outside [%d, %d]", r.Value, lo, hi)
		}
	}
}

func TestGuardWindowMatchesCoreThreshold(t *testing.T) {
	b := boot(t, smallCfg(5), 1e9)
	if _, err := b.NoiseValue(8); err != nil {
		t.Fatal(err)
	}
	par := core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}
	want, err := core.ThresholdingThreshold(par, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Threshold() != want {
		t.Errorf("threshold = %d, want %d", b.Threshold(), want)
	}
}

func TestBudgetExhaustionCaches(t *testing.T) {
	b := boot(t, smallCfg(6), 2)
	var fresh, cached int
	var cachedVal int64
	first := true
	for i := 0; i < 100; i++ {
		r, err := b.NoiseValue(8)
		if err != nil {
			t.Fatal(err)
		}
		if r.FromCache {
			cached++
			if r.Charged != 0 {
				t.Error("cached output charged")
			}
			if !first && r.Value != cachedVal {
				t.Errorf("cache value changed: %d != %d", r.Value, cachedVal)
			}
			cachedVal = r.Value
			first = false
		} else {
			fresh++
			cachedVal = r.Value
			if r.Charged <= 0 {
				t.Error("fresh output did not charge")
			}
		}
	}
	if fresh == 0 || cached == 0 {
		t.Errorf("fresh=%d cached=%d; want both non-zero", fresh, cached)
	}
	if b.BudgetRemaining() != 0 {
		t.Errorf("remaining = %g", b.BudgetRemaining())
	}
}

func TestReplenishmentRestoresBudget(t *testing.T) {
	cfg := smallCfg(7)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	// Exhaust.
	for b.BudgetRemaining() > 0 {
		if _, err := b.NoiseValue(8); err != nil {
			t.Fatal(err)
		}
	}
	// Idle until the period elapses.
	for i := 0; i < 60; i++ {
		b.Step()
	}
	if got := b.BudgetRemaining(); math.Abs(got-1) > 1e-9 {
		t.Errorf("budget after replenishment = %g, want 1", got)
	}
}

func TestRandomizedResponseMode(t *testing.T) {
	b := boot(t, smallCfg(8), 1e9)
	if err := b.OverrideThreshold(0); err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	for i := 0; i < 3000; i++ {
		r, err := b.NoiseValue(0)
		if err != nil {
			t.Fatal(err)
		}
		switch r.Value {
		case 0:
			lo++
		case 16:
			hi++
		default:
			t.Fatalf("RR output %d not a category boundary", r.Value)
		}
	}
	if lo == 0 || hi == 0 {
		t.Errorf("degenerate RR: lo=%d hi=%d", lo, hi)
	}
	if lo < hi {
		t.Errorf("true category should dominate: lo=%d hi=%d", lo, hi)
	}
}

func TestGuardDisabledProducesTailOutputs(t *testing.T) {
	cfg := smallCfg(9)
	cfg.GuardDisabled = true
	b := boot(t, cfg, 1e9)
	beyond := false
	certified, err := core.ThresholdingThreshold(core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && !beyond; i++ {
		r, err := b.NoiseValue(16)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value > 16+certified || r.Value < -certified {
			beyond = true
		}
	}
	if !beyond {
		t.Error("naive mode never produced an out-of-window output (should leak)")
	}
}

func TestBusyRejectsCommands(t *testing.T) {
	b := boot(t, smallCfg(10), 1e9)
	if err := b.SetResampling(true); err != nil {
		t.Fatal(err)
	}
	// Force a long transaction by stepping manually from noising.
	if err := b.Command(CmdSetSensorValue, 16); err != nil {
		t.Fatal(err)
	}
	if err := b.Command(CmdStartNoising, 0); err != nil {
		t.Fatal(err)
	}
	for !b.Ready() {
		// While noising (if still busy), commands are rejected.
		if b.Phase() == PhaseNoising {
			if err := b.Command(CmdSetSensorValue, 1); err == nil {
				t.Fatal("command accepted while noising")
			}
		}
		b.Step()
	}
}

func TestChargesMatchBandStructure(t *testing.T) {
	b := boot(t, smallCfg(11), 1e9)
	if _, err := b.NoiseValue(8); err != nil {
		t.Fatal(err)
	}
	// Interior raw outputs cost the interior charge; the most an
	// output can cost is Mult·ε rounded up to a sixteenth.
	interiorU, topU := boxUnits(b)
	interior := float64(interiorU) * chargeUnit
	if interior < 0.4 || interior > 1 {
		t.Errorf("interior charge = %g implausible for ε=0.5", interior)
	}
	top := float64(topU) * chargeUnit
	if top < 1 || top > 1.1 {
		t.Errorf("top charge = %g, want ~2·ε = 1", top)
	}
	for y := -b.Threshold(); y <= 16+b.Threshold(); y++ {
		_, c := b.plan.Charge(y)
		if c < interiorU || c > topU {
			t.Errorf("charge for %d = %d outside [%d, %d]", y, c, interiorU, topU)
		}
	}
}

func TestEpsilonShift(t *testing.T) {
	b := boot(t, smallCfg(12), 1e9)
	if got := b.Epsilon(); got != 0.5 {
		t.Errorf("epsilon = %g, want 0.5", got)
	}
	if err := b.Command(CmdSetEpsilon, 2); err != nil {
		t.Fatal(err)
	}
	if got := b.Epsilon(); got != 0.25 {
		t.Errorf("epsilon = %g, want 0.25", got)
	}
	if err := b.Command(CmdSetEpsilon, 99); err == nil {
		t.Error("out-of-range shift accepted")
	}
}

func TestCommandStrings(t *testing.T) {
	for cmd, want := range map[Command]string{
		CmdDoNothing: "DoNothing", CmdStartNoising: "StartNoising",
		CmdSetEpsilon: "SetEpsilon", CmdSetSensorValue: "SetSensorValue",
		CmdSetRangeUpper: "SetRangeUpper", CmdSetRangeLower: "SetRangeLower",
		CmdSetThreshold: "SetThreshold", Command(7): "Command(7)",
	} {
		if got := cmd.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", uint8(cmd), got, want)
		}
	}
	for p, want := range map[Phase]string{
		PhaseInit: "init", PhaseWaiting: "waiting", PhaseNoising: "noising", Phase(9): "Phase(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Phase.String = %q, want %q", got, want)
		}
	}
}

func TestDoNothingHoldsState(t *testing.T) {
	b := boot(t, smallCfg(13), 1e9)
	before := b.Phase()
	if err := b.Command(CmdDoNothing, 0); err != nil {
		t.Fatal(err)
	}
	if b.Phase() != before {
		t.Error("DoNothing changed phase")
	}
}

func TestEmptyRangeRejected(t *testing.T) {
	b, err := New(smallCfg(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(1, 16, 0); err != nil {
		t.Fatal(err) // register writes themselves succeed
	}
	if err := b.Command(CmdSetSensorValue, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Command(CmdStartNoising, 0); err == nil {
		t.Error("noising with inverted range should fail")
	}
}

func TestDistributionMatchesCoreMechanism(t *testing.T) {
	// The DP-Box thresholding output distribution must match the
	// reference core.Thresholding mechanism given the same threshold.
	cfg := smallCfg(15)
	b := boot(t, cfg, 1e15)
	if _, err := b.NoiseValue(8); err != nil {
		t.Fatal(err)
	}
	par := core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}
	ref, err := core.NewThresholding(par, b.Threshold(), nil, urng.NewTaus88(99))
	if err != nil {
		t.Fatal(err)
	}
	const n = 120000
	counts := map[int64]int{}
	refCounts := map[int64]int{}
	for i := 0; i < n; i++ {
		r, err := b.NoiseValue(8)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.Value]++
		refCounts[int64(math.Round(ref.Noise(8).Value))]++
	}
	for _, y := range []int64{8, 0, 16, 8 - b.Threshold()/2} {
		got := float64(counts[y]) / n
		want := float64(refCounts[y]) / n
		if math.Abs(got-want) > 6*math.Sqrt(want/n)+2e-3 {
			t.Errorf("P(y=%d): dpbox %g vs reference %g", y, got, want)
		}
	}
}

// TestConcurrentDeriveSharesPlans powers up 64 DP-Boxes at once on a
// cold analyzer cache, over two geometries and both guards, so their
// derives race on the shared guard-plan memo (run it under -race).
// Every box of one configuration must end with the same plan.
func TestConcurrentDeriveSharesPlans(t *testing.T) {
	core.ResetAnalyzerCache()
	defer core.ResetAnalyzerCache()
	type geometry struct {
		bu, by int
		hi     int64
	}
	geos := []geometry{{12, 10, 16}, {17, 12, 20}}
	type plan struct {
		units []int64
		th    int64
		cap   int
		degTh int64
		degOK bool
	}
	const boxes = 64
	plans := make([]plan, boxes)
	var wg sync.WaitGroup
	for i := 0; i < boxes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := geos[i%2]
			box, err := New(Config{Bu: g.bu, By: g.by, Source: urng.NewTaus88(uint64(i + 1))})
			if err == nil {
				err = box.Initialize(1e6, 0)
			}
			if err == nil {
				err = box.Configure(1, 0, g.hi)
			}
			if err == nil {
				err = box.SetResampling(i/2%2 == 1)
			}
			if err == nil {
				_, err = box.NoiseValue(g.hi / 2)
			}
			if err != nil {
				t.Error(err)
				return
			}
			degTh, degOK := box.DegradeThreshold()
			plans[i] = plan{units: box.plan.Units, th: box.Threshold(), cap: box.ResampleCap(),
				degTh: degTh, degOK: degOK}
		}(i)
	}
	wg.Wait()
	for i := 4; i < boxes; i++ {
		got, want := plans[i], plans[i%4]
		if got.th != want.th || got.cap != want.cap || got.degTh != want.degTh ||
			got.degOK != want.degOK || !slices.Equal(got.units, want.units) {
			t.Errorf("box %d (geometry %d, resampling %v) derived %+v, box %d derived %+v",
				i, i%2, i/2%2 == 1, got, i%4, want)
		}
	}
}
