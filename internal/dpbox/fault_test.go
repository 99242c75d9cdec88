package dpbox

import (
	"errors"
	"math"
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/fault"
	"ulpdp/internal/laplace"
)

// constSource is a urng.Source stuck at a single word — the software
// twin of the fault plane's StuckWord injector, used to predict what
// the hardware must emit under that fault.
type constSource uint32

func (c constSource) Uint32() uint32 { return uint32(c) }

// faultCfg is smallCfg with a fresh fault plane attached.
func faultCfg(seed uint64) (Config, *fault.Plane) {
	fp := fault.NewPlane()
	cfg := smallCfg(seed)
	cfg.Faults = fp
	return cfg, fp
}

// bootResampling powers up a resampling-mode box and runs one honest
// transaction so the guard threshold and watchdog are derived.
func bootResampling(t *testing.T, cfg Config) *DPBox {
	t.Helper()
	b := boot(t, cfg, 1e9)
	if err := b.SetResampling(true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.NoiseValue(8); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWatchdogBoundsAdversarialResampling is the tentpole termination
// guarantee: an always-out-of-window URNG (stuck at the minimal word,
// i.e. the maximal noise magnitude every draw) must not stall the
// resampling loop. The watchdog trips within its analytically derived
// cap and the transaction degrades to the certified thresholding
// clamp.
func TestWatchdogBoundsAdversarialResampling(t *testing.T) {
	cfg, fp := faultCfg(21)
	b := bootResampling(t, cfg)

	cap := b.plan.Cap
	if cap < 4 || cap > 2048 {
		t.Fatalf("resample cap %d outside [4, 2048]", cap)
	}
	degTh, ok := b.DegradeThreshold()
	if !ok {
		t.Fatal("no certified degrade threshold derived")
	}

	// Stuck word 1: magnitude draw m=1 (the largest noise step count)
	// and sign bit 1 on every draw — never inside the window.
	fp.SetURNGFault(fault.StuckWord(1))
	r, err := b.NoiseValue(8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || !b.LastDegraded() {
		t.Fatal("adversarial URNG must trip the resample watchdog")
	}
	if r.Resamples != cap {
		t.Errorf("tripped after %d resamples, watchdog cap is %d", r.Resamples, cap)
	}
	if r.Cycles > cap+4 {
		t.Errorf("transaction took %d cycles, cap+overhead is %d", r.Cycles, cap+4)
	}
	if got, lo, hi := r.Value, -degTh, 16+degTh; got < lo || got > hi {
		t.Errorf("degraded output %d outside the certified window [%d, %d]", got, lo, hi)
	}
	// The degraded path must charge at least the certified worst case.
	if r.Charged < cfg.Mult*0.5-1e-9 {
		t.Errorf("degraded transaction charged %g nats, want >= Mult·ε = %g", r.Charged, cfg.Mult*0.5)
	}
	if fp.Injections(fault.KindURNG) == 0 {
		t.Error("fault plane recorded no URNG injections")
	}

	// After the fault clears, the box recovers on its own: the next
	// transaction resamples normally.
	fp.SetURNGFault(nil)
	r, err = b.NoiseValue(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded {
		t.Error("healthy URNG must not trip the watchdog")
	}
}

// TestDegradedOutputMatchesCertifiedThresholdingPMF pins the landing
// distribution of a watchdog trip: the degraded output is exactly the
// thresholding clamp (at the separately certified threshold) of the
// final adversarial sample, and that clamp's full output PMF is
// certified <= Mult·ε by the exact analyzer. Every fault path lands
// on an already-certified distribution.
func TestDegradedOutputMatchesCertifiedThresholdingPMF(t *testing.T) {
	par := core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}

	// Stuck word 1 draws sign 1 (negative); stuck word 2 draws sign 0
	// (positive). Both magnitudes are far outside every window, so the
	// degraded outputs must be the two thresholding boundary atoms.
	for _, stuck := range []uint32{1, 2} {
		cfg, fp := faultCfg(23)
		b := bootResampling(t, cfg)
		degTh, ok := b.DegradeThreshold()
		if !ok {
			t.Fatal("no certified degrade threshold")
		}

		// Predict the hardware: the same sampler geometry over the
		// same stuck source gives the raw sample the clamp sees.
		s, err := laplace.NewSampler(par.FxP(), nil, constSource(stuck))
		if err != nil {
			t.Fatal(err)
		}
		raw := 8 + s.SampleK()
		want := raw
		if lo := -degTh; want < lo {
			want = lo
		}
		if hi := int64(16) + degTh; want > hi {
			want = hi
		}
		if want != -degTh && want != 16+degTh {
			t.Fatalf("stuck=%d: test premise broken; raw sample %d is inside the window", stuck, raw)
		}

		fp.SetURNGFault(fault.StuckWord(stuck))
		for i := 0; i < 25; i++ {
			r, err := b.NoiseValue(8)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Degraded {
				t.Fatal("expected every transaction to degrade")
			}
			if r.Value != want {
				t.Fatalf("stuck=%d: degraded output %d, thresholding clamp gives %d", stuck, r.Value, want)
			}
		}
	}

	// The acceptance certificate: the degrade threshold's whole output
	// distribution is bounded by the exact analyzer at Mult·ε.
	cfg, _ := faultCfg(23)
	b := bootResampling(t, cfg)
	degTh, _ := b.DegradeThreshold()
	rep := core.CachedAnalyzer(par).ThresholdingLoss(degTh)
	if rep.Infinite || !rep.Bounded(cfg.Mult*par.Eps) {
		t.Errorf("degrade threshold %d not certified: loss %g (infinite=%v), budget %g",
			degTh, rep.MaxLoss, rep.Infinite, cfg.Mult*par.Eps)
	}
}

// replayScript drives a fixed six-transaction trace against a box
// whose ledger is backed by j. It returns the charge (in sixteenth-nat
// units) of every output that was actually emitted before the box
// died, and the error that killed it (nil if it ran to completion).
func replayScript(t *testing.T, j *Journal, fp *fault.Plane) (emitted []int64, runErr error) {
	t.Helper()
	cfg := smallCfg(33)
	cfg.Journal = j
	cfg.Faults = fp
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(1e6, 0); err != nil {
		return nil, err
	}
	if err := b.Configure(1, 0, 16); err != nil {
		return nil, err
	}
	for i := 0; i < 6; i++ {
		r, err := b.NoiseValue(int64(2 + 2*i))
		if err != nil {
			return emitted, err
		}
		if !r.FromCache {
			emitted = append(emitted, int64(math.Round(r.Charged/chargeUnit)))
		}
	}
	return emitted, nil
}

// checkRecovery replays the journal at secure boot and verifies the
// crash-consistency invariant: the recovered ledger has durably
// charged every emitted output (never an uncharged emission), and has
// over-charged by at most one transaction (the charge committed just
// before the output would have been emitted). The recovered box must
// then continue serving.
func checkRecovery(t *testing.T, j *Journal, emitted []int64, maxCharge int64, label string) {
	t.Helper()
	b, err := Recover(smallCfg(33), j)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	switch b.Phase() {
	case PhaseInit:
		// Died before the budget lock: nothing may have been emitted.
		if len(emitted) != 0 {
			t.Fatalf("%s: %d outputs emitted before the budget lock", label, len(emitted))
		}
		if err := b.Initialize(1e6, 0); err != nil {
			t.Fatalf("%s: fresh boot failed: %v", label, err)
		}
	case PhaseWaiting:
		spent := int64(math.Round(1e6/chargeUnit)) - int64(math.Round(b.BudgetRemaining()/chargeUnit))
		var sum int64
		for _, u := range emitted {
			sum += u
		}
		if spent < sum {
			t.Fatalf("%s: emitted %d units but only %d durably spent (uncharged output)", label, sum, spent)
		}
		if spent > sum+maxCharge {
			t.Fatalf("%s: %d units durably spent for %d emitted (+%d max single charge): double-spend",
				label, spent, sum, maxCharge)
		}
	default:
		t.Fatalf("%s: recovered into phase %v", label, b.Phase())
	}
	// Continuation: the recovered box keeps serving and keeps
	// journaling into the compacted log.
	if err := b.Configure(1, 0, 16); err != nil {
		t.Fatalf("%s: post-recovery configure: %v", label, err)
	}
	before := b.BudgetRemaining()
	r, err := b.NoiseValue(5)
	if err != nil {
		t.Fatalf("%s: post-recovery noising: %v", label, err)
	}
	if r.FromCache || r.Charged <= 0 {
		t.Fatalf("%s: post-recovery transaction not freshly charged", label)
	}
	if b.BudgetRemaining() >= before {
		t.Fatalf("%s: post-recovery charge did not debit the ledger", label)
	}
}

// TestPowerLossReplayAtEveryJournalCut is the tentpole crash-
// consistency sweep: the scripted trace is re-run with NVM power cut
// after every possible journal word write, recovered, and checked for
// double-spends and uncharged outputs at each cut point. The word-
// write stream is the only surface where a cut can tear a record, so
// this sweep covers every distinguishable NVM crash state.
func TestPowerLossReplayAtEveryJournalCut(t *testing.T) {
	ref := NewJournal()
	refEmitted, err := replayScript(t, ref, nil)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if len(refEmitted) != 6 {
		t.Fatalf("reference run emitted %d of 6 outputs", len(refEmitted))
	}
	var maxCharge int64
	for _, u := range refEmitted {
		if u > maxCharge {
			maxCharge = u
		}
	}
	total := ref.Writes()
	if total < 20 {
		t.Fatalf("reference journal only %d words; script too small to sweep", total)
	}

	for cut := 0; cut <= total; cut++ {
		j := NewJournal()
		j.FailAfterWrites(cut)
		emitted, runErr := replayScript(t, j, nil)
		if cut < total && runErr == nil {
			t.Fatalf("cut=%d: script survived a power cut before the last write", cut)
		}
		if runErr != nil && !errors.Is(runErr, ErrPowerLost) {
			t.Fatalf("cut=%d: unexpected error %v", cut, runErr)
		}
		checkRecovery(t, j, emitted, maxCharge, "cut="+itoa(cut))
	}
}

// TestPowerLossReplayAtEveryCycle sweeps the other crash surface: the
// device clock. A fault-plane power loss scheduled at every cycle of
// the trace kills CPU-visible state and the NVM together; recovery
// must hold the same ledger invariant.
func TestPowerLossReplayAtEveryCycle(t *testing.T) {
	refPlane := fault.NewPlane()
	ref := NewJournal()
	refEmitted, err := replayScript(t, ref, refPlane)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	var maxCharge int64
	for _, u := range refEmitted {
		if u > maxCharge {
			maxCharge = u
		}
	}
	totalCycles := refPlane.Cycle()

	for cut := uint64(0); cut < totalCycles; cut++ {
		fp := fault.NewPlane()
		fp.SchedulePowerLoss(cut)
		j := NewJournal()
		emitted, runErr := replayScript(t, j, fp)
		if runErr == nil {
			t.Fatalf("cycle=%d: script survived a scheduled power loss", cut)
		}
		if !errors.Is(runErr, ErrPowerLost) {
			t.Fatalf("cycle=%d: unexpected error %v", cut, runErr)
		}
		checkRecovery(t, j, emitted, maxCharge, "cycle="+itoa(int(cut)))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestJournalTornTailRollsBack exercises the replay parser directly:
// an intent whose commit never became durable must be rolled back, and
// a torn record must silently end the scan instead of corrupting the
// ledger.
func TestJournalTornTailRollsBack(t *testing.T) {
	j := NewJournal()
	if !j.appendConfig(100, 0) {
		t.Fatal("config write failed")
	}
	if !j.appendCharge(16) {
		t.Fatal("charge write failed")
	}
	// Intent without commit: power dies between the phases.
	j.FailAfterWrites(6) // intent record is hdr+4+chk = 6 words
	if j.appendCharge(40) {
		t.Fatal("second charge should have been cut")
	}
	j.revive()
	st, err := j.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Configured || st.InitialUnits != 100 {
		t.Fatalf("config not recovered: %+v", st)
	}
	if st.Units != 84 {
		t.Fatalf("recovered %d units, want 100-16=84 (uncommitted intent must roll back)", st.Units)
	}
	// A half-written word inside the intent must behave identically.
	j2 := NewJournal()
	j2.appendConfig(100, 0)
	j2.FailAfterWrites(3)
	j2.appendCharge(16)
	j2.revive()
	st2, err := j2.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Units != 100 {
		t.Fatalf("torn intent changed the balance: %d", st2.Units)
	}
}

// TestHealthGateRefusesFreshNoise wires the online URNG battery as the
// noising gate: while the battery fails the box serves only its
// cache; with no cache it refuses outright; and the gate reopens as
// soon as the fault clears.
func TestHealthGateRefusesFreshNoise(t *testing.T) {
	cfg, fp := faultCfg(29)
	cfg.HealthEvery = 1 // re-check at every StartNoising
	b := boot(t, cfg, 1e9)

	// Healthy boot: the first transaction passes the battery.
	r, err := b.NoiseValue(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache || !b.Healthy() {
		t.Fatal("healthy URNG must pass the gate")
	}
	cached := b.Output()

	// Break the URNG: an all-zero stream fails the monobit test.
	fp.SetURNGFault(fault.StuckWord(0))
	r, err = b.NoiseValue(8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FromCache || r.Charged != 0 {
		t.Fatalf("unhealthy URNG must serve only the cache (got fresh output, charged %g)", r.Charged)
	}
	if r.Value != cached {
		t.Errorf("cache replay returned %d, cached value is %d", r.Value, cached)
	}
	if b.Healthy() {
		t.Fatal("health gate did not record the failing battery")
	}

	// Clear the fault: the gate re-runs the battery and reopens.
	fp.SetURNGFault(nil)
	r, err = b.NoiseValue(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.FromCache {
		t.Fatal("gate did not reopen after the fault cleared")
	}
	if !b.Healthy() {
		t.Error("battery passed but Healthy() is false")
	}
}

// TestHealthGateFailsClosedWithoutCache covers the no-cache corner: a
// box whose URNG is broken from the first transaction has nothing
// certified to replay, so it must refuse rather than emit anything.
func TestHealthGateFailsClosedWithoutCache(t *testing.T) {
	cfg, fp := faultCfg(31)
	cfg.HealthEvery = 1
	fp.SetURNGFault(fault.StuckWord(0))
	b := boot(t, cfg, 1e9)
	if _, err := b.NoiseValue(8); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("expected ErrUnhealthy, got %v", err)
	}
	if b.Ready() {
		t.Fatal("refused transaction must not raise ready")
	}
}

// TestFaultHooksZeroAllocWhenIdle pins the zero-cost-when-nil claim:
// a steady-state transaction allocates nothing, with or without a
// fault plane installed (as long as no injector is).
func TestFaultHooksZeroAllocWhenIdle(t *testing.T) {
	for _, withPlane := range []struct {
		name string
		on   bool
	}{{"no-plane", false}, {"empty-plane", true}} {
		t.Run(withPlane.name, func(t *testing.T) {
			cfg := smallCfg(37)
			if withPlane.on {
				cfg.Faults = fault.NewPlane()
			}
			b := boot(t, cfg, 1e15)
			if _, err := b.NoiseValue(8); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := b.NoiseValue(8); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%g allocations per steady-state transaction, want 0", allocs)
			}
		})
	}
}

// TestLogFaultStaysInWindow: a corrupted CORDIC datapath changes the
// noise distribution but can never push an output past the certified
// clamp — the guard sits behind the log unit.
func TestLogFaultStaysInWindow(t *testing.T) {
	cfg, fp := faultCfg(41)
	b := boot(t, cfg, 1e9)
	if _, err := b.NoiseValue(8); err != nil {
		t.Fatal(err)
	}
	th := b.Threshold()
	fp.SetLogFault(fault.LogOffset(1 << 16))
	for i := 0; i < 300; i++ {
		r, err := b.NoiseValue(8)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value < -th || r.Value > 16+th {
			t.Fatalf("log fault leaked output %d past the clamp (±%d)", r.Value, th)
		}
	}
	if fp.Injections(fault.KindLog) == 0 {
		t.Error("log injector never fired")
	}
}

// TestPowerLossDuringNoisingEmitsNothing: a power cut mid-transaction
// must never leave a half-noised value on the output port.
func TestPowerLossDuringNoisingEmitsNothing(t *testing.T) {
	cfg, fp := faultCfg(43)
	b := bootResampling(t, cfg)
	fp.SetURNGFault(fault.StuckWord(1))  // force a long resample loop
	fp.SchedulePowerLoss(fp.Cycle() + 5) // die inside it
	if _, err := b.NoiseValue(8); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("expected ErrPowerLost, got %v", err)
	}
	if b.Ready() {
		t.Fatal("dead box advertises a ready output")
	}
	if b.Phase() != PhaseDead {
		t.Fatalf("phase %v after power loss", b.Phase())
	}
	if err := b.Command(CmdSetSensorValue, 3); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("dead box accepted a command: %v", err)
	}
}
