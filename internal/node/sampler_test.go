package node

import (
	"testing"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/fault"
	"ulpdp/internal/msp430"
	"ulpdp/internal/urng"
)

func newSampler(t *testing.T, period uint64) *SamplerNode {
	t.Helper()
	box, err := dpbox.New(dpbox.Config{Bu: 12, By: 10, Mult: 2, Source: urng.NewTaus88(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(1e6, 0); err != nil {
		t.Fatal(err)
	}
	n := New(box, 0x0180)
	trace := make([]int16, 31)
	for i := range trace {
		trace[i] = int16(i % 17)
	}
	s, err := NewSampler(n, SamplerConfig{
		SensorAddr: 0x01A0,
		Trace:      trace,
		Period:     period,
		Vector:     4,
		EpsShift:   1,
		RangeLo:    0, RangeHi: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDutyCycledSampling(t *testing.T) {
	s := newSampler(t, 500)
	if err := s.Run(20_000); err != nil {
		t.Fatal(err)
	}
	// ~40 timer fires in 20k cycles.
	if s.Timer.Fires < 30 {
		t.Fatalf("timer fired only %d times", s.Timer.Fires)
	}
	samples := s.Samples()
	if len(samples) < 30 {
		t.Fatalf("collected %d samples", len(samples))
	}
	// Every serviced ISR consumed exactly one sensor reading (the
	// final fire may still be pending at the cycle cutoff).
	if s.Sensor.Reads != s.Timer.Fires && s.Sensor.Reads != s.Timer.Fires-1 {
		t.Errorf("sensor reads %d vs timer fires %d", s.Sensor.Reads, s.Timer.Fires)
	}
	// Every stored value is inside the certified window.
	th := s.Node.Port.Box.Threshold()
	if th <= 0 {
		t.Fatal("threshold not derived")
	}
	for i, y := range samples {
		if int64(y) < -th || int64(y) > 16+th {
			t.Fatalf("sample %d = %d outside window (threshold %d)", i, y, th)
		}
	}
}

func TestNodeSleepsBetweenSamples(t *testing.T) {
	s := newSampler(t, 1000)
	if err := s.Run(50_000); err != nil {
		t.Fatal(err)
	}
	cpu := s.Node.CPU
	idleFrac := float64(cpu.IdleCycles()) / float64(cpu.Cycles)
	// The whole point of hardware noising: the core sleeps almost all
	// the time (ISR ~45 cycles per 1000-cycle period).
	if idleFrac < 0.9 {
		t.Errorf("idle fraction %.2f; the core should sleep >90%% of the time", idleFrac)
	}
	t.Logf("idle %.1f%% of %d cycles (%d interrupts served)",
		100*idleFrac, cpu.Cycles, s.Timer.Fires)
}

func TestRingWraps(t *testing.T) {
	s := newSampler(t, 100)
	// 100-cycle period over 30k cycles: ~300 fires > 128-slot ring.
	if err := s.Run(30_000); err != nil {
		t.Fatal(err)
	}
	samples := s.Samples()
	if len(samples) != RingBytes/2 {
		t.Fatalf("wrapped ring should report %d samples, got %d", RingBytes/2, len(samples))
	}
}

func TestSamplerValidation(t *testing.T) {
	box, err := dpbox.New(dpbox.Config{Bu: 12, By: 10, Mult: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(10, 0); err != nil {
		t.Fatal(err)
	}
	n := New(box, 0x0180)
	if _, err := NewSampler(n, SamplerConfig{
		SensorAddr: 0x01A0, Trace: []int16{1}, Period: 10, Vector: 99,
		EpsShift: 1, RangeLo: 0, RangeHi: 16,
	}); err == nil {
		t.Error("bad vector accepted")
	}
	for i, f := range []func(){
		func() { NewTimer(msp430.New(), 0, 1) },
		func() { NewTimer(msp430.New(), 10, -1) },
		func() { NewTraceSensor(0x200, nil) },
		func() { NewTraceSensor(0x201, []int16{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestInterruptMasking(t *testing.T) {
	// With GIE clear the timer request stays pending and the core
	// never wakes into the ISR.
	cpu := msp430.New()
	timer := NewTimer(cpu, 50, 2)
	p := msp430.NewProgram(0x4000)
	p.Label("main")
	p.Label("spin")
	p.Mov(msp430.Reg(4), msp430.Reg(4)) // NOP
	p.Jmp("spin")
	words, err := p.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	cpu.LoadWords(0x4000, words)
	cpu.R[msp430.PC] = 0x4000
	if err := cpu.RunCycles(1000, 100000); err != nil {
		t.Fatal(err)
	}
	if timer.Fires == 0 {
		t.Fatal("timer never fired")
	}
	if !cpu.InterruptsPending() {
		t.Error("request should stay latched with GIE clear")
	}
}

// TestSamplerSurvivesDeadBox pins the ISR's poll watchdog: a DP-Box
// that loses power never raises STATUS.ready again, so the ISR must
// give up on it within PollBudget polls, flag the timeout and go back
// to sleep. Every later timer fire then still takes its sensor
// reading; an unbounded poll would spin on the first dead transaction
// forever.
func TestSamplerSurvivesDeadBox(t *testing.T) {
	fp := fault.NewPlane()
	fp.SchedulePowerLoss(60)
	box, err := dpbox.New(dpbox.Config{Bu: 12, By: 10, Mult: 2, Source: urng.NewTaus88(3), Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(1e6, 0); err != nil {
		t.Fatal(err)
	}
	// The period outlasts a dead transaction's full poll budget, so
	// no fire is pending when the ISR returns.
	const period = 60_000
	s, err := NewSampler(New(box, 0x0180), SamplerConfig{
		SensorAddr: 0x01A0, Trace: []int16{3, 9, 14}, Period: period, Vector: 4,
		EpsShift: 1, RangeLo: 0, RangeHi: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(50 * period); err != nil {
		t.Fatal(err)
	}
	if box.Phase() != dpbox.PhaseDead {
		t.Fatalf("box phase %v after 50 fires, want dead", box.Phase())
	}
	cpu := s.Node.CPU
	for w := 0; w < 3; w++ {
		reads, fires, idle := s.Sensor.Reads, s.Timer.Fires, cpu.IdleCycles()
		if err := s.Run(10 * period); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Sensor.Reads-reads, s.Timer.Fires-fires; got+1 < want || got == 0 {
			t.Fatalf("window %d: %d sensor reads for %d timer fires on a dead box", w, got, want)
		}
		if cpu.IdleCycles() == idle {
			t.Fatalf("window %d: the core never slept again after the box died", w)
		}
	}
	if code := cpu.ReadWord(AddrErr); code != ErrCodePollTimeout {
		t.Fatalf("AddrErr = %d after the box died, want ErrCodePollTimeout", code)
	}
}
