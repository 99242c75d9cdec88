package simclock

import (
	"strings"
	"testing"
	"time"
)

// TestVirtualJumpsToEarliestDeadline: a wait costs no wall time; it
// jumps to an earlier armed timer first and lands exactly on its own
// deadline.
func TestVirtualJumpsToEarliestDeadline(t *testing.T) {
	c := NewVirtual(0)
	var ranAt time.Duration
	c.NewTimer(func() { ranAt = c.Now() }).Reset(30 * time.Minute)
	t0 := time.Now()
	if !c.Wait(time.Hour) {
		t.Fatal("an unsignalled wait did not fire")
	}
	if c.Now() != time.Hour || ranAt != 30*time.Minute {
		t.Fatalf("now = %v, timer ran at %v; want 1h and 30m", c.Now(), ranAt)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("an hour of simulated time took %v of wall time", el)
	}
	if !c.Wait(time.Minute) || c.Now() != time.Hour {
		t.Fatalf("a past deadline moved time to %v", c.Now())
	}
}

// TestDeadlinesRoundUp: the owner's deadline and every timer's round
// up to the clock's resolution, so a timer due within the same step
// runs before the wait fires there.
func TestDeadlinesRoundUp(t *testing.T) {
	c := NewVirtual(100 * time.Microsecond)
	var ranAt time.Duration
	c.NewTimer(func() { ranAt = c.Now() }).Reset(120 * time.Microsecond)
	if !c.Wait(150*time.Microsecond) || c.Now() != 200*time.Microsecond {
		t.Fatalf("wait ended at %v, want fired at 200µs", c.Now())
	}
	if ranAt != 200*time.Microsecond {
		t.Fatalf("timer ran at %v, want 200µs", ranAt)
	}
}

// TestSignalCancelsWait: a hook that signals the owner from inside a
// timer (an ACK landing on a waiting node) ends the wait unfired at
// that instant, and the cancelled deadline never fires later: the next
// wait ends at its own deadline.
func TestSignalCancelsWait(t *testing.T) {
	c := NewVirtual(0)
	c.NewTimer(c.Signal).Reset(time.Millisecond)
	if c.Wait(10*time.Millisecond) || c.Now() != time.Millisecond {
		t.Fatalf("signalled wait ended at %v, want unfired at 1ms", c.Now())
	}
	if !c.Wait(20*time.Millisecond) || c.Now() != 20*time.Millisecond {
		t.Fatalf("the following wait ended at %v, want fired at 20ms", c.Now())
	}
}

// TestSignalBeforeWaitIsKept: a signal that arrives while the owner is
// not waiting makes its next wait return at once, and only that one.
func TestSignalBeforeWaitIsKept(t *testing.T) {
	c := NewVirtual(0)
	c.Signal()
	if c.Wait(time.Hour) || c.Now() != 0 {
		t.Fatalf("pre-signalled wait: now %v, want unfired at 0", c.Now())
	}
	if !c.Wait(time.Hour) {
		t.Fatal("a consumed signal ended the next wait too")
	}
}

// TestSameDeadlineClassOrder: the clock's one same-instant order —
// every timer due at the owner's deadline runs before the owner's wait
// fires at that instant.
func TestSameDeadlineClassOrder(t *testing.T) {
	c := NewVirtual(0)
	ran := 0
	for i := 0; i < 3; i++ {
		c.NewTimer(func() { ran++ }).Reset(5 * time.Millisecond)
	}
	if !c.Wait(5*time.Millisecond) || c.Now() != 5*time.Millisecond {
		t.Fatalf("wait ended at %v, want fired at 5ms", c.Now())
	}
	if ran != 3 {
		t.Fatalf("%d of 3 timers at the deadline ran before the wait fired", ran)
	}
}

// TestVirtualTimerRunsOnTheParkingParticipant: a virtual timer runs
// inside the owner's wait, with the clock at its deadline, and can
// re-arm itself. A timer that signals the owner ends the wait unfired
// at its own deadline; a stopped timer never runs.
func TestVirtualTimerRunsOnTheParkingParticipant(t *testing.T) {
	c := NewVirtual(0)
	var (
		at   []time.Duration
		tick Timer
	)
	tick = c.NewTimer(func() {
		at = append(at, c.Now())
		if len(at) < 3 {
			tick.Reset(c.Now() + time.Millisecond)
		}
	})
	tick.Reset(time.Millisecond)
	if !c.Wait(3*time.Millisecond) || c.Now() != 3*time.Millisecond {
		t.Fatalf("wait ended at %v, want fired at 3ms", c.Now())
	}
	if want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}; len(at) != 3 || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("timer ran at %v, want %v", at, want)
	}

	c.NewTimer(c.Signal).Reset(4 * time.Millisecond)
	if c.Wait(10*time.Millisecond) || c.Now() != 4*time.Millisecond {
		t.Fatalf("a timer's signal ended the wait at %v; want unfired at 4ms", c.Now())
	}

	stopped := c.NewTimer(func() { t.Error("a stopped timer ran") })
	stopped.Reset(5 * time.Millisecond)
	stopped.Stop()
	if !c.Wait(6*time.Millisecond) || c.Now() != 6*time.Millisecond {
		t.Fatalf("wait ended at %v, want fired at 6ms", c.Now())
	}
}

// TestWaitOnNeverNeedsATimer: a wait on Never ends by a timer's
// signal, and with no timer armed it panics instead of blocking.
func TestWaitOnNeverNeedsATimer(t *testing.T) {
	c := NewVirtual(0)
	c.NewTimer(c.Signal).Reset(time.Second)
	if c.Wait(Never) || c.Now() != time.Second {
		t.Fatalf("wait on Never ended at %v; want unfired at 1s", c.Now())
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Never") {
			t.Fatalf("recovered %v, want a panic naming Never", r)
		}
	}()
	c.Wait(Never)
	t.Fatal("a wait on Never with no timer armed returned")
}

// TestWallTimer: a wall-clock timer calls its function once per Reset,
// on a goroutine of its own, and not at all once stopped.
func TestWallTimer(t *testing.T) {
	ran := make(chan struct{}, 2)
	tm := Wall.NewTimer(func() { ran <- struct{}{} })
	tm.Reset(Wall.Now() + time.Millisecond)
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("the wall timer never ran")
	}
	tm.Reset(Wall.Now() + time.Hour)
	tm.Stop()
	select {
	case <-ran:
		t.Fatal("the wall timer ran twice for one Reset")
	case <-time.After(20 * time.Millisecond):
	}
}

// BenchmarkVirtualWait times the fleet loop's wait: one armed Tick
// timer runs, then the wait fires at its deadline.
func BenchmarkVirtualWait(b *testing.B) {
	c := NewVirtual(0)
	ticks := 0
	tick := c.NewTimer(func() { ticks++ })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := c.Now()
		tick.Reset(now + time.Microsecond)
		if !c.Wait(now + 2*time.Microsecond) {
			b.Fatal("the wait did not fire")
		}
	}
	if ticks != b.N {
		b.Fatalf("%d ticks for %d waits", ticks, b.N)
	}
}
