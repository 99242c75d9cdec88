package simclock

import (
	"sync"
	"testing"
	"time"
)

// waitFor polls cond in real time; the virtual clock's tests use it to
// know a participant has parked before the test lets time move.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestVirtualJumpsToEarliestDeadline: a lone participant's wait costs
// no wall time and lands exactly on its deadline.
func TestVirtualJumpsToEarliestDeadline(t *testing.T) {
	c := NewVirtual(0)
	c.Join()
	w := c.NewWaiter(Agent)
	t0 := time.Now()
	if !w.Wait(time.Hour, nil) {
		t.Fatal("an unsignalled wait did not fire")
	}
	if c.Now() != time.Hour {
		t.Fatalf("now = %v, want 1h", c.Now())
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("an hour of simulated time took %v of wall time", el)
	}
	if c.Busy() != 1 || c.Armed() != 0 {
		t.Fatalf("busy %d armed %d after the wait, want 1 and 0", c.Busy(), c.Armed())
	}
}

// TestVirtualHoldsTimeWhileAnyoneRuns: time stays put while any
// participant is running, however early the parked deadlines are.
func TestVirtualHoldsTimeWhileAnyoneRuns(t *testing.T) {
	c := NewVirtual(0)
	c.Join() // this goroutine: running throughout
	c.Join()
	fired := make(chan time.Duration, 1)
	go func() {
		defer c.Leave()
		c.NewWaiter(Agent).Wait(time.Millisecond, nil)
		fired <- c.Now()
	}()
	waitFor(t, "the waiter to park", func() bool { return c.Armed() == 1 })
	time.Sleep(5 * time.Millisecond)
	if c.Now() != 0 || c.Armed() != 1 {
		t.Fatalf("time moved to %v with a participant running", c.Now())
	}
	c.Leave()
	if got := <-fired; got != time.Millisecond {
		t.Fatalf("waiter fired at %v, want 1ms", got)
	}
}

// TestSignalCancelsWait: a wait cancelled by a signal (an arriving
// frame) returns unfired at the same instant, leaves no armed
// deadline behind, and never fires later — the next group to fire is
// someone else's, at its own deadline.
func TestSignalCancelsWait(t *testing.T) {
	c := NewVirtual(0)
	c.Join()
	w := c.NewWaiter(Agent)
	type result struct {
		fired    bool
		at, next time.Duration
	}
	done := make(chan result, 1)
	c.Join()
	go func() {
		defer c.Leave()
		var r result
		r.fired = w.Wait(10*time.Millisecond, nil)
		r.at = c.Now()
		c.NewWaiter(Agent).Wait(20*time.Millisecond, nil)
		r.next = c.Now()
		done <- r
	}()
	waitFor(t, "the waiter to park", func() bool { return c.Armed() == 1 })
	w.Signal() // the frame lands while this goroutine still runs
	c.Leave()
	r := <-done
	if r.fired || r.at != 0 {
		t.Fatalf("signalled wait: fired=%v at %v, want unfired at 0", r.fired, r.at)
	}
	if r.next != 20*time.Millisecond {
		t.Fatalf("the following wait ended at %v, want 20ms: the cancelled deadline fired", r.next)
	}
	if c.Armed() != 0 || c.Busy() != 0 {
		t.Fatalf("armed %d busy %d at rest, want 0 and 0", c.Armed(), c.Busy())
	}
}

// TestSignalBeforeWaitIsKept: a signal that arrives while the owner is
// still running makes its next wait return at once.
func TestSignalBeforeWaitIsKept(t *testing.T) {
	for _, clk := range []Clock{NewVirtual(0), Wall} {
		clk.Join()
		w := clk.NewWaiter(Agent)
		w.Signal()
		if w.Wait(clk.Now()+time.Hour, nil) {
			t.Fatalf("%T: pre-signalled wait fired", clk)
		}
	}
}

// TestSameDeadlineClassOrder: waiters sharing a deadline fire one
// class at a time — collector ticks, then agents — each group only
// after the previous one has parked or left.
func TestSameDeadlineClassOrder(t *testing.T) {
	c := NewVirtual(0)
	c.Join()
	var (
		mu    sync.Mutex
		order []Class
	)
	for _, cl := range []Class{Agent, Tick, Agent, Tick, Agent} {
		cl := cl
		c.Join()
		go func() {
			defer c.Leave()
			c.NewWaiter(cl).Wait(5*time.Millisecond, nil)
			mu.Lock()
			order = append(order, cl)
			mu.Unlock()
			// Hold the instant a little: a later class that fired
			// early would overtake this append.
			time.Sleep(time.Millisecond)
		}()
	}
	waitFor(t, "every waiter to park", func() bool { return c.Armed() == 5 })
	main := c.NewWaiter(Agent)
	main.Wait(6*time.Millisecond, nil)
	mu.Lock()
	defer mu.Unlock()
	want := []Class{Tick, Tick, Agent, Agent, Agent}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestDoneReleasesWait: a closed done channel ends a parked wait
// unfired and counts the participant back in.
func TestDoneReleasesWait(t *testing.T) {
	for _, clk := range []Clock{NewVirtual(0), Wall} {
		clk.Join()
		done := make(chan struct{})
		close(done)
		if clk.NewWaiter(Agent).Wait(Never, done) {
			t.Fatalf("%T: wait on a closed done channel fired", clk)
		}
	}
}

// TestShutdownReleasesParked: the liveness backstop wakes every parked
// deadline wait at once.
func TestShutdownReleasesParked(t *testing.T) {
	c := NewVirtual(0)
	c.Join()
	c.Join()
	done := make(chan bool, 1)
	go func() {
		defer c.Leave()
		done <- c.NewWaiter(Agent).Wait(time.Hour, nil)
	}()
	waitFor(t, "the waiter to park", func() bool { return c.Armed() == 1 })
	c.Shutdown()
	if !<-done {
		t.Fatal("shutdown released the waiter unfired")
	}
	if c.Now() != 0 {
		t.Fatalf("shutdown moved time to %v", c.Now())
	}
}

func TestWallWaitFires(t *testing.T) {
	w := Wall.NewWaiter(Agent)
	for i := 0; i < 3; i++ { // the timer is reused across waits
		if !w.Wait(Wall.Now()+200*time.Microsecond, nil) {
			t.Fatal("wall wait did not fire")
		}
	}
	if !w.Wait(Wall.Now()-time.Second, nil) {
		t.Fatal("a past deadline did not fire at once")
	}
}

// TestVirtualTimerRunsOnTheParkingParticipant: a virtual timer runs on
// the goroutine whose park let the clock reach it, with the clock at
// its deadline and before a waiter due at the same instant, and can
// re-arm itself. A timer that signals the parked waiter ends that wait
// unfired; a stopped timer never runs.
func TestVirtualTimerRunsOnTheParkingParticipant(t *testing.T) {
	c := NewVirtual(0)
	c.Join()
	w := c.NewWaiter(Agent)
	var (
		at   []time.Duration
		tick Timer
	)
	tick = c.NewTimer(Tick, func() {
		at = append(at, c.Now())
		if len(at) < 3 {
			tick.Reset(c.Now() + time.Millisecond)
		}
	})
	tick.Reset(time.Millisecond)
	if !w.Wait(3*time.Millisecond, nil) || c.Now() != 3*time.Millisecond {
		t.Fatalf("wait ended at %v, want fired at 3ms", c.Now())
	}
	if want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}; len(at) != 3 || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("timer ran at %v, want %v", at, want)
	}

	c.NewTimer(Tick, w.Signal).Reset(4 * time.Millisecond)
	if w.Wait(10*time.Millisecond, nil) || c.Now() != 4*time.Millisecond {
		t.Fatalf("a timer's signal ended the wait at %v; want unfired at 4ms", c.Now())
	}

	stopped := c.NewTimer(Tick, func() { t.Error("a stopped timer ran") })
	stopped.Reset(5 * time.Millisecond)
	stopped.Stop()
	if !w.Wait(6*time.Millisecond, nil) || c.Now() != 6*time.Millisecond {
		t.Fatalf("wait ended at %v, want fired at 6ms", c.Now())
	}
	if c.Busy() != 1 || c.Armed() != 0 {
		t.Fatalf("busy %d armed %d, want 1 and 0", c.Busy(), c.Armed())
	}
}

// TestWallTimer: a wall-clock timer calls its function once per Reset,
// on a goroutine of its own, and not at all once stopped.
func TestWallTimer(t *testing.T) {
	ran := make(chan struct{}, 2)
	tm := Wall.NewTimer(Tick, func() { ran <- struct{}{} })
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
