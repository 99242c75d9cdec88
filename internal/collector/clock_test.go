package collector

import (
	"context"
	"testing"
	"time"

	"ulpdp/internal/node"
	"ulpdp/internal/simclock"
	"ulpdp/internal/transport"
)

// TestVirtualClockHeldThroughDrain: on a virtual clock a report sent
// into a parked reactor is admitted and ACKed at the instant it was
// sent — neither the agent's ACK wait nor an idle tick (both due well
// before the next report) fires while the reactor drains.
func TestVirtualClockHeldThroughDrain(t *testing.T) {
	clk := simclock.NewVirtual(0)
	clk.Join() // this goroutine
	col := New(Config{Clock: clk, PollTimeout: time.Millisecond, BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{Clock: clk})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	agent := node.NewReportAgent(newFleetBox(t, 5, 1e6), link.NodeEnd(), node.AgentConfig{ID: 1, AckWait: 2 * time.Millisecond})
	for r := 0; r < 3; r++ {
		out, err := agent.Report(context.Background(), int64(r))
		if err != nil {
			t.Fatal(err)
		}
		if out.Attempts != 1 {
			t.Fatalf("report %d took %d attempts on a lossless link", r, out.Attempts)
		}
	}
	if clk.Now() != 0 {
		t.Fatalf("simulated time moved to %v during lossless delivery", clk.Now())
	}
	if st := col.Stats(); st.Accepted != 3 || st.Timeouts != 0 {
		t.Fatalf("stats %+v, want 3 accepted and no idle ticks", st)
	}
}

// TestCloseReleasesTickWaiters: a closed collector takes its idle
// ticker off the clock, so it can neither pin simulated time nor fire
// into a dead reactor; the next deadline on the clock is someone
// else's.
func TestCloseReleasesTickWaiters(t *testing.T) {
	clk := simclock.NewVirtual(0)
	clk.Join()
	col := New(Config{Clock: clk, Shards: 4, PollTimeout: time.Millisecond})
	waitFor(t, 5*time.Second, "the idle ticker to park", func() bool {
		return clk.Armed() == 1 && clk.Busy() == 1
	})
	col.Close()
	if clk.Armed() != 0 || clk.Busy() != 1 {
		t.Fatalf("after Close: %d armed, %d busy; want 0 and 1", clk.Armed(), clk.Busy())
	}
	if !clk.NewWaiter(simclock.Agent).Wait(time.Second, nil) || clk.Now() != time.Second {
		t.Fatalf("a wait after Close ended at %v, want 1s", clk.Now())
	}
}

// TestIdleTicksOnVirtualClock: a silent attached node accrues exactly
// one idle tick per PollTimeout of simulated time.
func TestIdleTicksOnVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual(0)
	clk.Join()
	col := New(Config{Clock: clk, PollTimeout: time.Millisecond, BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{Clock: clk})
	if err := col.Attach(3, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	clk.NewWaiter(simclock.Agent).Wait(10*time.Millisecond, nil)
	if got := col.Stats().Timeouts; got != 10 {
		t.Fatalf("%d idle ticks in 10 simulated periods, want 10", got)
	}
}
