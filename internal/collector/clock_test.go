package collector

import (
	"strings"
	"testing"
	"time"

	"ulpdp/internal/node"
	"ulpdp/internal/simclock"
	"ulpdp/internal/transport"
)

// TestVirtualClockHeldThroughDrain: on a virtual clock a report sent
// into an idle shard is admitted and ACKed at the instant it was
// sent — neither the agent's ACK window nor an idle tick (both due well
// before the next report) runs out while the shard drains.
func TestVirtualClockHeldThroughDrain(t *testing.T) {
	clk := simclock.NewVirtual(0)
	col := New(Config{Clock: clk, PollTimeout: time.Millisecond, BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	link.NodeEnd().SetNotify(clk.Signal)
	agent := node.NewReportAgent(newFleetBox(t, 5, 1e6), link.NodeEnd(), node.AgentConfig{ID: 1, AckWait: 2 * time.Millisecond})
	for r := 0; r < 3; r++ {
		out, err := report(agent, int64(r), clk)
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
// tick off the clock, so it can neither fire into a dead collector nor
// keep the clock's owner waiting on it: with nothing else armed, a
// wait on Never right after Close has nothing to run and panics at
// once, without moving the clock to the next tick.
func TestCloseReleasesTickWaiters(t *testing.T) {
	clk := simclock.NewVirtual(0)
	col := New(Config{Clock: clk, Shards: 4, PollTimeout: time.Millisecond})
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	clk.Wait(1500 * time.Microsecond)
	col.Close()
	func() {
		defer func() {
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, "Never") {
				t.Fatalf("recovered %v: the closed collector's tick is still armed", r)
			}
			if now := clk.Now(); now != 1500*time.Microsecond {
				t.Fatalf("a wait on Never after Close moved the clock to %v, want 1.5ms", now)
			}
		}()
		clk.Wait(simclock.Never)
	}()
	if !clk.Wait(time.Second) || clk.Now() != time.Second {
		t.Fatalf("a wait after Close ended at %v, want 1s", clk.Now())
	}
	if got := col.Stats().Timeouts; got != 1 {
		t.Fatalf("%d idle ticks, want the 1 before Close", got)
	}
}

// TestIdleTicksOnVirtualClock: a silent attached node accrues exactly
// one idle tick per PollTimeout of simulated time.
func TestIdleTicksOnVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual(0)
	col := New(Config{Clock: clk, PollTimeout: time.Millisecond, BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(3, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	clk.Wait(10 * time.Millisecond)
	if got := col.Stats().Timeouts; got != 10 {
		t.Fatalf("%d idle ticks in 10 simulated periods, want 10", got)
	}
}
