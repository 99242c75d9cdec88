package collector

import (
	"slices"
	"testing"
	"time"

	"ulpdp/internal/fault"
	"ulpdp/internal/node"
	"ulpdp/internal/transport"
)

// TestVirtualClockHeldThroughDrain: a report sent into an idle shard is
// admitted and ACKed at the instant it was sent. Stepped at one fixed
// simulated instant, each delivery is done in its first Step, before
// its ACK window could run out and with no idle tick run.
func TestVirtualClockHeldThroughDrain(t *testing.T) {
	col := New(Config{BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	agent := node.NewReportAgent(newFleetBox(t, 5, 1e6), link.NodeEnd(), node.AgentConfig{ID: 1, AckWait: 2 * time.Millisecond})
	for r := 0; r < 3; r++ {
		if err := agent.Begin(int64(r)); err != nil {
			t.Fatal(err)
		}
		if _, done := agent.Step(0); !done {
			t.Fatalf("report %d still waits for its ACK after the step that sent it", r)
		}
		if out, err := agent.Outcome(); err != nil || out.Attempts != 1 {
			t.Fatalf("report %d: %+v, %v; want 1 attempt on a lossless link", r, out, err)
		}
	}
	if st := col.Stats(); st.Accepted != 3 || st.Timeouts != 0 {
		t.Fatalf("stats %+v, want 3 accepted and no idle ticks", st)
	}
}

// TestCloseReleasesTickWaiters: a Tick after Close changes no counter
// and flushes nothing. The node's only report is held back on the
// uplink, where a live collector's tick would release it.
func TestCloseReleasesTickWaiters(t *testing.T) {
	fp := fault.NewPlane()
	fp.SetPacketFault(func(uint64, uint8, []byte) fault.PacketFate { return fault.PacketFate{Delay: 5} })
	col := New(Config{Shards: 4})
	link := transport.NewLink(transport.LinkConfig{Plane: fp})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	col.Tick()
	link.NodeEnd().Send(transport.Packet{Kind: transport.KindReport, Node: 1, Seq: 0, Value: 7})
	col.Close()
	before, linkBefore := col.Stats(), link.Stats()
	col.Tick()
	if got := col.Stats(); got != before || got.Timeouts != 1 {
		t.Fatalf("stats %+v after a Tick on the closed collector, want %+v (the 1 idle tick before Close)", got, before)
	}
	if got := link.Stats(); got != linkBefore || got.Delivered != 0 {
		t.Fatalf("link stats %+v after a Tick on the closed collector, want %+v", got, linkBefore)
	}
	if n := link.CollectorEnd().Pending(); n != 1 {
		t.Fatalf("%d frames pending on the uplink, want the 1 held back", n)
	}
}

// TestIdleTicksOnVirtualClock: a silent attached node accrues exactly
// one idle tick per Tick, and Period reports the configured period.
func TestIdleTicksOnVirtualClock(t *testing.T) {
	col := New(Config{PollTimeout: time.Millisecond, BreakerThreshold: 1 << 20})
	defer col.Close()
	if p := col.Period(); p != time.Millisecond {
		t.Fatalf("Period %v, want the configured 1ms", p)
	}
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(3, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		col.Tick()
	}
	if got := col.Stats().Timeouts; got != 10 {
		t.Fatalf("%d idle ticks in 10 periods, want 10", got)
	}
}

// TestTickFlushesInNodeOrder: one tick over silent links flushes them,
// and so wakes their nodes, in node-id order whatever order the nodes
// attached in, on a fresh collector and on one recovered from its
// store. Each node's only report is held back on its uplink until the
// tick flushes it; the ACK it provokes lands at once and wakes the
// node.
func TestTickFlushesInNodeOrder(t *testing.T) {
	ids := []transport.NodeID{9, 2, 14, 5, 11, 0, 7, 3}
	run := func(t *testing.T, col *Collector) {
		var woke []transport.NodeID
		for _, id := range ids {
			fp := fault.NewPlane()
			fp.SetPacketFault(func(n uint64, _ uint8, _ []byte) fault.PacketFate {
				if n == 0 {
					return fault.PacketFate{Delay: 5} // the report
				}
				return fault.PacketFate{}
			})
			link := transport.NewLink(transport.LinkConfig{Plane: fp})
			if err := col.Attach(id, link.CollectorEnd()); err != nil {
				t.Fatal(err)
			}
			link.NodeEnd().SetNotify(func() { woke = append(woke, id) })
			link.NodeEnd().Send(transport.Packet{Kind: transport.KindReport, Node: id, Seq: 0, Value: int64(id)})
		}
		col.Tick()
		want := slices.Clone(ids)
		slices.Sort(want)
		if !slices.Equal(woke, want) {
			t.Fatalf("tick woke nodes %v, want node-id order %v", woke, want)
		}
		if st := col.Stats(); st.Timeouts != uint64(len(ids)) || st.Accepted != uint64(len(ids)) {
			t.Fatalf("stats %+v, want %d idle ticks and %d admissions", st, len(ids), len(ids))
		}
	}
	t.Run("fresh", func(t *testing.T) {
		col := New(Config{Shards: 1})
		defer col.Close()
		run(t, col)
	})
	t.Run("recovered", func(t *testing.T) {
		store := NewStore(1)
		col, err := NewDurable(Config{Shards: 1}, store)
		if err != nil {
			t.Fatal(err)
		}
		// Nodes the store remembers, admitted in reverse, then the
		// crash: the recovered shard must order them too.
		for i := len(ids) - 1; i >= 0; i-- {
			link := transport.NewLink(transport.LinkConfig{})
			if err := col.Attach(ids[i], link.CollectorEnd()); err != nil {
				t.Fatal(err)
			}
			link.NodeEnd().Send(transport.Packet{Kind: transport.KindReport, Node: ids[i], Seq: 100, Value: 1})
		}
		if got := col.Stats().Accepted; got != uint64(len(ids)) {
			t.Fatalf("%d admitted before the crash, want %d", got, len(ids))
		}
		col.Close()
		rec, err := Recover(Config{Shards: 1}, store)
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		run(t, rec)
	})
}
