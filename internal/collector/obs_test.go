package collector

import (
	"testing"
	"time"

	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// breakerArcs accumulates one node's breaker transition sequence from
// its query-view state sampled after every scripted phase. A phase
// that moves the breaker at most once leaves every arc visible.
type breakerArcs struct {
	last BreakerState // starts closed, as every attached node does
	arcs [][2]BreakerState
}

func (b *breakerArcs) sample(s BreakerState) {
	if s != b.last {
		b.arcs = append(b.arcs, [2]BreakerState{b.last, s})
		b.last = s
	}
}

// fullBreakerLifecycle is the arc sequence of a breaker tripped by
// silence or bad reports, re-opened by a failed probe, and closed by a
// healthy one.
var fullBreakerLifecycle = [][2]BreakerState{
	{BreakerClosed, BreakerOpen},
	{BreakerOpen, BreakerHalfOpen},
	{BreakerHalfOpen, BreakerOpen},
	{BreakerOpen, BreakerHalfOpen},
	{BreakerHalfOpen, BreakerClosed},
}

// checkArcs fails unless got is exactly want.
func checkArcs(t *testing.T, node int, got, want [][2]BreakerState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("node %d: breaker arcs %v, want %v", node, got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("node %d arc %d: %v→%v, want %v→%v", node, k, got[k][0], got[k][1], want[k][0], want[k][1])
		}
	}
}

// TestBreakerTransitionMetrics drives a breaker through its full
// lifecycle — closed → open → half-open → (failed probe) open →
// half-open → closed — and asserts every transition is visible in the
// counters and in the node's query view, in order. Silence is
// advanced one Tick at a time, so each phase stops on exactly one
// transition.
func TestBreakerTransitionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	col := New(Config{BreakerThreshold: 3, Obs: m})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(5, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	end := link.NodeEnd()

	var arcs breakerArcs
	sample := func() {
		v, ok := col.Node(5)
		if !ok {
			t.Fatal("node 5 not attached")
		}
		arcs.sample(v.Breaker)
	}
	// tickUntil advances silence until counter c reaches want.
	tickUntil := func(what string, c *obs.Counter, want uint64) {
		t.Helper()
		for k := 0; c.Value() < want; k++ {
			if k > 16 {
				t.Fatalf("%s: %d idle ticks without the transition", what, k)
			}
			col.Tick()
		}
		sample()
	}

	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 0, Value: 40})
	waitFor(t, 5*time.Second, "first report", func() bool { v, _ := col.Node(5); return v.Have })
	sample()

	// Silence trips the breaker: closed → open, once.
	tickUntil("breaker open", m.Opened, 1)
	if m.Timeouts.Value() == 0 {
		t.Fatal("breaker tripped with no timeout counted")
	}

	// Cooldown half-opens it; a failed (unhealthy) probe re-opens.
	tickUntil("half-open", m.HalfOpened, 1)
	end.Send(transport.Packet{
		Kind: transport.KindReport, Node: 5, Seq: 1, Value: 41,
		Flags: transport.FlagUnhealthy,
	})
	waitFor(t, 5*time.Second, "re-open after bad probe", func() bool { return m.Reopened.Value() == 1 })
	sample()
	if m.BreakerDrops.Value() == 0 {
		t.Fatal("failed probe was not counted as a breaker drop")
	}

	// Second cooldown; a healthy probe closes the breaker.
	tickUntil("half-open again", m.HalfOpened, 2)
	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 1, Value: 50})
	waitFor(t, 5*time.Second, "closed after probe", func() bool { return m.Closed.Value() == 1 })
	sample()
	if got := m.Opened.Value(); got != 1 {
		t.Fatalf("opened grew to %d after recovery, want 1", got)
	}

	checkArcs(t, 5, arcs.arcs, fullBreakerLifecycle)
}
