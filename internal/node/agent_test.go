package node

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/dpbox"
	"ulpdp/internal/fault"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// newAgentBox builds a journaled DP-Box ready for sequence-labelled
// noising.
func newAgentBox(t *testing.T, seed uint64, budget float64) (*dpbox.DPBox, *dpbox.Journal) {
	t.Helper()
	j := dpbox.NewJournal()
	box, err := dpbox.New(dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(seed),
		Journal:     j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(budget, 0); err != nil {
		t.Fatal(err)
	}
	if err := box.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	return box, j
}

// echoCollector ACKs every report and records the last value seen per
// sequence number. Stop it by cancelling ctx.
type echoCollector struct {
	mu   sync.Mutex
	seen map[uint64]int64
	done chan struct{}
}

func runEchoCollector(ctx context.Context, end *transport.Endpoint, id transport.NodeID) *echoCollector {
	c := &echoCollector{seen: make(map[uint64]int64), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for ctx.Err() == nil {
			p, ok := end.Recv(5 * time.Millisecond)
			if !ok {
				continue
			}
			if p.Kind != transport.KindReport || p.Node != id {
				continue
			}
			c.mu.Lock()
			c.seen[p.Seq] = p.Value
			c.mu.Unlock()
			end.Send(transport.Packet{Kind: transport.KindAck, Node: p.Node, Seq: p.Seq})
		}
	}()
	return c
}

func (c *echoCollector) values(ctx context.Context) map[uint64]int64 {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]int64, len(c.seen))
	for s, v := range c.seen {
		out[s] = v
	}
	return out
}

func TestReportAgentDeliversOverLossyLink(t *testing.T) {
	fp := fault.NewPlane()
	fp.SetLossyLink(0xA11CE, fault.LinkProfile{
		Drop: 0.3, Duplicate: 0.2, Reorder: 0.15, Corrupt: 0.1, MaxDelay: 2,
	})
	link := transport.NewLink(transport.LinkConfig{Plane: fp})

	box, _ := newAgentBox(t, 7, 1e6)
	agent := NewReportAgent(box, link.NodeEnd(), AgentConfig{ID: 4})

	colCtx, stopCol := context.WithCancel(context.Background())
	col := runEchoCollector(colCtx, link.CollectorEnd(), 4)

	const n = 20
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		out, err := agent.Report(ctx, int64(4+i%8))
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if out.Seq != uint64(i) {
			t.Fatalf("report %d got seq %d", i, out.Seq)
		}
		if out.Replayed {
			t.Fatalf("fresh report %d marked replayed", i)
		}
	}
	stopCol()
	got := col.values(colCtx)

	// Every delivered value must match the journaled release — drops,
	// retries, duplicates and reordering never change what a sequence
	// number means.
	if len(got) != n {
		t.Fatalf("collector saw %d seqs, want %d", len(got), n)
	}
	for seq, v := range got {
		rel, ok := box.ReleaseFor(seq)
		if !ok {
			t.Fatalf("seq %d delivered but not journaled", seq)
		}
		if rel.Value != v {
			t.Fatalf("seq %d: delivered %d, journal says %d", seq, v, rel.Value)
		}
	}
	if agent.NextSeq() != n {
		t.Fatalf("NextSeq = %d, want %d", agent.NextSeq(), n)
	}
}

func TestCrashMidRetryReplaysSameValue(t *testing.T) {
	// Phase 1: a black-hole uplink — every report frame drops, so the
	// report is noised, journaled, retransmitted, and never ACKed.
	fp := fault.NewPlane()
	fp.SetPacketFault(func(n uint64, dir uint8, payload []byte) fault.PacketFate {
		if dir == fault.DirUp {
			return fault.PacketFate{Drop: true}
		}
		return fault.PacketFate{}
	})
	deadLink := transport.NewLink(transport.LinkConfig{Plane: fp})

	box, j := newAgentBox(t, 7, 1e6)
	agent := NewReportAgent(box, deadLink.NodeEnd(), AgentConfig{
		ID: 9, MaxAttempts: 3, AckWait: time.Millisecond,
	})
	out, err := agent.Report(context.Background(), 11)
	if err == nil {
		t.Fatal("report over a black-hole link succeeded")
	}
	rel, ok := box.ReleaseFor(0)
	if !ok {
		t.Fatal("undelivered report not journaled")
	}
	if rel.Value != out.Value {
		t.Fatalf("journal %d vs outcome %d", rel.Value, out.Value)
	}
	spent := 1e6 - box.BudgetRemaining()

	// Crash mid-retry.
	j.Kill()

	// Phase 2: recover with a DIFFERENT urng seed — if the recovered
	// node redrew noise for seq 0, the value would change.
	recovered, err := dpbox.Recover(dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(9999),
	}, j)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}

	goodLink := transport.NewLink(transport.LinkConfig{})
	agent2 := NewReportAgent(recovered, goodLink.NodeEnd(), AgentConfig{ID: 9})
	if agent2.NextSeq() != 1 {
		t.Fatalf("recovered NextSeq = %d, want 1", agent2.NextSeq())
	}

	colCtx, stopCol := context.WithCancel(context.Background())
	col := runEchoCollector(colCtx, goodLink.CollectorEnd(), 9)
	if err := agent2.Resume(context.Background()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	stopCol()
	got := col.values(colCtx)

	if v, ok := got[0]; !ok || v != out.Value {
		t.Fatalf("resumed delivery: got %v/%d, want %d", ok, v, out.Value)
	}
	// The crash and resume charged nothing extra.
	if nowSpent := 1e6 - recovered.BudgetRemaining(); nowSpent != spent {
		t.Fatalf("resume changed spend: %g -> %g nats", spent, nowSpent)
	}
	// And a sequence-labelled re-ask still replays bit-exactly.
	res, err := recovered.NoiseValueSeq(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.Value != out.Value {
		t.Fatalf("post-recovery replay: %+v, want value %d", res, out.Value)
	}
}

// TestAbandonedReportRedeliveredAfterCollectorRecovery is the
// sustained-outage arc: the collector's checkpoint store dies, the
// shard fails closed (no ACKs), the report exhausts its total attempt
// cap and turns terminally abandoned — then the collector recovers
// from its checkpoints, Resume re-delivers the identical journaled
// value under a fresh lease, and a second Resume is absorbed by the
// recovered dedup state as a duplicate.
func TestAbandonedReportRedeliveredAfterCollectorRecovery(t *testing.T) {
	const id = transport.NodeID(7)
	store := collector.NewStore(1)
	col, err := collector.NewDurable(collector.Config{BreakerThreshold: 1 << 20}, store)
	if err != nil {
		t.Fatal(err)
	}
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(id, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}

	box, _ := newAgentBox(t, 21, 1e6)
	agent := NewReportAgent(box, link.NodeEnd(), AgentConfig{
		ID: id, MaxAttempts: 3, MaxTotalAttempts: 6, AckWait: time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Seq 0 lands normally and its admission is checkpointed.
	out0, err := agent.Report(ctx, 5)
	if err != nil {
		t.Fatalf("seq 0: %v", err)
	}

	// The collector crashes (checkpoint NVM power lost). The shard
	// fails closed: seq 1 is journaled on the node, transmitted up to
	// the total cap, never ACKed, and terminally abandoned.
	store.Kill()
	out1, err := agent.Report(ctx, 9)
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("outage report error = %v, want ErrAbandoned", err)
	}
	if out1.Attempts != 6 {
		t.Fatalf("abandoned after %d attempts, want the total cap 6", out1.Attempts)
	}
	if st := col.Stats(); st.FailClosed == 0 {
		t.Fatalf("dead store but no fail-closed drops: %+v", st)
	}
	col.Close()

	// Restart: recover from the checkpoints, re-bind the same link.
	col2, err := collector.Recover(collector.Config{BreakerThreshold: 1 << 20}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	if err := col2.Attach(id, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	if v, ok := col2.Node(id); !ok || !v.Have || v.Seq != 0 || v.Value != out0.Value {
		t.Fatalf("recovered view %+v ok=%v, want seq 0 value %d", v, ok, out0.Value)
	}

	// The parked report gets a fresh lease and lands; a second Resume
	// of the same seq is a pure duplicate, re-ACKed but not re-counted.
	if err := agent.Resume(ctx); err != nil {
		t.Fatalf("resume after recovery: %v", err)
	}
	if err := agent.Resume(ctx); err != nil {
		t.Fatalf("second resume: %v", err)
	}
	got := col2.Values(id)
	if len(got) != 2 || got[0] != out0.Value || got[1] != out1.Value {
		t.Fatalf("recovered values %v, want {0:%d 1:%d}", got, out0.Value, out1.Value)
	}
	if st := col2.Stats(); st.Accepted != 1 || st.Duplicates == 0 {
		t.Fatalf("post-recovery stats %+v, want 1 fresh admission and >=1 duplicate", st)
	}
}

func TestReportAgentContextDeadline(t *testing.T) {
	fp := fault.NewPlane()
	fp.SetPacketFault(func(n uint64, dir uint8, payload []byte) fault.PacketFate {
		return fault.PacketFate{Drop: true}
	})
	link := transport.NewLink(transport.LinkConfig{Plane: fp})
	box, _ := newAgentBox(t, 3, 1e6)
	agent := NewReportAgent(box, link.NodeEnd(), AgentConfig{ID: 1, AckWait: time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := agent.Report(ctx, 8); err == nil {
		t.Fatal("report outlived its context")
	}
	// The noised value survives the abandonment: delivery failed,
	// noising did not, and the binding is durable.
	if _, ok := box.ReleaseFor(0); !ok {
		t.Fatal("abandoned report lost its journaled release")
	}
}

// TestRebindMatchesFreshAgent pins the crash-reuse contract: an agent
// that has backed off, taken ACKs and advanced its numbering, once
// rebound to the crash-recovered box, equals a freshly built agent on
// the same endpoint and config field for field: jitter back at its
// seed, numbering from the box's journal.
func TestRebindMatchesFreshAgent(t *testing.T) {
	fp := fault.NewPlane()
	fp.SetPacketFault(func(n uint64, dir uint8, payload []byte) fault.PacketFate {
		// Lose the first report frame so the agent backs off once.
		return fault.PacketFate{Drop: n == 0}
	})
	link := transport.NewLink(transport.LinkConfig{Plane: fp})
	box, j := newAgentBox(t, 7, 1e6)
	cfg := AgentConfig{ID: 5, AckWait: time.Millisecond}
	agent := NewReportAgent(box, link.NodeEnd(), cfg)

	colCtx, stopCol := context.WithCancel(context.Background())
	col := runEchoCollector(colCtx, link.CollectorEnd(), 5)
	attempts := 0
	for r := int64(0); r < 3; r++ {
		out, err := agent.Report(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		attempts += out.Attempts
	}
	stopCol()
	col.values(colCtx)
	if attempts < 4 || agent.jitter == agent.cfg.JitterSeed {
		t.Fatalf("agent never retransmitted or backed off: %d attempts for 3 ACKed reports, jitter at seed %v", attempts, agent.jitter == agent.cfg.JitterSeed)
	}

	j.Kill()
	recovered, err := dpbox.Recover(dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(8),
	}, j)
	if err != nil {
		t.Fatal(err)
	}
	agent.Rebind(recovered)
	fresh := NewReportAgent(recovered, link.NodeEnd(), cfg)
	if !reflect.DeepEqual(*agent, *fresh) {
		t.Fatalf("rebound agent differs from a fresh one:\n%+v\n%+v", *agent, *fresh)
	}
	if agent.NextSeq() != 3 {
		t.Fatalf("NextSeq %d after 3 journaled reports, want 3", agent.NextSeq())
	}
}
