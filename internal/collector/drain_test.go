package collector

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// TestInlineDrainAcksBeforeSendReturns pins the zero-handoff path: a
// report sent into an idle shard over a lossless link is drained on
// the sender's goroutine, so its ACK is already queued on the node end
// when Send returns, and the round trip allocates nothing.
func TestInlineDrainAcksBeforeSendReturns(t *testing.T) {
	col := New(Config{PollTimeout: time.Hour, BreakerThreshold: 1 << 30})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	end := link.NodeEnd()
	roundTrip := func(seq uint64) {
		end.Send(transport.Packet{Kind: transport.KindReport, Node: 1, Seq: seq, Value: int64(seq)})
		ack, ok := end.TryRecv()
		if !ok || ack.Kind != transport.KindAck || ack.Node != 1 || ack.Seq != seq {
			t.Fatalf("seq %d: TryRecv right after Send = %+v, %v; want its ACK", seq, ack, ok)
		}
	}
	// A far seq first sizes the node's dense value window, so the
	// measured reports below never grow it.
	const runs = 1000
	roundTrip(runs + 1)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		roundTrip(seq)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per report round trip, want 0", allocs)
	}
	if st := col.Stats(); st.Accepted != runs+2 || st.Duplicates != 0 {
		t.Fatalf("stats %+v, want %d accepted", st, runs+2)
	}
}

// TestInlineDrainHandOffStress: many senders race for one shard's
// drain. A sender that loses the race leaves its report to the
// goroutine draining the shard, which must pick it up. The senders
// move in lockstep rounds (every sender sends one report, then every
// sender waits for its ACK), so no later push can rescue an entry a
// drain stranded: the round would stall. Every report must be
// admitted exactly once and ACKed.
func TestInlineDrainHandOffStress(t *testing.T) {
	const (
		senders = 32
		reports = 256
	)
	col := New(Config{Shards: 1, PollTimeout: time.Hour, BreakerThreshold: 1 << 30})
	defer col.Close()
	ends := make([]*transport.Endpoint, senders)
	for i := range ends {
		link := transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		ends[i] = link.NodeEnd()
	}
	var (
		round  sync.WaitGroup
		starts [reports]chan struct{}
		mu     sync.Mutex
		fails  []string
	)
	for r := range starts {
		starts[r] = make(chan struct{})
	}
	for i, end := range ends {
		go func(id transport.NodeID) {
			for r := 0; r < reports; r++ {
				<-starts[r]
				end.Send(transport.Packet{Kind: transport.KindReport, Node: id, Seq: uint64(r), Value: int64(r)})
				ack, ok := end.Recv(10 * time.Second)
				if !ok || ack.Kind != transport.KindAck || ack.Node != id || ack.Seq != uint64(r) {
					mu.Lock()
					fails = append(fails, fmt.Sprintf("node %d round %d: Recv = %+v, %v; want its ACK", id, r, ack, ok))
					mu.Unlock()
				}
				round.Done()
			}
		}(transport.NodeID(i))
	}
	for r := range starts {
		round.Add(senders)
		close(starts[r])
		round.Wait()
	}
	if len(fails) > 0 {
		t.Fatalf("%d round trips failed; first: %s", len(fails), fails[0])
	}
	if st := col.Stats(); st.Accepted != senders*reports || st.Duplicates != 0 {
		t.Fatalf("stats %+v, want %d accepted and no duplicates", st, senders*reports)
	}
}

// TestCloseWaitsOutInlineDrain: Close is a barrier for drains running
// on other goroutines. A drain held open inside its shard lock (by
// procDelay) finishes its admission before Close returns, and a report
// sent after Close is neither admitted nor journaled; it stays queued
// on its link. The admission is observed through the lock-free
// telemetry counter and store write count, so the check cannot itself
// wait on the shard lock.
func TestCloseWaitsOutInlineDrain(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	store := NewStore(0)
	col, err := NewDurable(Config{
		PollTimeout: time.Hour, BreakerThreshold: 1 << 30,
		Obs: m, procDelay: 50 * time.Millisecond,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	end := link.NodeEnd()
	seeded := store.Writes()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		end.Send(transport.Packet{Kind: transport.KindReport, Node: 1, Seq: 0, Value: 7})
	}()
	sh := col.shardFor(1)
	waitFor(t, 5*time.Second, "the sender's drain to hold the shard lock", func() bool {
		if !sh.awake.Load() {
			return false
		}
		if sh.mu.TryLock() {
			sh.mu.Unlock()
			return false
		}
		return true
	})
	col.Close()
	if got := m.Accepted.Value(); got != 1 {
		t.Fatalf("Close returned with %d admissions counted; the open drain's report must be admitted first", got)
	}
	writes := store.Writes()
	if writes == seeded {
		t.Fatal("Close returned before the open drain journaled its admission")
	}
	<-sent
	st := col.Stats()

	end.Send(transport.Packet{Kind: transport.KindReport, Node: 1, Seq: 1, Value: 8})
	if got := col.Stats(); got != st || m.Accepted.Value() != 1 {
		t.Fatalf("a send after Close moved Stats: %+v -> %+v", st, got)
	}
	if store.Writes() != writes {
		t.Fatalf("a send after Close wrote the store: %d -> %d words", writes, store.Writes())
	}
	if n := link.CollectorEnd().Pending(); n != 1 {
		t.Fatalf("%d frames queued after Close, want the unadmitted report", n)
	}
}
