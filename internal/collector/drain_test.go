package collector

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// TestInlineDrainAcksBeforeSendReturns pins the zero-handoff path: a
// report sent into an idle shard over a lossless link is drained on
// the sender's goroutine, so its ACK is already queued on the node end
// when Send returns, and the round trip allocates nothing.
func TestInlineDrainAcksBeforeSendReturns(t *testing.T) {
	col := New(Config{BreakerThreshold: 1 << 30})
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

// TestInlineDrainHandOffStress: many senders land frames in one shard
// at once. Each drains its own link under the shard lock, so senders
// that find the lock held wait for it and then drain their own links.
// The senders move in lockstep rounds (every sender sends one report,
// then every sender checks its ACK), so a report that no drain picked
// up before its Send returned would leave no ACK queued. Every report
// must be admitted exactly once and ACKed.
func TestInlineDrainHandOffStress(t *testing.T) {
	const (
		senders = 32
		reports = 256
	)
	col := New(Config{Shards: 1, BreakerThreshold: 1 << 30})
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
				ack, ok := end.TryRecv()
				if !ok || ack.Kind != transport.KindAck || ack.Node != id || ack.Seq != uint64(r) {
					mu.Lock()
					fails = append(fails, fmt.Sprintf("node %d round %d: TryRecv = %+v, %v; want its ACK", id, r, ack, ok))
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
		BreakerThreshold: 1 << 30,
		Obs:              m, procDelay: 50 * time.Millisecond,
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
	// Nothing else takes the lock here (the idle tick is an hour off),
	// so a failing TryLock shows the sender's drain holds it.
	waitFor(t, 5*time.Second, "the sender's drain to hold the shard lock", func() bool {
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

// TestOneNodeDrainedFromTwoGoroutines: one node's link is landed on
// by two goroutines at once, the node's sender and a loop flushing the
// uplink's reorder holdbacks, so each drains the same link under the
// shard lock in turn. The sender retransmits every report until it is
// ACKed. Every report must be admitted exactly once and ACKed, and no
// landed frame may be left on the link.
func TestOneNodeDrainedFromTwoGoroutines(t *testing.T) {
	const reports = 200
	col := New(Config{BreakerThreshold: 1 << 30})
	defer col.Close()
	fp := fault.NewPlane()
	// Every third report is held back until two later frames pass it
	// or a flush releases it; the rest land on the sender's goroutine.
	fp.SetPacketFault(func(_ uint64, dir uint8, payload []byte) fault.PacketFate {
		if pkt, err := transport.Unmarshal(payload); err == nil && dir == fault.DirUp && pkt.Seq%3 == 0 {
			return fault.PacketFate{Delay: 2}
		}
		return fault.PacketFate{}
	})
	link := transport.NewLink(transport.LinkConfig{Plane: fp})
	if err := col.Attach(1, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}

	stop, flusher := make(chan struct{}), make(chan struct{})
	stopFlusher := sync.OnceFunc(func() { close(stop); <-flusher })
	defer stopFlusher()
	go func() {
		defer close(flusher)
		for {
			select {
			case <-stop:
				return
			default:
			}
			link.CollectorEnd().FlushHeld()
			runtime.Gosched()
		}
	}()

	end := link.NodeEnd()
	var acked [reports]bool
	for seq := uint64(0); seq < reports; seq++ {
		deadline := time.Now().Add(10 * time.Second)
		for !acked[seq] {
			if time.Now().After(deadline) {
				t.Fatalf("report %d never ACKed", seq)
			}
			end.Send(transport.Packet{Kind: transport.KindReport, Node: 1, Seq: seq, Value: int64(seq)})
			for {
				ack, ok := recvWithin(end, time.Millisecond)
				if !ok {
					break
				}
				if ack.Kind != transport.KindAck || ack.Node != 1 || ack.Seq >= reports {
					t.Fatalf("unexpected frame on the downlink: %+v", ack)
				}
				acked[ack.Seq] = true
				if ack.Seq == seq {
					break
				}
			}
		}
	}
	stopFlusher()

	// Release what the sender's last retransmits left held back; the
	// flush's own drain must pull every frame it lands.
	link.CollectorEnd().FlushHeld()
	if st := col.Stats(); st.Accepted != reports {
		t.Fatalf("stats %+v, want %d accepted", st, reports)
	}
	if n := link.CollectorEnd().Pending(); n != 0 {
		t.Fatalf("%d frames left on the uplink, want 0", n)
	}
	if link.Stats().Reordered == 0 {
		t.Fatal("the uplink held nothing back; no flush landed a frame")
	}
}

// recvWithin polls end for its next frame for up to d of wall time: a
// frame another goroutine's drain lands meanwhile is taken at once.
func recvWithin(end *transport.Endpoint, d time.Duration) (transport.Packet, bool) {
	deadline := time.Now().Add(d)
	for {
		if p, ok := end.TryRecv(); ok || time.Now().After(deadline) {
			return p, ok
		}
		runtime.Gosched()
	}
}
