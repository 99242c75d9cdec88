package transport

import (
	"testing"
	"time"

	"ulpdp/internal/simclock"
)

// TestVirtualClockHeldByQueuedFrame: a frame landing for a parked
// receiver counts that receiver back in before it can be popped, so an
// earlier deadline parked elsewhere cannot fire in between — the
// receiver gets the frame at the instant it was sent.
func TestVirtualClockHeldByQueuedFrame(t *testing.T) {
	clk := simclock.NewVirtual(0)
	clk.Join() // this goroutine sends, then leaves
	l := NewLink(LinkConfig{Clock: clk})

	type got struct {
		ok bool
		at time.Duration
	}
	recv := make(chan got, 1)
	clk.Join()
	go func() {
		defer clk.Leave()
		_, ok := l.NodeEnd().RecvUntil(time.Second)
		recv <- got{ok, clk.Now()}
	}()
	// A bystander whose deadline would be next if the frame were not
	// counted.
	clk.Join()
	go func() {
		defer clk.Leave()
		clk.NewWaiter(simclock.Agent).Wait(time.Millisecond, nil)
	}()
	for clk.Armed() != 2 {
		time.Sleep(50 * time.Microsecond)
	}
	l.CollectorEnd().Send(Packet{Kind: KindAck, Node: 1, Seq: 1})
	clk.Leave()
	if r := <-recv; !r.ok || r.at != 0 {
		t.Fatalf("receive: ok=%v at %v, want the frame at 0", r.ok, r.at)
	}
}

// TestRecvUntilTimesOutOnVirtualClock: an empty receive ends exactly at
// its deadline, in no wall time.
func TestRecvUntilTimesOutOnVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual(0)
	clk.Join()
	end := NewLink(LinkConfig{Clock: clk}).NodeEnd()
	t0 := time.Now()
	if _, ok := end.Recv(time.Minute); ok {
		t.Fatal("empty link delivered a frame")
	}
	if clk.Now() != time.Minute {
		t.Fatalf("receive timed out at %v, want 1m", clk.Now())
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("a simulated minute took %v", el)
	}
}

// benchRecvDeadline times a blocking receive that runs to its deadline
// on an empty link: the path that once allocated a timer per call.
func benchRecvDeadline(b *testing.B, clk simclock.Clock) {
	clk.Join()
	end := NewLink(LinkConfig{Clock: clk}).NodeEnd()
	end.Recv(time.Microsecond) // warm up the waiter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := end.Recv(time.Microsecond); ok {
			b.Fatal("empty link delivered a frame")
		}
	}
}

func BenchmarkRecvDeadlineWall(b *testing.B) { benchRecvDeadline(b, simclock.Wall) }

func BenchmarkRecvDeadlineVirtual(b *testing.B) { benchRecvDeadline(b, simclock.NewVirtual(0)) }

// TestLinkEndsAreEmbedded pins the link as one record: each accessor
// returns the same endpoint on every call without allocating, and the
// collector end, which only ever TryRecvs, never creates a waiter.
func TestLinkEndsAreEmbedded(t *testing.T) {
	l := NewLink(LinkConfig{})
	if l.NodeEnd() != l.NodeEnd() || l.CollectorEnd() != l.CollectorEnd() {
		t.Fatal("an accessor returned a fresh endpoint")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = l.NodeEnd(), l.CollectorEnd() }); n != 0 {
		t.Fatalf("endpoint accessors allocate %v times per call pair", n)
	}
	l.NodeEnd().Send(Packet{Kind: KindReport, Node: 1, Seq: 7})
	if p, ok := l.CollectorEnd().TryRecv(); !ok || p.Seq != 7 {
		t.Fatalf("TryRecv: ok=%v %+v", ok, p)
	}
	if l.up.wake != nil {
		t.Fatal("a TryRecv-only end created a waiter")
	}
}

// TestPauseUntilRunsToDeadline checks the backoff pause an agent takes
// on its receive waiter: neither a stale doorbell from an earlier
// receive nor a frame landing meanwhile cuts it short, and the frame
// is still queued afterwards.
func TestPauseUntilRunsToDeadline(t *testing.T) {
	clk := simclock.NewVirtual(0)
	clk.Join()
	l := NewLink(LinkConfig{Clock: clk})
	end := l.NodeEnd()
	end.Recv(time.Microsecond) // creates the waiter
	l.down.wake.Signal()       // a doorbell nobody consumed
	l.CollectorEnd().Send(Packet{Kind: KindAck, Node: 1, Seq: 3})
	until := clk.Now() + time.Millisecond
	if !end.PauseUntil(until, nil) {
		t.Fatal("pause reported an early end")
	}
	if clk.Now() != until {
		t.Fatalf("pause ended at %v, want %v", clk.Now(), until)
	}
	if p, ok := end.TryRecv(); !ok || p.Seq != 3 {
		t.Fatalf("frame that landed during the pause: ok=%v %+v", ok, p)
	}
	done := make(chan struct{})
	close(done)
	if NewLink(LinkConfig{}).NodeEnd().PauseUntil(simclock.Wall.Now()+time.Hour, done) {
		t.Fatal("pause with a closed done channel ran to its deadline")
	}
}
