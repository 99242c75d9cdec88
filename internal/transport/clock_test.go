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
