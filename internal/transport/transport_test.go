package transport

import (
	"fmt"
	"testing"

	"ulpdp/internal/fault"
)

// recvOrFlush is TryRecv, except that with nothing queued it first
// releases the direction's reorder holdbacks, as a receiver does once
// its wait for frames has ended.
func recvOrFlush(e *Endpoint) (Packet, bool) {
	if p, ok := e.TryRecv(); ok {
		return p, true
	}
	e.FlushHeld()
	return e.TryRecv()
}

func TestMarshalRoundTrip(t *testing.T) {
	pkts := []Packet{
		{Kind: KindReport, Node: 7, Seq: 0, Value: -123, Flags: FlagDegraded},
		{Kind: KindReport, Node: 65535, Seq: 1<<63 + 17, Value: 1<<40 + 5, Flags: FlagFromCache | FlagUnhealthy},
		{Kind: KindAck, Node: 0, Seq: 42},
	}
	for _, want := range pkts {
		got, err := Unmarshal(Marshal(want))
		if err != nil {
			t.Fatalf("unmarshal(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	frame := Marshal(Packet{Kind: KindReport, Node: 3, Seq: 9, Value: 77})
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Unmarshal(mut); err == nil {
			t.Fatalf("bit flip %d accepted", bit)
		}
	}
	if _, err := Unmarshal(frame[:frameLen-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestPerfectLinkDelivers(t *testing.T) {
	l := NewLink(LinkConfig{})
	nodeEnd, collEnd := l.NodeEnd(), l.CollectorEnd()

	for seq := uint64(0); seq < 10; seq++ {
		nodeEnd.Send(Packet{Kind: KindReport, Node: 1, Seq: seq, Value: int64(seq) * 3})
	}
	for seq := uint64(0); seq < 10; seq++ {
		p, ok := collEnd.TryRecv()
		if !ok {
			t.Fatalf("seq %d: no frame", seq)
		}
		if p.Seq != seq || p.Value != int64(seq)*3 {
			t.Fatalf("seq %d: got %+v", seq, p)
		}
	}
	collEnd.Send(Packet{Kind: KindAck, Node: 1, Seq: 9})
	ack, ok := nodeEnd.TryRecv()
	if !ok || ack.Kind != KindAck || ack.Seq != 9 {
		t.Fatalf("ack: ok=%v %+v", ok, ack)
	}
	st := l.Stats()
	if st.Dropped != 0 || st.Duplicated != 0 || st.Reordered != 0 || st.Overflow != 0 || st.RejectedCorrupt != 0 {
		t.Fatalf("perfect link perturbed something: %+v", st)
	}
	if st.Sent != 11 || st.Delivered != 11 {
		t.Fatalf("sent/delivered: %+v", st)
	}
}

// TestLinkEndsAreEmbedded pins the link as one record: each accessor
// returns the same endpoint on every call without allocating.
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
}

// chaosLink builds a link over a seeded lossy profile.
func chaosLink(seed uint64, prof fault.LinkProfile, queueCap int) *Link {
	fp := fault.NewPlane()
	fp.SetLossyLink(seed, prof)
	return NewLink(LinkConfig{Plane: fp, QueueCap: queueCap})
}

func TestLossyLinkLosesAndCorrupts(t *testing.T) {
	prof := fault.LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1, MaxDelay: 3}
	l := chaosLink(0xC0FFEE, prof, 4096)
	nodeEnd, collEnd := l.NodeEnd(), l.CollectorEnd()

	const n = 2000
	for seq := uint64(0); seq < n; seq++ {
		nodeEnd.Send(Packet{Kind: KindReport, Node: 1, Seq: seq, Value: int64(seq)})
	}
	seen := make(map[uint64]int)
	for {
		p, ok := recvOrFlush(collEnd)
		if !ok {
			break
		}
		if p.Value != int64(p.Seq) {
			t.Fatalf("valid frame with mismatched payload: %+v", p)
		}
		seen[p.Seq]++
	}

	st := l.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 || st.CorruptedInFlight == 0 {
		t.Fatalf("chaos injected nothing: %+v", st)
	}
	// Frames that were neither dropped nor corrupted must arrive;
	// corrupt ones must be rejected by checksum, never mis-decoded.
	if st.RejectedCorrupt == 0 {
		t.Fatalf("no corrupt frame reached the checksum: %+v", st)
	}
	delivered := uint64(len(seen))
	if delivered == 0 || delivered == n {
		t.Fatalf("implausible delivery count %d of %d (%+v)", delivered, n, st)
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatalf("no duplicate deliveries observed: %+v", st)
	}
}

func TestReorderedFrameIsLateNeverLost(t *testing.T) {
	// Scripted fate: delay the first up-frame by 2 slots, deliver the
	// rest untouched.
	fp := fault.NewPlane()
	first := true
	fp.SetPacketFault(func(n uint64, dir uint8, payload []byte) fault.PacketFate {
		if dir == fault.DirUp && first {
			first = false
			return fault.PacketFate{Delay: 2}
		}
		return fault.PacketFate{}
	})
	l := NewLink(LinkConfig{Plane: fp})
	nodeEnd, collEnd := l.NodeEnd(), l.CollectorEnd()

	nodeEnd.Send(Packet{Kind: KindReport, Node: 1, Seq: 0})
	nodeEnd.Send(Packet{Kind: KindReport, Node: 1, Seq: 1})

	// Seq 1 overtakes seq 0, which is still held back (only one
	// subsequent send has aged it).
	p, ok := collEnd.TryRecv()
	if !ok || p.Seq != 1 {
		t.Fatalf("first delivery: ok=%v %+v", ok, p)
	}
	if p, ok := collEnd.TryRecv(); ok {
		t.Fatalf("the held frame arrived early: %+v", p)
	}
	// The direction has drained; a flush delivers the held frame
	// rather than losing it.
	collEnd.FlushHeld()
	p, ok = collEnd.TryRecv()
	if !ok || p.Seq != 0 {
		t.Fatalf("held frame not flushed: ok=%v %+v", ok, p)
	}
}

func TestBoundedQueueOverflows(t *testing.T) {
	l := NewLink(LinkConfig{QueueCap: 4})
	nodeEnd, collEnd := l.NodeEnd(), l.CollectorEnd()
	for seq := uint64(0); seq < 10; seq++ {
		nodeEnd.Send(Packet{Kind: KindReport, Node: 1, Seq: seq})
	}
	st := l.Stats()
	if st.Overflow != 6 || st.Delivered != 4 {
		t.Fatalf("overflow accounting: %+v", st)
	}
	for seq := uint64(0); seq < 4; seq++ {
		p, ok := collEnd.TryRecv()
		if !ok || p.Seq != seq {
			t.Fatalf("queued frame %d: ok=%v %+v", seq, ok, p)
		}
	}
	if _, ok := collEnd.TryRecv(); ok {
		t.Fatal("overflowed frame delivered")
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	prof := fault.LinkProfile{Drop: 0.25, Duplicate: 0.15, Reorder: 0.2, Corrupt: 0.05, MaxDelay: 4}
	run := func() []Packet {
		l := chaosLink(42, prof, 4096)
		nodeEnd, collEnd := l.NodeEnd(), l.CollectorEnd()
		for seq := uint64(0); seq < 500; seq++ {
			nodeEnd.Send(Packet{Kind: KindReport, Node: 9, Seq: seq, Value: int64(seq) * 7})
		}
		var got []Packet
		for {
			p, ok := recvOrFlush(collEnd)
			if !ok {
				return got
			}
			got = append(got, p)
		}
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestNotifyContract pins the readiness hook the collector drains on:
// it fires once per send or flush that lands frames, even into a ring
// that is not empty; never for a send whose frame is dropped or held
// back; after the direction's lock is released, so it may receive on
// its own end; and never again once removed.
func TestNotifyContract(t *testing.T) {
	var fate fault.PacketFate // the next uplink frame's scripted fate
	fp := fault.NewPlane()
	fp.SetPacketFault(func(_ uint64, dir uint8, _ []byte) fault.PacketFate {
		if dir == fault.DirUp {
			return fate
		}
		return fault.PacketFate{}
	})
	l := NewLink(LinkConfig{Plane: fp})
	up, col := l.NodeEnd(), l.CollectorEnd()
	fires, unlocked := 0, true
	drain := false // whether the hook receives what landed
	col.SetNotify(func() {
		fires++
		if !l.up.mu.TryLock() {
			unlocked = false
			return
		}
		l.up.mu.Unlock()
		if drain {
			for ok := true; ok; _, ok = col.TryRecv() {
			}
		}
	})
	seq := uint64(0)
	send := func(f fault.PacketFate) {
		fate = f
		up.Send(Packet{Kind: KindReport, Node: 1, Seq: seq})
		seq++
	}
	expect := func(step string, wantFires, wantPending int) {
		t.Helper()
		if !unlocked {
			t.Fatalf("%s: the hook ran under the pipe lock", step)
		}
		if fires != wantFires || col.Pending() != wantPending {
			t.Fatalf("%s: %d fires, %d pending; want %d, %d", step, fires, col.Pending(), wantFires, wantPending)
		}
	}

	for i := 1; i <= 3; i++ {
		send(fault.PacketFate{})
		expect(fmt.Sprintf("send %d into a ring holding %d", i, i-1), i, i)
	}
	fate = fault.PacketFate{}
	up.SendBatch([]Packet{{Kind: KindReport, Node: 1, Seq: 10}, {Kind: KindReport, Node: 1, Seq: 11}})
	expect("a two-frame batch", 4, 5)
	send(fault.PacketFate{Duplicates: 2})
	expect("a send landing three copies", 5, 8)
	send(fault.PacketFate{Drop: true})
	expect("a dropped send", 5, 8)
	send(fault.PacketFate{Delay: 1})
	expect("a held-back send", 5, 9)
	col.FlushHeld()
	expect("a flush landing the holdback", 6, 9)
	col.FlushHeld()
	expect("a flush with nothing held", 6, 9)

	drain = true
	send(fault.PacketFate{})
	expect("a send whose hook receives on its own end", 7, 0)
	send(fault.PacketFate{Delay: 1})
	expect("a held-back send", 7, 1)
	send(fault.PacketFate{Drop: true})
	expect("a dropped send aging a holdback into the ring", 8, 0)
	send(fault.PacketFate{Delay: 1})
	send(fault.PacketFate{})
	expect("a send landing itself and an aged holdback", 9, 0)

	col.SetNotify(nil)
	send(fault.PacketFate{})
	col.FlushHeld()
	expect("after SetNotify(nil)", 9, 1)
}
