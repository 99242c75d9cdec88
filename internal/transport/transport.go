// Package transport is the fleet's in-process lossy link: a simulated
// radio hop between one ULP node and the collector, with drops,
// duplication, reordering, corruption and latency jitter injected
// through the internal/fault packet site so chaos schedules are seeded
// and reproducible.
//
// The link carries 22-byte frames (one report or ACK each) on two
// directions — up (node → collector) and down (collector → node) —
// through bounded queues. A full queue behaves like the air going
// busy: the frame vanishes and the sender's retry loop recovers it,
// exactly as it recovers a chaos drop. Nothing on the link is
// reliable; reliability is the ReportAgent/Collector protocol's job
// (at-least-once delivery, at-most-once noising, idempotent dedup).
//
// Reordering is slot-based rather than wall-clock-based: a delayed
// frame is held back until a configured number of later frames pass
// it (or the direction drains), which models latency jitter without
// timers and keeps chaos sweeps deterministic per seed.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
	"ulpdp/internal/simclock"
)

// NodeID identifies one fleet node.
type NodeID uint16

// Kind is the frame type.
type Kind uint8

const (
	// KindReport is a node → collector noised report.
	KindReport Kind = 1
	// KindAck is a collector → node acknowledgement of (node, seq).
	KindAck Kind = 2
)

// Report flag bits, mirroring the DP-Box STATUS quality bits.
const (
	// FlagDegraded marks a release from the resample watchdog's
	// certified thresholding clamp.
	FlagDegraded = 1 << 0
	// FlagFromCache marks a zero-charge cache replay (budget
	// exhausted or URNG gate closed).
	FlagFromCache = 1 << 1
	// FlagUnhealthy marks a report sent while the node's URNG health
	// battery was failing.
	FlagUnhealthy = 1 << 2
)

// Packet is one decoded frame.
type Packet struct {
	// Kind is the frame type.
	Kind Kind
	// Node is the sending (for reports) or addressed (for ACKs) node.
	Node NodeID
	// Seq is the per-node monotonic report sequence number.
	Seq uint64
	// Value is the noised reading (reports only; 0 in ACKs).
	Value int64
	// Flags carries the report quality bits.
	Flags uint8
}

// frameLen is the wire size of one frame:
// kind(1) flags(1) node(2) seq(8) value(8) checksum(2).
const frameLen = 22

// frame is one wire buffer. Frames are pooled: Send draws from
// framePool, ownership travels through the receive queue, and the
// receiving end returns the buffer after decoding — the steady-state
// per-frame path allocates nothing.
type frame [frameLen]byte

var framePool = sync.Pool{New: func() any { return new(frame) }}

// ErrCorrupt reports a frame whose checksum does not match: bits were
// flipped in flight and the frame must be discarded.
var ErrCorrupt = errors.New("transport: corrupt frame")

// fletcher16 is the frame checksum (two running sums mod 255, the
// classic serial-link integrity check — cheap enough for a radio MCU
// and it catches all single-bit flips).
func fletcher16(b []byte) uint16 {
	// Deferred-modulo Fletcher: accumulate in 32-bit registers and
	// reduce once per block instead of twice per byte. s2 grows at
	// most n(n+1)/2·255 per block, so 4096-byte blocks cannot
	// overflow uint32; the congruence (and thus the checksum) is
	// identical to the byte-at-a-time form.
	var s1, s2 uint32
	for len(b) > 0 {
		n := len(b)
		if n > 4096 {
			n = 4096
		}
		for _, x := range b[:n] {
			s1 += uint32(x)
			s2 += s1
		}
		s1 %= 255
		s2 %= 255
		b = b[n:]
	}
	return uint16(s2)<<8 | uint16(s1)
}

// marshalInto encodes a packet into a pooled wire buffer. The layout
// is little-endian throughout, so the multi-byte fields compile to
// single stores.
func marshalInto(p Packet, b *frame) {
	b[0] = byte(p.Kind)
	b[1] = p.Flags
	binary.LittleEndian.PutUint16(b[2:4], uint16(p.Node))
	binary.LittleEndian.PutUint64(b[4:12], p.Seq)
	binary.LittleEndian.PutUint64(b[12:20], uint64(p.Value))
	sum := fletcher16(b[:frameLen-2])
	binary.LittleEndian.PutUint16(b[frameLen-2:frameLen], sum)
}

// Marshal encodes a packet into a fresh frame.
func Marshal(p Packet) []byte {
	var f frame
	marshalInto(p, &f)
	return append([]byte(nil), f[:]...)
}

// Unmarshal decodes a frame, verifying length and checksum.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) != frameLen {
		return Packet{}, fmt.Errorf("transport: frame length %d, want %d: %w", len(b), frameLen, ErrCorrupt)
	}
	sum := binary.LittleEndian.Uint16(b[frameLen-2 : frameLen])
	if fletcher16(b[:frameLen-2]) != sum {
		return Packet{}, ErrCorrupt
	}
	var p Packet
	p.Kind = Kind(b[0])
	p.Flags = b[1]
	p.Node = NodeID(binary.LittleEndian.Uint16(b[2:4]))
	p.Seq = binary.LittleEndian.Uint64(b[4:12])
	p.Value = int64(binary.LittleEndian.Uint64(b[12:20]))
	if p.Kind != KindReport && p.Kind != KindAck {
		return Packet{}, fmt.Errorf("transport: unknown frame kind %d: %w", b[0], ErrCorrupt)
	}
	return p, nil
}

// Stats counts link events; read a snapshot with Link.Stats.
type Stats struct {
	// Sent counts frames offered to the link (both directions).
	Sent uint64
	// Delivered counts frames that reached a receive queue.
	Delivered uint64
	// Dropped counts chaos drops.
	Dropped uint64
	// Duplicated counts extra chaos copies delivered.
	Duplicated uint64
	// Reordered counts frames held back for later delivery.
	Reordered uint64
	// CorruptedInFlight counts frames whose payload was perturbed.
	CorruptedInFlight uint64
	// Overflow counts frames lost to a full receive queue
	// (backpressure; the sender's retry recovers them).
	Overflow uint64
	// RejectedCorrupt counts received frames discarded by checksum.
	RejectedCorrupt uint64
}

// LinkConfig parameterizes a Link.
type LinkConfig struct {
	// Plane supplies the packet injector (nil or no injector = a
	// perfect link). Install Plane.SetLossyLink for probabilistic chaos
	// or a custom PacketFault for scripted schedules.
	Plane *fault.Plane
	// QueueCap bounds each direction's receive queue (default 64).
	QueueCap int
	// Obs is an optional telemetry plane, usually shared across every
	// link of a fleet. Nil detaches it: every instrument call is then
	// a nil-receiver no-op.
	Obs *Metrics
	// Clock times blocking receives (nil = wall time). Agents on the
	// link's node end wait on the same clock.
	Clock simclock.Clock
}

// held is a frame waiting out its reorder delay.
type held struct {
	frame     *frame
	remaining int
}

// pipe is one direction of the link. Queued frames live in a bounded
// ring under mu — not a channel — so the event-driven receive path
// (TryRecv from the collector's reactor) is one mutexed pointer pop
// with no channel machinery. Blocking receivers announce themselves
// in waiters and park on wake, which senders signal only on an
// empty→nonempty transition with a waiter present. The waiter is
// created by the first blocking receive: the collector end only ever
// TryRecvs, so its direction never pays for one.
type pipe struct {
	mu   sync.Mutex
	held []held

	buf  []*frame // bounded receive ring
	head int      // buf[head] is the next frame out
	n    int      // frames queued

	waiters atomic.Int32    // blocked Recv calls
	wake    simclock.Waiter // their doorbell and deadline; set under mu

	// notify, when set, is fired (outside mu) after one or more frames
	// land in the ring: the receiving end's readiness hook. See
	// Endpoint.SetNotify.
	notify func()
}

// popLocked removes and returns the oldest queued frame (nil when
// empty). Callers hold mu.
func (p *pipe) popLocked() *frame {
	if p.n == 0 {
		return nil
	}
	f := p.buf[p.head]
	p.buf[p.head] = nil
	p.head = (p.head + 1) % len(p.buf)
	p.n--
	return f
}

// linkStats is the Stats schema with atomic fields: the per-frame
// hot path bumps counters without a shared mutex (four lock/unlock
// pairs per ACKed report on the old guarded struct).
type linkStats struct {
	sent, delivered, dropped, duplicated     atomic.Uint64
	reordered, corrupted, overflow, rejected atomic.Uint64
}

// Link is a bidirectional lossy hop between one node and the
// collector. Both ends may be driven from different goroutines; a
// single end must not be shared.
//
// A link is one record: both directions and both endpoints are
// embedded, and the two receive rings share one backing array, so a
// link costs two allocations however often its ends are asked for,
// plus a direction's waiter once a receive on it blocks.
type Link struct {
	plane *fault.Plane
	obs   *Metrics
	clk   simclock.Clock
	up    pipe
	down  pipe
	stats linkStats

	nodeEnd, colEnd Endpoint
}

// NewLink builds a link.
func NewLink(cfg LinkConfig) *Link {
	cap := cfg.QueueCap
	if cap <= 0 {
		cap = 64
	}
	if cfg.Obs == nil {
		cfg.Obs = &noMetrics
	}
	rings := make([]*frame, 2*cap)
	l := &Link{plane: cfg.Plane, obs: cfg.Obs, clk: simclock.Or(cfg.Clock)}
	l.up.buf = rings[:cap:cap]
	l.down.buf = rings[cap:]
	l.nodeEnd = Endpoint{link: l, sendPipe: &l.up, recvPipe: &l.down, sendDir: fault.DirUp}
	l.colEnd = Endpoint{link: l, sendPipe: &l.down, recvPipe: &l.up, sendDir: fault.DirDown}
	return l
}

// Stats returns a snapshot of the link counters. Each counter is
// read atomically; the snapshot as a whole is not a single instant,
// which only matters while frames are still in flight.
func (l *Link) Stats() Stats {
	return Stats{
		Sent:              l.stats.sent.Load(),
		Delivered:         l.stats.delivered.Load(),
		Dropped:           l.stats.dropped.Load(),
		Duplicated:        l.stats.duplicated.Load(),
		Reordered:         l.stats.reordered.Load(),
		CorruptedInFlight: l.stats.corrupted.Load(),
		Overflow:          l.stats.overflow.Load(),
		RejectedCorrupt:   l.stats.rejected.Load(),
	}
}

// Endpoint is one end of a link. The node end sends up and receives
// down; the collector end is the mirror image. Endpoints are
// goroutine-safe: Send and Recv may run concurrently (the collector
// ACKs from its processor while a per-node goroutine receives).
type Endpoint struct {
	link     *Link
	sendPipe *pipe
	recvPipe *pipe
	sendDir  uint8
}

// NodeEnd returns the node-side endpoint: the same *Endpoint on every
// call, embedded in the link, so asking for it allocates nothing.
func (l *Link) NodeEnd() *Endpoint { return &l.nodeEnd }

// CollectorEnd returns the collector-side endpoint: the same *Endpoint
// on every call, embedded in the link, so asking for it allocates
// nothing.
func (l *Link) CollectorEnd() *Endpoint { return &l.colEnd }

// Clock returns the clock the link's blocking receives run on.
func (e *Endpoint) Clock() simclock.Clock { return e.link.clk }

// SetNotify installs a readiness hook on this end's receive
// direction: fn fires after one or more frames land in the receive
// queue (at most once per Send or flush, however many frames it
// delivered). The collector's reactor uses this to replace per-node
// busy-polling — it only touches links that announced pending frames.
//
// fn runs on the *sender's* goroutine (or whichever goroutine flushed
// holdbacks) and must be non-blocking and must not call back into
// this endpoint; the canonical implementation sets an atomic "armed"
// bit and does a non-blocking channel send. Passing nil removes the
// hook.
func (e *Endpoint) SetNotify(fn func()) {
	p := e.recvPipe
	p.mu.Lock()
	p.notify = fn
	p.mu.Unlock()
}

// Send offers one packet to the air. It never blocks and reports
// nothing about delivery — drops, duplication, reordering, corruption
// and queue overflow all look identical from the sender's side, which
// is exactly why the protocol above must retransmit until ACKed.
func (e *Endpoint) Send(p Packet) { e.SendBatch([]Packet{p}) }

// SendBatch sends ps in order as one unit: the receiver can pop none
// of them before all have drawn their fates. The collector writes a
// node's ACK batch back this way, so the node cannot react to the
// first ACK (and draw the link's next fate for its own send) while
// later ACKs are still drawing theirs: the link's fate order stays a
// function of the protocol, not of goroutine timing.
func (e *Endpoint) SendBatch(ps []Packet) {
	p2 := e.sendPipe
	p2.mu.Lock()
	landed := 0
	for _, p := range ps {
		landed += e.sendLocked(p2, p)
	}
	fn := p2.notify
	p2.mu.Unlock()
	if landed > 0 && fn != nil {
		fn()
	}
}

// sendLocked draws one packet's fate and delivers it into p2,
// reporting how many frames landed (aged holdbacks included). Callers
// hold p2.mu.
func (e *Endpoint) sendLocked(p2 *pipe, p Packet) int {
	l := e.link
	buf := framePool.Get().(*frame)
	marshalInto(p, buf)
	l.stats.sent.Add(1)
	l.obs.Sent.Inc()

	var fate fault.PacketFate
	if l.plane != nil {
		fate = l.plane.PerturbPacket(e.sendDir, buf[:])
	}
	if fate.Corrupt {
		buf[(fate.FlipBit/8)%frameLen] ^= 1 << (fate.FlipBit % 8)
		l.stats.corrupted.Add(1)
		l.obs.Corrupted.Inc()
	}

	// Every send ages the holdbacks; expired frames deliver first so
	// a delayed frame lands behind at most Delay successors.
	landed := e.ageHeldLocked(p2)
	if fate.Drop {
		framePool.Put(buf)
		l.stats.dropped.Add(1)
		l.obs.Dropped.Inc()
		return landed
	}
	selfLanded := 0
	if fate.Delay > 0 {
		p2.held = append(p2.held, held{frame: buf, remaining: fate.Delay})
		l.stats.reordered.Add(1)
		l.obs.Reordered.Inc()
	} else {
		n := e.enqueueLocked(p2, buf)
		landed += n
		selfLanded += n
	}
	for i := 0; i < fate.Duplicates; i++ {
		d := framePool.Get().(*frame)
		*d = *buf
		n := e.enqueueLocked(p2, d)
		landed += n
		selfLanded += n
		l.stats.duplicated.Add(1)
		l.obs.Duplicated.Inc()
	}
	// A receivable copy of a report landed: stamp its span's link-rx
	// stage (p still holds the pre-corruption identity). The stamp must
	// precede the mutex release — the receiver can pop the frame the
	// instant the pipe unlocks, and the shard-admit stamp must not be
	// able to land before this one.
	if selfLanded > 0 && !fate.Corrupt && p.Kind == KindReport {
		l.obs.Flight.Record(int64(p.Node), p.Seq, obs.StageLinkRx)
	}
	return landed
}

// ageHeldLocked decrements reorder holds and delivers the expired
// ones, reporting how many landed. Callers hold p.mu.
func (e *Endpoint) ageHeldLocked(p *pipe) int {
	landed := 0
	kept := p.held[:0]
	for _, h := range p.held {
		h.remaining--
		if h.remaining <= 0 {
			landed += e.landHeldLocked(p, h.frame)
		} else {
			kept = append(kept, h)
		}
	}
	p.held = kept
	return landed
}

// landHeldLocked delivers a held-back frame, stamping its report
// span's link-rx stage when a flight recorder is attached. The frame
// must be decoded *before* it enters the ring: once enqueued, the
// receiver owns the buffer and may return it to the pool. Held frames
// are rare (reorder chaos only), so the extra decode stays off the
// healthy path. Callers hold p.mu.
func (e *Endpoint) landHeldLocked(p *pipe, f *frame) int {
	var pk Packet
	stamp := false
	// The decode exists for the stamp alone: skip it when no flight
	// recorder is attached.
	if e.link.obs.Flight != nil {
		if q, err := Unmarshal(f[:]); err == nil && q.Kind == KindReport {
			pk, stamp = q, true
		}
	}
	n := e.enqueueLocked(p, f)
	if n == 1 && stamp {
		e.link.obs.Flight.Record(int64(pk.Node), pk.Seq, obs.StageLinkRx)
	}
	return n
}

// enqueueLocked pushes a frame into the receive ring, dropping on
// overflow (bounded queue backpressure), and reports 1 if the frame
// landed. The receiver's waiter is signalled only when the ring turns
// nonempty with a blocked Recv present — the event-driven path pays
// no doorbell cost. On a virtual clock the signal counts the parked
// receiver back in before the frame can be popped, so time cannot
// advance past a frame nobody has read yet. Callers hold p.mu.
func (e *Endpoint) enqueueLocked(p *pipe, f *frame) int {
	if p.n == len(p.buf) {
		framePool.Put(f)
		e.link.stats.overflow.Add(1)
		e.link.obs.Overflow.Inc()
		return 0
	}
	p.buf[(p.head+p.n)%len(p.buf)] = f
	p.n++
	e.link.stats.delivered.Add(1)
	e.link.obs.Delivered.Inc()
	if p.n == 1 && p.waiters.Load() != 0 {
		p.wake.Signal()
	}
	return 1
}

// FlushHeld releases every holdback on this end's receive direction
// immediately: the direction has drained, so "wait for later frames"
// can no longer complete and the delayed frames simply arrive late.
// Recv does this implicitly at its deadline; event-driven receivers
// (which never block in Recv) call it from their idle tick so a
// reorder holdback on a now-silent link is late, never lost.
func (e *Endpoint) FlushHeld() { e.flushHeld() }

func (e *Endpoint) flushHeld() {
	p := e.recvPipe
	p.mu.Lock()
	landed := 0
	for _, h := range p.held {
		landed += e.landHeldLocked(p, h.frame)
	}
	p.held = nil
	fn := p.notify
	p.mu.Unlock()
	if landed > 0 && fn != nil {
		fn()
	}
}

// Recv waits up to timeout for the next valid frame on this end; it
// is RecvUntil with a deadline relative to the link clock's now.
func (e *Endpoint) Recv(timeout time.Duration) (Packet, bool) {
	return e.RecvUntil(e.link.clk.Now() + timeout)
}

// RecvUntil waits until the link clock reaches deadline for the next
// valid frame on this end. Corrupt frames are discarded (counted in
// Stats) and the wait continues until a valid frame or the deadline.
// When the queue idles past the deadline, any frames still held back
// for reordering are flushed and collected — a delayed frame is late,
// never lost. The wait reuses the direction's one waiter, created by
// its first blocking receive; later receives allocate nothing.
func (e *Endpoint) RecvUntil(deadline time.Duration) (Packet, bool) {
	if p, ok := e.TryRecv(); ok {
		return p, true
	}
	pi := e.recvPipe
	wake := e.recvWaiter()
	// Announce the wait before the re-check: a sender that enqueued
	// after our TryRecv either sees waiters != 0 and signals, or
	// enqueued before the re-check sees its frame. A stale signal from
	// a past wait only causes one spurious loop.
	pi.waiters.Add(1)
	defer pi.waiters.Add(-1)
	for {
		if p, ok := e.TryRecv(); ok {
			return p, true
		}
		if wake.Wait(deadline, nil) {
			// Last chance: release holdbacks and drain what is
			// already queued.
			e.flushHeld()
			return e.TryRecv()
		}
	}
}

// recvWaiter returns the receive direction's waiter, creating it on
// first use. Only this end's receiving goroutine calls it; senders
// read wake under mu, and only while a Recv has announced itself.
func (e *Endpoint) recvWaiter() simclock.Waiter {
	pi := e.recvPipe
	if pi.wake == nil {
		pi.mu.Lock()
		pi.wake = e.link.clk.NewWaiter(simclock.Agent)
		pi.mu.Unlock()
	}
	return pi.wake
}

// PauseUntil parks this end's receiving goroutine on the link clock
// until deadline without receiving: frames that land meanwhile stay
// queued and do not cut the pause short. It reuses the receive
// direction's waiter, so a node's backoff between retransmits costs
// no waiter of its own. It reports false if done closed first.
func (e *Endpoint) PauseUntil(deadline time.Duration, done <-chan struct{}) bool {
	wake := e.recvWaiter()
	// Senders signal only while a Recv is announced, so a false return
	// is a stale signal from an earlier receive (or done): wait again.
	for !wake.Wait(deadline, done) {
		select {
		case <-done:
			return false
		default:
		}
	}
	return true
}

// Pending reports the number of frames queued or held back on this
// end's receive direction — the fleet's quiesce step checks it to know
// when the air has gone truly silent before taking final snapshots.
func (e *Endpoint) Pending() int {
	p := e.recvPipe
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n + len(p.held)
}

// TryRecv is Recv without waiting: it drains at most the frames
// already queued.
func (e *Endpoint) TryRecv() (Packet, bool) {
	pi := e.recvPipe
	for {
		pi.mu.Lock()
		f := pi.popLocked()
		pi.mu.Unlock()
		if f == nil {
			return Packet{}, false
		}
		if p, ok := e.decode(f); ok {
			return p, true
		}
	}
}

// decode unmarshals a received frame and returns its buffer to the
// pool; corrupt frames are counted and reported as !ok.
func (e *Endpoint) decode(f *frame) (Packet, bool) {
	p, err := Unmarshal(f[:])
	framePool.Put(f)
	if err != nil {
		e.link.stats.rejected.Add(1)
		e.link.obs.RejectedCorrupt.Inc()
		return Packet{}, false
	}
	return p, true
}
