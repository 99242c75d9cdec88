package node

import (
	"errors"
	"fmt"
	"time"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// ErrAbandoned marks a report whose total transmission budget ran out
// during a sustained collector outage: the (seq, value) binding is
// durable in the node's journal and the report is parked, not lost —
// a later BeginResume (typically after the collector recovers) re-arms
// the identical value under a fresh attempt lease, and the
// collector's recovered dedup state absorbs any copies that did land.
var ErrAbandoned = errors.New("node: report abandoned (total attempt cap)")

// The retry timing is simulation-friendly (sub-millisecond backoff);
// a real radio stack would scale every duration up.
const (
	// ackTimeout is the per-attempt ACK wait.
	ackTimeout = 2 * time.Millisecond
	// backoffBase seeds the capped exponential backoff.
	backoffBase = 200 * time.Microsecond
	// backoffCap caps the backoff.
	backoffCap = 4 * time.Millisecond
	// totalAttemptsPerLease caps a report's cumulative transmissions
	// across its first delivery and every in-place retry at this many
	// MaxAttempts leases, after which the outcome turns terminally
	// abandoned (ErrAbandoned). BeginResume is exempt: it grants the
	// parked report a fresh lease, so a report abandoned during a
	// collector outage is still re-deliverable after the collector
	// recovers.
	totalAttemptsPerLease = 4
)

// AgentConfig parameterizes a ReportAgent's retry policy.
type AgentConfig struct {
	// ID is this node's fleet identity.
	ID transport.NodeID
	// MaxAttempts bounds transmissions per delivery call (default 24).
	MaxAttempts int
	// JitterSeed seeds the deterministic backoff jitter.
	JitterSeed uint64
	// Obs is an optional telemetry plane, usually shared across every
	// agent of a fleet. Nil detaches it: every instrument call is then
	// a nil-receiver no-op.
	Obs *Metrics
}

// ReportOutcome describes one delivered (or abandoned) report.
type ReportOutcome struct {
	// Seq is the report's sequence number.
	Seq uint64
	// Value is the noised value that was (re)transmitted.
	Value int64
	// Attempts counts transmissions, including the successful one.
	Attempts int
	// Charged is the budget charge in nats (0 for replays and
	// cache serves).
	Charged float64
	// Degraded, FromCache, Replayed mirror dpbox.NoiseResult.
	Degraded  bool
	FromCache bool
	Replayed  bool
}

// ReportAgent is the node-side half of the fleet protocol: at-most-
// once noising, at-least-once delivery.
//
// Each report gets the next monotonic sequence number and is noised
// through dpbox.NoiseValueSeq, which journals the (seq, value)
// binding inside the budget charge transaction. Every retransmission
// of that sequence number carries the journaled value verbatim —
// after any schedule of drops, timeouts, and even a node crash, the
// value on the air for a given seq never changes and the budget is
// charged exactly once. Delivery retries with capped exponential
// backoff plus deterministic jitter until the collector ACKs
// (node, seq) or the attempt budget runs out.
//
// An agent is a step machine with one outstanding report at a time,
// by construction (the paper's DP-Box serves one transaction at a time
// anyway). Begin or BeginResume arms a delivery and Step advances it
// to a given time: it drains the downlink, retransmits and draws the
// backoff jitter, and names the time it must next be stepped at. An
// event loop can therefore drive many agents from one goroutine, on
// whatever clock it keeps. Whoever steps an agent must not step it
// concurrently with itself.
type ReportAgent struct {
	box *dpbox.DPBox
	end *transport.Endpoint
	cfg AgentConfig

	next   uint64
	jitter uint64
	d      delivery
}

// phase is where an armed delivery stands.
type phase uint8

const (
	// idle: no delivery armed, or the last one finished.
	idle phase = iota
	// transmit: the next Step sends the next attempt.
	transmit
	// ackWait: an attempt was sent; an ACK is awaited until deadline.
	ackWait
	// backoff: the ACK window closed; the next attempt waits until
	// deadline, and frames landing meanwhile do not cut it short.
	backoff
)

// delivery is the armed (or last finished) delivery's state. The
// outcome carries the report's seq and value, and counts transmissions
// in Attempts as they are made.
type delivery struct {
	out      ReportOutcome
	err      error
	noisedAt time.Time
	deadline time.Duration
	budget   int // transmissions this delivery may make
	phase    phase
	flags    uint8 // the report frame's quality bits
	report   bool  // armed by Begin: the outcome closes a latency span
}

// NewReportAgent wires an agent to its DP-Box and link endpoint. The
// next sequence number resumes from the box's journal, so an agent
// built on a crash-recovered box continues the numbering instead of
// reusing (and re-noising) old sequence numbers.
func NewReportAgent(box *dpbox.DPBox, end *transport.Endpoint, cfg AgentConfig) *ReportAgent {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 24
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = uint64(cfg.ID)*0x9E3779B97F4A7C15 + 1
	}
	if cfg.Obs == nil {
		cfg.Obs = &noMetrics
	}
	a := &ReportAgent{end: end, cfg: cfg}
	a.Rebind(box)
	return a
}

// Rebind points the agent at box — typically the node's box after a
// crash recovery — and leaves it exactly as NewReportAgent would build
// it on the same endpoint and config: the jitter stream restarts at
// JitterSeed, the next sequence number resumes from box's journal and
// any armed delivery is dropped.
// A crash therefore costs the agent no allocation.
func (a *ReportAgent) Rebind(box *dpbox.DPBox) {
	a.box = box
	a.next = box.NextSeq()
	a.jitter = a.cfg.JitterSeed
	a.d = delivery{}
}

// NextSeq returns the sequence number the next Begin will use.
func (a *ReportAgent) NextSeq() uint64 { return a.next }

// rand steps the agent's private xorshift64* jitter stream.
func (a *ReportAgent) rand() uint64 {
	a.jitter ^= a.jitter >> 12
	a.jitter ^= a.jitter << 25
	a.jitter ^= a.jitter >> 27
	return a.jitter * 0x2545F4914F6CDD1D
}

// backoff returns the pause before attempt k (k ≥ 1): capped
// exponential with full jitter, so colliding nodes desynchronize.
func (a *ReportAgent) backoff(k int) time.Duration {
	d := backoffBase << uint(k-1)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	// Full jitter in [d/2, d].
	half := d / 2
	return half + time.Duration(a.rand()%uint64(half+1))
}

// Begin noises x exactly once under the next sequence number and arms
// its delivery; Step then delivers it at-least-once. A noising error
// arms nothing and leaves the sequence number unused.
func (a *ReportAgent) Begin(x int64) error {
	seq, m := a.next, a.cfg.Obs
	a.d = delivery{out: ReportOutcome{Seq: seq}, report: true}
	// The wall clock is read for the latency histogram alone: skip it
	// when none is attached.
	if m.LatencyUs != nil {
		a.d.noisedAt = time.Now()
	}
	// The span opens before the noising transaction so the journal
	// commit inside it lands after the noised stamp.
	m.Flight.Record(int64(a.cfg.ID), seq, obs.StageNoised)
	res, err := a.box.NoiseValueSeq(seq, x)
	if err != nil {
		a.d.err = fmt.Errorf("node: noising seq %d: %w", seq, err)
		return a.d.err
	}
	a.next = seq + 1
	m.Reports.Inc()
	if res.Degraded {
		m.Flight.Record(int64(a.cfg.ID), seq, obs.StageDegraded)
	}
	a.d.out = ReportOutcome{
		Seq:       seq,
		Value:     res.Value,
		Charged:   res.Charged,
		Degraded:  res.Degraded,
		FromCache: res.FromCache,
		Replayed:  res.Replayed,
	}
	// A report rides out a collector outage up to the total cap, then
	// abandons terminally (ErrAbandoned); the journaled binding keeps
	// it re-deliverable through BeginResume once the collector is back.
	a.arm(res.Degraded, res.FromCache, totalAttemptsPerLease*a.cfg.MaxAttempts)
	return nil
}

// BeginResume arms re-delivery of the most recent journaled release
// under a fresh MaxAttempts lease. Use it after crash recovery (node
// or collector side), or for a report whose delivery was abandoned at
// its total attempt cap. Re-delivering an already-ACKed sequence
// number is harmless: the collector dedups by (node, seq), and a
// restarted collector's recovered dedup state re-ACKs it bit-exactly.
func (a *ReportAgent) BeginResume() error {
	if a.next == 0 {
		return errors.New("node: nothing released to resume")
	}
	seq := a.next - 1
	rel, ok := a.box.ReleaseFor(seq)
	if !ok {
		return fmt.Errorf("node: no journaled release for seq %d", seq)
	}
	a.cfg.Obs.Resumes.Inc()
	a.d = delivery{out: ReportOutcome{Seq: seq, Value: rel.Value}}
	a.arm(rel.Degraded, rel.FromCache, a.cfg.MaxAttempts)
	return nil
}

// arm readies the delivery of a.d.out's (seq, value) in at most
// budget transmissions. The report frame's quality bits are fixed
// here, so every retransmission carries the same frame.
func (a *ReportAgent) arm(degraded, fromCache bool, budget int) {
	var flags uint8
	if degraded {
		flags |= transport.FlagDegraded
	}
	if fromCache {
		flags |= transport.FlagFromCache
	}
	if !a.box.Healthy() {
		flags |= transport.FlagUnhealthy
	}
	a.d.flags, a.d.budget, a.d.phase = flags, budget, transmit
}

// AwaitingAck reports whether the armed delivery is inside an ACK
// window: the only phase in which a frame landing on the downlink can
// move it before its deadline.
func (a *ReportAgent) AwaitingAck() bool { return a.d.phase == ackWait }

// Step advances the armed delivery to now, the current time on its
// caller's clock. It retransmits when an attempt is due, drains the frames the
// downlink has received, and draws the backoff jitter when an ACK
// window closes. It returns the time at which it must be stepped next
// — or done once the delivery is ACKed or abandoned (see Outcome).
//
// Inside an ACK window a frame landing on the downlink may be handled
// early: Step at any earlier time drains what was received and, if no
// ACK of the report was among it, changes nothing. A stale ACK does
// not end the window before its deadline. From the deadline on, the
// first frame received decides the window; with none queued, the
// downlink's reorder holdbacks are released first. Frames landing
// during a backoff pause wait for its end; an ACK among them settles
// the report without a retransmission.
func (a *ReportAgent) Step(now time.Duration) (next time.Duration, done bool) {
	d := &a.d
	for {
		switch d.phase {
		case idle:
			return 0, true
		case transmit:
			d.out.Attempts++
			a.cfg.Obs.Flight.Record(int64(a.cfg.ID), d.out.Seq, obs.StageTx)
			a.end.Send(transport.Packet{
				Kind:  transport.KindReport,
				Node:  a.cfg.ID,
				Seq:   d.out.Seq,
				Value: d.out.Value,
				Flags: d.flags,
			})
			d.phase, d.deadline = ackWait, now+ackTimeout
		case ackWait:
			if a.awaitAck(now) {
				return a.finish(nil)
			}
			if now < d.deadline {
				return d.deadline, false
			}
			if d.out.Attempts >= d.budget {
				return a.finish(fmt.Errorf("node: seq %d unacked after %d attempts: %w", d.out.Seq, d.budget, ErrAbandoned))
			}
			pause := a.backoff(d.out.Attempts)
			a.cfg.Obs.BackoffNs.Add(uint64(pause))
			d.phase, d.deadline = backoff, now+pause
		case backoff:
			if now < d.deadline {
				return d.deadline, false
			}
			// An ACK that landed during the pause settles the report;
			// retransmitting anyway would race the collector's reply to
			// it for the link's next fate.
			if a.ackQueued() {
				return a.finish(nil)
			}
			d.phase = transmit
		}
	}
}

// awaitAck reports whether the ACK window holds an ACK of the armed
// report by now. Before the deadline it drains every received frame,
// absorbing stale ACKs (earlier sequence numbers, duplicate
// deliveries). From the deadline on the first received frame decides
// the window; with none queued, the reorder holdbacks are released and
// the first of them decides it.
func (a *ReportAgent) awaitAck(now time.Duration) bool {
	for {
		ack, ok := a.end.TryRecv()
		if !ok {
			break
		}
		if a.absorb(ack) {
			return true
		}
		if now >= a.d.deadline {
			return false
		}
	}
	if now < a.d.deadline {
		return false
	}
	a.end.FlushHeld()
	ack, ok := a.end.TryRecv()
	return ok && a.absorb(ack)
}

// ackQueued drains the frames already received and reports whether an
// ACK of the armed report was among them.
func (a *ReportAgent) ackQueued() bool {
	for {
		ack, ok := a.end.TryRecv()
		if !ok {
			return false
		}
		if a.absorb(ack) {
			return true
		}
	}
}

// absorb reports whether a received frame ACKs the armed report; stale
// ACKs and stray frames are dropped.
func (a *ReportAgent) absorb(ack transport.Packet) bool {
	return ack.Kind == transport.KindAck && ack.Node == a.cfg.ID && ack.Seq == a.d.out.Seq
}

// finish closes the armed delivery with err (nil: ACKed).
func (a *ReportAgent) finish(err error) (time.Duration, bool) {
	d, m := &a.d, a.cfg.Obs
	d.phase, d.err = idle, err
	if d.out.Attempts > 1 {
		m.Retransmits.Add(uint64(d.out.Attempts - 1))
	}
	if err != nil {
		m.Abandoned.Inc()
		m.Flight.Record(int64(a.cfg.ID), d.out.Seq, obs.StageAbandoned)
	} else {
		m.Flight.Record(int64(a.cfg.ID), d.out.Seq, obs.StageAck)
		if d.report && m.LatencyUs != nil {
			// The (node, seq) span closes: noise drawn → ACK recorded.
			m.LatencyUs.Observe(time.Since(d.noisedAt).Microseconds())
		}
	}
	return 0, true
}

// Outcome returns the last delivery's outcome once Step reported it
// done. On error the (seq, value) binding is already durable;
// BeginResume (or a fresh agent on the recovered box) retransmits the
// identical value later.
func (a *ReportAgent) Outcome() (ReportOutcome, error) { return a.d.out, a.d.err }
