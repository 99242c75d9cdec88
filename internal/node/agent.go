package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/obs"
	"ulpdp/internal/simclock"
	"ulpdp/internal/transport"
)

// ErrAbandoned marks a report whose total transmission budget ran out
// during a sustained collector outage: the (seq, value) binding is
// durable in the node's journal and the report is parked, not lost —
// a later Resume (typically after the collector recovers) re-delivers
// the identical value under a fresh attempt lease, and the
// collector's recovered dedup state absorbs any copies that did land.
var ErrAbandoned = errors.New("node: report abandoned (total attempt cap)")

// AgentConfig parameterizes a ReportAgent's retry policy. The zero
// value gets simulation-friendly defaults (sub-millisecond backoff);
// a real radio stack would scale every duration up.
type AgentConfig struct {
	// ID is this node's fleet identity.
	ID transport.NodeID
	// MaxAttempts bounds transmissions per delivery call (default 24).
	MaxAttempts int
	// MaxTotalAttempts caps a report's cumulative transmissions across
	// its first delivery and every in-place retry before the outcome
	// turns terminally abandoned (ErrAbandoned). Resume is exempt: it
	// grants the parked report a fresh lease, so a report abandoned
	// during a collector outage is still re-deliverable after the
	// collector recovers. Default 4×MaxAttempts.
	MaxTotalAttempts int
	// AckWait is the per-attempt ACK wait (default 2ms).
	AckWait time.Duration
	// BackoffBase seeds the capped exponential backoff (default 200µs).
	BackoffBase time.Duration
	// BackoffCap caps the backoff (default 4ms).
	BackoffCap time.Duration
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
// (node, seq) or the context expires.
//
// An agent is single-goroutine: one outstanding report at a time, by
// construction (the paper's DP-Box serves one transaction at a time
// anyway). Its ACK waits and backoff pauses run on the link's clock
// (transport.LinkConfig.Clock), so a fleet on simulated time pays
// neither in wall time.
type ReportAgent struct {
	box *dpbox.DPBox
	end *transport.Endpoint
	cfg AgentConfig
	clk simclock.Clock

	next   uint64
	jitter uint64
}

// NewReportAgent wires an agent to its DP-Box and link endpoint. The
// next sequence number resumes from the box's journal, so an agent
// built on a crash-recovered box continues the numbering instead of
// reusing (and re-noising) old sequence numbers.
func NewReportAgent(box *dpbox.DPBox, end *transport.Endpoint, cfg AgentConfig) *ReportAgent {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 24
	}
	if cfg.MaxTotalAttempts <= 0 {
		cfg.MaxTotalAttempts = 4 * cfg.MaxAttempts
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = 2 * time.Millisecond
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 200 * time.Microsecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 4 * time.Millisecond
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = uint64(cfg.ID)*0x9E3779B97F4A7C15 + 1
	}
	if cfg.Obs == nil {
		cfg.Obs = &noMetrics
	}
	a := &ReportAgent{end: end, cfg: cfg, clk: end.Clock()}
	a.Rebind(box)
	return a
}

// Rebind points the agent at box — typically the node's box after a
// crash recovery — and leaves it exactly as NewReportAgent would build
// it on the same endpoint and config: the jitter stream restarts at
// JitterSeed and the next sequence number resumes from box's journal.
// A crash therefore costs the agent no allocation.
func (a *ReportAgent) Rebind(box *dpbox.DPBox) {
	a.box = box
	a.next = box.NextSeq()
	a.jitter = a.cfg.JitterSeed
}

// NextSeq returns the sequence number the next Report will use.
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
	d := a.cfg.BackoffBase << uint(k-1)
	if d > a.cfg.BackoffCap || d <= 0 {
		d = a.cfg.BackoffCap
	}
	// Full jitter in [d/2, d].
	half := d / 2
	return half + time.Duration(a.rand()%uint64(half+1))
}

// Report noises x exactly once under the next sequence number and
// delivers it at-least-once. On error the (seq, value) binding is
// already durable; Resume (or a fresh agent on the recovered box)
// retransmits the identical value later.
func (a *ReportAgent) Report(ctx context.Context, x int64) (ReportOutcome, error) {
	seq, m := a.next, a.cfg.Obs
	// The wall clock is read for the latency histogram alone: skip it
	// when none is attached.
	var noisedAt time.Time
	if m.LatencyUs != nil {
		noisedAt = time.Now()
	}
	// The span opens before the noising transaction so the journal
	// commit inside it lands after the noised stamp.
	m.Flight.Record(int64(a.cfg.ID), seq, obs.StageNoised)
	res, err := a.box.NoiseValueSeq(seq, x)
	if err != nil {
		return ReportOutcome{Seq: seq}, fmt.Errorf("node: noising seq %d: %w", seq, err)
	}
	a.next = seq + 1
	m.Reports.Inc()
	if res.Degraded {
		m.Flight.Record(int64(a.cfg.ID), seq, obs.StageDegraded)
	}

	out := ReportOutcome{
		Seq:       seq,
		Value:     res.Value,
		Charged:   res.Charged,
		Degraded:  res.Degraded,
		FromCache: res.FromCache,
		Replayed:  res.Replayed,
	}
	// A report rides out a collector outage up to the total cap, then
	// abandons terminally (ErrAbandoned); the journaled binding keeps
	// it re-deliverable through Resume once the collector is back.
	attempts, err := a.deliver(ctx, a.packet(seq, res.Value, res.Degraded, res.FromCache), a.cfg.MaxTotalAttempts)
	out.Attempts = attempts
	if err == nil && m.LatencyUs != nil {
		// The (node, seq) span closes: noise drawn → ACK recorded.
		m.LatencyUs.Observe(time.Since(noisedAt).Microseconds())
	}
	return out, err
}

// Resume retransmits the most recent journaled release until ACKed.
// Call it after crash recovery (node or collector side), or to
// re-deliver a report Report abandoned at its total attempt cap: each
// Resume grants a fresh MaxAttempts lease, at most one report can be
// outstanding (the agent is sequential), and re-delivering an
// already-ACKed sequence number is harmless — the collector dedups by
// (node, seq), and a restarted collector's recovered dedup state
// re-ACKs it bit-exactly.
func (a *ReportAgent) Resume(ctx context.Context) error {
	if a.next == 0 {
		return nil // nothing ever released
	}
	seq := a.next - 1
	rel, ok := a.box.ReleaseFor(seq)
	if !ok {
		return fmt.Errorf("node: no journaled release for seq %d", seq)
	}
	a.cfg.Obs.Resumes.Inc()
	_, err := a.deliver(ctx, a.packet(seq, rel.Value, rel.Degraded, rel.FromCache), a.cfg.MaxAttempts)
	return err
}

func (a *ReportAgent) packet(seq uint64, value int64, degraded, fromCache bool) transport.Packet {
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
	return transport.Packet{
		Kind:  transport.KindReport,
		Node:  a.cfg.ID,
		Seq:   seq,
		Value: value,
		Flags: flags,
	}
}

// deliver retransmits pkt verbatim until an ACK for (node, seq)
// arrives, the attempt budget runs out, or the context expires.
func (a *ReportAgent) deliver(ctx context.Context, pkt transport.Packet, budget int) (int, error) {
	attempts, err := a.deliverLoop(ctx, pkt, budget)
	m := a.cfg.Obs
	if attempts > 1 {
		m.Retransmits.Add(uint64(attempts - 1))
	}
	if err != nil {
		m.Abandoned.Inc()
		m.Flight.Record(int64(a.cfg.ID), pkt.Seq, obs.StageAbandoned)
	} else {
		m.Flight.Record(int64(a.cfg.ID), pkt.Seq, obs.StageAck)
	}
	return attempts, err
}

func (a *ReportAgent) deliverLoop(ctx context.Context, pkt transport.Packet, budget int) (int, error) {
	// The per-window backoff exponent stays capped at MaxAttempts so a
	// long total budget keeps pausing at BackoffCap, not beyond.
	for attempt := 1; attempt <= budget; attempt++ {
		if err := ctx.Err(); err != nil {
			return attempt - 1, fmt.Errorf("node: delivering seq %d: %w", pkt.Seq, err)
		}
		a.cfg.Obs.Flight.Record(int64(a.cfg.ID), pkt.Seq, obs.StageTx)
		a.end.Send(pkt)
		if a.awaitAck(ctx, pkt.Seq) {
			return attempt, nil
		}
		if attempt < budget {
			pause := a.backoff(attempt)
			a.cfg.Obs.BackoffNs.Add(uint64(pause))
			if !a.sleep(ctx, pause) {
				return attempt, fmt.Errorf("node: delivering seq %d: %w", pkt.Seq, ctx.Err())
			}
			// An ACK that landed during the pause settles the report;
			// retransmitting anyway would race the collector's reply
			// to it for the link's next fate.
			if a.ackQueued(pkt.Seq) {
				return attempt, nil
			}
		}
	}
	return budget, fmt.Errorf("node: seq %d unacked after %d attempts: %w", pkt.Seq, budget, ErrAbandoned)
}

// awaitAck waits one AckWait window for an ACK of seq, absorbing
// stale ACKs (earlier sequence numbers, duplicate deliveries) without
// giving up the window.
func (a *ReportAgent) awaitAck(ctx context.Context, seq uint64) bool {
	deadline := a.clk.Now() + a.cfg.AckWait
	for {
		if a.clk.Now() >= deadline || ctx.Err() != nil {
			return false
		}
		ack, ok := a.end.RecvUntil(deadline)
		if !ok {
			return false
		}
		if a.absorb(ack, seq) {
			return true
		}
	}
}

// ackQueued drains the frames already received without waiting and
// reports whether an ACK of seq was among them.
func (a *ReportAgent) ackQueued(seq uint64) bool {
	for {
		ack, ok := a.end.TryRecv()
		if !ok {
			return false
		}
		if a.absorb(ack, seq) {
			return true
		}
	}
}

// absorb reports whether a received frame ACKs seq; stale ACKs and
// stray frames are dropped.
func (a *ReportAgent) absorb(ack transport.Packet, seq uint64) bool {
	return ack.Kind == transport.KindAck && ack.Node == a.cfg.ID && ack.Seq == seq
}

// sleep pauses for d unless the context expires first; it reports
// whether the full pause completed. The pause parks on the endpoint's
// receive waiter, the one awaitAck blocks on.
func (a *ReportAgent) sleep(ctx context.Context, d time.Duration) bool {
	return a.end.PauseUntil(a.clk.Now()+d, ctx.Done())
}
