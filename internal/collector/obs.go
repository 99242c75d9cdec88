package collector

import "ulpdp/internal/obs"

// Metrics is the collector's slice of the telemetry plane. The
// transition counters make the breaker's full lifecycle observable:
// Opened counts closed→open trips, HalfOpened open→half-open
// cooldown expiries, Closed half-open→closed recoveries, and
// Reopened half-open→open failed probes.
//
// QueueDepth is sampled once per drain (the reports it pulled off its
// one link) rather than written on every enqueue and dequeue. A sender
// drains its own report, so it reads 1 on a lossless link; it is
// larger only for duplicates and flushed reorder holdbacks. The
// collector has no ingest queue to overflow: a sender into a busy
// shard waits on its lock, and frames beyond a link's ring overflow
// there as loss.
type Metrics struct {
	Accepted     *obs.Counter
	Duplicates   *obs.Counter
	BreakerDrops *obs.Counter
	Timeouts     *obs.Counter

	Opened     *obs.Counter
	HalfOpened *obs.Counter
	Closed     *obs.Counter
	Reopened   *obs.Counter

	// Crash-consistency plane: CheckpointBytes counts durable bytes
	// written to the shard checkpoint journals (admissions and
	// snapshots), Compactions counts snapshot rewrites, FailClosed
	// counts reports dropped unACKed on a dead journal, and the
	// Recover pair counts shards rebuilt and WAL-tail admissions
	// replayed at Collector.Recover.
	CheckpointBytes *obs.Counter
	Compactions     *obs.Counter
	FailClosed      *obs.Counter
	RecoverShards   *obs.Counter
	RecoverReplayed *obs.Counter

	QueueDepth *obs.Gauge

	// Flight, when non-nil, receives shard-admit and checkpoint-commit
	// span stamps keyed by (node, seq). Wired by the fleet; a nil
	// recorder ignores the stamps.
	Flight *obs.FlightRecorder
}

// noMetrics is the detached plane a collector built without Obs
// holds: every instrument is nil, so every hook is a no-op.
var noMetrics Metrics

// NewMetrics registers (or re-binds) the collector metric schema.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Accepted:     r.Counter("collector.accepted"),
		Duplicates:   r.Counter("collector.duplicates"),
		BreakerDrops: r.Counter("collector.breaker_drops"),
		Timeouts:     r.Counter("collector.timeouts"),

		Opened:     r.Counter("collector.breaker.opened"),
		HalfOpened: r.Counter("collector.breaker.half_opened"),
		Closed:     r.Counter("collector.breaker.closed"),
		Reopened:   r.Counter("collector.breaker.reopened"),

		CheckpointBytes: r.Counter("collector.checkpoint_bytes"),
		Compactions:     r.Counter("collector.compactions"),
		FailClosed:      r.Counter("collector.fail_closed"),
		RecoverShards:   r.Counter("collector.recover_shards"),
		RecoverReplayed: r.Counter("collector.recover_reports_replayed"),

		QueueDepth: r.Gauge("collector.queue_depth"),
	}
}

// transition records one breaker state change on the plane.
func (m *Metrics) transition(from, to BreakerState) {
	switch {
	case from == BreakerClosed && to == BreakerOpen:
		m.Opened.Inc()
	case from == BreakerOpen && to == BreakerHalfOpen:
		m.HalfOpened.Inc()
	case from == BreakerHalfOpen && to == BreakerClosed:
		m.Closed.Inc()
	case from == BreakerHalfOpen && to == BreakerOpen:
		m.Reopened.Inc()
	}
}
