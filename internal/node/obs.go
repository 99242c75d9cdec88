package node

import "ulpdp/internal/obs"

// Metrics is the node agent's slice of the telemetry plane, shared by
// every agent of a fleet (flight spans carry the node id).
type Metrics struct {
	Reports     *obs.Counter   // reports entered (noised or replayed)
	Resumes     *obs.Counter   // post-crash Resume deliveries
	Retransmits *obs.Counter   // extra transmissions beyond the first
	Abandoned   *obs.Counter   // deliveries that gave up
	BackoffNs   *obs.Counter   // total backoff slept, nanoseconds
	LatencyUs   *obs.Histogram // noise → ACK end-to-end span, µs

	// Flight, when non-nil, receives per-report span stamps (noised,
	// tx attempts, ack, degraded, abandoned) keyed by (node, seq).
	// Wired by the fleet; a nil recorder ignores the stamps.
	Flight *obs.FlightRecorder
}

// noMetrics is the detached plane an agent built without Obs holds:
// every instrument is nil, so every hook is a no-op.
var noMetrics Metrics

// NewMetrics registers (or re-binds) the node agent metric schema.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Reports:     r.Counter("node.reports"),
		Resumes:     r.Counter("node.resumes"),
		Retransmits: r.Counter("node.retransmits"),
		Abandoned:   r.Counter("node.abandoned"),
		BackoffNs:   r.Counter("node.backoff_ns"),
		LatencyUs:   r.Histogram("node.report_latency_us", []int64{50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000}),
	}
}
