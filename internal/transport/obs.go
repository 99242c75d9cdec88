package transport

import "ulpdp/internal/obs"

// Metrics is the link layer's slice of the telemetry plane. One
// Metrics is typically shared by every link of a fleet (the counters
// are atomic and names are registry-global), aggregating the radio
// picture across nodes; per-link numbers remain available via
// Link.Stats.
type Metrics struct {
	Sent            *obs.Counter
	Delivered       *obs.Counter
	Dropped         *obs.Counter
	Duplicated      *obs.Counter
	Reordered       *obs.Counter
	Corrupted       *obs.Counter
	Overflow        *obs.Counter
	RejectedCorrupt *obs.Counter

	// Flight, when non-nil, receives a link-rx span stamp for every
	// report frame copy that lands in a receive ring. Wired by the
	// fleet; a nil recorder ignores the stamps.
	Flight *obs.FlightRecorder
}

// noMetrics is the detached plane a link built without Obs holds:
// every instrument is nil, so every hook is a no-op.
var noMetrics Metrics

// NewMetrics registers (or re-binds) the transport metric schema.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Sent:            r.Counter("transport.sent"),
		Delivered:       r.Counter("transport.delivered"),
		Dropped:         r.Counter("transport.dropped"),
		Duplicated:      r.Counter("transport.duplicated"),
		Reordered:       r.Counter("transport.reordered"),
		Corrupted:       r.Counter("transport.corrupted"),
		Overflow:        r.Counter("transport.overflow"),
		RejectedCorrupt: r.Counter("transport.rejected_corrupt"),
	}
}
