package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Stage is one step in a report's causal life. The chain stages
// (Noised … Ack) happen in order for a healthy report; the terminal
// stages mark the exceptional exits. Stage values index the per-span
// stamp and hit arrays, so adding a stage is a schema change (see
// DESIGN.md §13).
type Stage uint8

const (
	// StageNoised: the report entered the DP-Box noising transaction.
	StageNoised Stage = iota
	// StageJournal: the budget journal committed the (seq, value)
	// release record — the charge is durable from here on.
	StageJournal
	// StageTx: one link transmission attempt (hits count attempts).
	StageTx
	// StageLinkRx: a copy of the report frame landed in the collector
	// end's receive ring (hits count duplicate landings).
	StageLinkRx
	// StageAdmit: a collector shard passed breaker + dedup and decided
	// to admit the report.
	StageAdmit
	// StageCheckpoint: the shard's durable admission record committed
	// (only stamped on journaled collectors).
	StageCheckpoint
	// StageAck: the node saw the collector's ACK — the span is
	// complete.
	StageAck
	// StageDegraded: the resample watchdog tripped and the report was
	// released via the certified degraded clamp.
	StageDegraded
	// StageReplayed: noising was answered from the journaled release
	// (post-crash replay) at zero charge.
	StageReplayed
	// StageAbandoned: delivery gave up (attempts exhausted or context
	// expired); a later Resume may still complete the span.
	StageAbandoned

	// NumStages sizes the per-span stage arrays.
	NumStages
)

// String names a stage as it appears in trace exports.
func (s Stage) String() string {
	switch s {
	case StageNoised:
		return "noised"
	case StageJournal:
		return "journal-commit"
	case StageTx:
		return "tx-attempt"
	case StageLinkRx:
		return "link-rx"
	case StageAdmit:
		return "shard-admit"
	case StageCheckpoint:
		return "checkpoint-commit"
	case StageAck:
		return "ack"
	case StageDegraded:
		return "degraded"
	case StageReplayed:
		return "replayed"
	case StageAbandoned:
		return "abandoned"
	}
	return "unknown"
}

// chainStages is the happy-path causal order; exporters and the
// completeness validator walk it.
var chainStages = [...]Stage{StageNoised, StageJournal, StageTx, StageLinkRx, StageAdmit, StageCheckpoint, StageAck}

// flightSlot is one span's storage: an atomically claimed key plus
// per-stage first-occurrence stamps and hit counts. The arrays are
// fixed at NumStages, so a slot never allocates after the table is
// built.
type flightSlot struct {
	key   atomic.Uint64 // packed (node, seq) + 1; 0 = free
	stamp [NumStages]atomic.Int64
	hits  [NumStages]atomic.Uint32
}

// maxProbe bounds the linear-probe walk; past it the record is counted
// as dropped rather than degrading every Record into a table scan.
const maxProbe = 64

// FlightRecorder is the per-report flight recorder: a lock-free,
// fixed-capacity open-addressed table of spans keyed by (node, seq).
// Record is wait-free apart from one bounded CAS loop, performs no
// allocation, and is a no-op on a nil receiver like every instrument,
// so layers call it unconditionally and a detached recorder costs one
// nil compare.
//
// Capacity is fixed at construction: when the table is full (or a
// probe chain exceeds maxProbe), further spans are counted in Dropped
// instead of silently evicting history — the operator sees the
// truncation.
type FlightRecorder struct {
	slots   []flightSlot
	mask    uint64
	epoch   time.Time
	dropped atomic.Uint64
	metrics atomic.Pointer[FlightMetrics]
}

// NewFlightRecorder builds a recorder with capacity for at least n
// spans (rounded up to a power of two, minimum 256).
func NewFlightRecorder(n int) *FlightRecorder {
	capacity := 256
	for capacity < n {
		capacity <<= 1
	}
	fr := &FlightRecorder{
		slots: make([]flightSlot, capacity),
		mask:  uint64(capacity - 1),
		epoch: time.Now(),
	}
	fr.metrics.Store(&noFlightMetrics)
	return fr
}

// noFlightMetrics is the detached mirror: all instruments nil.
var noFlightMetrics FlightMetrics

// SetMetrics mirrors the recorder's internal tallies onto registry
// instruments (span opens/completions/drops and stage events); nil
// detaches them.
func (fr *FlightRecorder) SetMetrics(m *FlightMetrics) {
	if fr == nil {
		return
	}
	if m == nil {
		m = &noFlightMetrics
	}
	fr.metrics.Store(m)
}

// Capacity returns the span table size.
func (fr *FlightRecorder) Capacity() int {
	if fr == nil {
		return 0
	}
	return len(fr.slots)
}

// packSpanKey packs (node, seq) into a non-zero table key. Sequence
// numbers are bounded far below 2^48 in practice; node ids are the
// transport's 16-bit address space.
func packSpanKey(node int64, seq uint64) uint64 {
	return (uint64(uint16(node))<<48 | (seq & (1<<48 - 1))) + 1
}

func unpackSpanKey(key uint64) (node uint16, seq uint64) {
	k := key - 1
	return uint16(k >> 48), k & (1<<48 - 1)
}

// hashSpanKey is splitmix64's finalizer — enough to spread sequential
// (node, seq) keys across the table.
func hashSpanKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Record stamps a stage on the (node, seq) span, claiming a slot on
// first sight. The first occurrence of a stage fixes its timestamp;
// repeats only bump the stage's hit count (so retransmissions and
// duplicate landings are counted without disturbing latency
// attribution). Nil receivers and out-of-range stages are no-ops.
func (fr *FlightRecorder) Record(node int64, seq uint64, st Stage) {
	// The nil check inlines at every hook site; the stamp does not.
	if fr != nil && st < NumStages {
		fr.record(node, seq, st)
	}
}

func (fr *FlightRecorder) record(node int64, seq uint64, st Stage) {
	m := fr.metrics.Load()
	key := packSpanKey(node, seq)
	h := hashSpanKey(key)
	probes := maxProbe
	if probes > len(fr.slots) {
		probes = len(fr.slots)
	}
	for i := 0; i < probes; i++ {
		s := &fr.slots[(h+uint64(i))&fr.mask]
		k := s.key.Load()
		if k == 0 {
			if s.key.CompareAndSwap(0, key) {
				k = key
				m.SpansOpen.Add(1)
			} else {
				k = s.key.Load()
			}
		}
		if k != key {
			continue
		}
		// +1 keeps a stamp taken exactly at the epoch distinguishable
		// from "never stamped".
		now := time.Since(fr.epoch).Nanoseconds() + 1
		s.stamp[st].CompareAndSwap(0, now)
		first := s.hits[st].Add(1) == 1
		m.StageEvents.Inc()
		if st == StageAck && first {
			m.SpansCompleted.Inc()
			m.SpansOpen.Add(-1)
		}
		return
	}
	fr.dropped.Add(1)
	m.SpansDropped.Inc()
}

// Dropped returns the number of Record calls that found no slot.
func (fr *FlightRecorder) Dropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.dropped.Load()
}

// SpanView is one span's frozen state.
type SpanView struct {
	// Node and Seq identify the report.
	Node uint16 `json:"node"`
	Seq  uint64 `json:"seq"`
	// StampNs holds each stage's first-occurrence time in nanoseconds
	// since the recorder epoch (0 = never reached), indexed by Stage.
	StampNs [NumStages]int64 `json:"stamp_ns"`
	// Hits counts each stage's occurrences (tx attempts, duplicate
	// link landings), indexed by Stage.
	Hits [NumStages]uint32 `json:"hits"`
}

// Acked reports whether the span completed (the node saw an ACK).
func (v SpanView) Acked() bool { return v.StampNs[StageAck] != 0 }

// Retransmits returns the extra transmissions beyond the first.
func (v SpanView) Retransmits() int {
	if h := v.Hits[StageTx]; h > 1 {
		return int(h - 1)
	}
	return 0
}

// FlightSnapshot is the recorder's frozen state: every claimed span
// sorted by (node, seq), plus the drop tally.
type FlightSnapshot struct {
	Spans    []SpanView `json:"spans"`
	Dropped  uint64     `json:"dropped"`
	Capacity int        `json:"capacity"`
}

// Snapshot freezes the recorder. Concurrent Record calls may land
// half-in: a stage stamped during the copy can appear with its hit
// count but not its stamp or vice versa — callers snapshot after
// quiescing for exact chains.
func (fr *FlightRecorder) Snapshot() *FlightSnapshot {
	if fr == nil {
		return nil
	}
	s := &FlightSnapshot{Dropped: fr.dropped.Load(), Capacity: len(fr.slots)}
	for i := range fr.slots {
		sl := &fr.slots[i]
		key := sl.key.Load()
		if key == 0 {
			continue
		}
		var v SpanView
		v.Node, v.Seq = unpackSpanKey(key)
		for st := Stage(0); st < NumStages; st++ {
			v.StampNs[st] = sl.stamp[st].Load()
			v.Hits[st] = sl.hits[st].Load()
		}
		s.Spans = append(s.Spans, v)
	}
	sort.Slice(s.Spans, func(i, j int) bool {
		if s.Spans[i].Node != s.Spans[j].Node {
			return s.Spans[i].Node < s.Spans[j].Node
		}
		return s.Spans[i].Seq < s.Spans[j].Seq
	})
	return s
}

// FlightMetrics mirrors the recorder's tallies onto the registry so
// span health is visible in the ordinary metrics snapshot.
type FlightMetrics struct {
	SpansOpen      *Gauge   // spans claimed but not yet ACKed
	SpansCompleted *Counter // spans that reached ACK
	SpansDropped   *Counter // Record calls that found no slot
	StageEvents    *Counter // total stage records
}

// NewFlightMetrics registers (or re-binds) the flight-recorder metric
// schema.
func NewFlightMetrics(r *Registry) *FlightMetrics {
	return &FlightMetrics{
		SpansOpen:      r.Gauge("flight.spans_open"),
		SpansCompleted: r.Counter("flight.spans_completed"),
		SpansDropped:   r.Counter("flight.spans_dropped"),
		StageEvents:    r.Counter("flight.stage_events"),
	}
}

// ValidateFlight checks span-chain completeness and causal order:
// every ACKed span must have stamped the full chain — noised, journal
// commit (when journaled), tx, link rx, shard admit, checkpoint commit
// (when durable), ack — with non-decreasing timestamps. It returns one
// message per violation (empty = clean).
func ValidateFlight(s *FlightSnapshot, journaled, durable bool) []string {
	if s == nil {
		return []string{"flight: nil snapshot"}
	}
	var violations []string
	required := []Stage{StageNoised, StageTx, StageLinkRx, StageAdmit, StageAck}
	if journaled {
		required = append(required, StageJournal)
	}
	if durable {
		required = append(required, StageCheckpoint)
	}
	for _, v := range s.Spans {
		if !v.Acked() {
			continue
		}
		for _, st := range required {
			if v.StampNs[st] == 0 {
				violations = append(violations,
					"flight: node "+itoa(int64(v.Node))+" seq "+itoa(int64(v.Seq))+" acked without "+st.String())
			}
		}
		last := int64(0)
		for _, st := range chainStages {
			ts := v.StampNs[st]
			if ts == 0 {
				continue
			}
			if ts < last {
				violations = append(violations,
					"flight: node "+itoa(int64(v.Node))+" seq "+itoa(int64(v.Seq))+" stage "+st.String()+" out of causal order")
			}
			last = ts
		}
	}
	return violations
}

// itoa is a tiny strconv.FormatInt(…, 10) stand-in that keeps the
// validator free of fmt in hot test loops.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
