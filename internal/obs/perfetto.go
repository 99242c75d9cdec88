package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
)

// perfettoEvent is one Chrome trace-event (the JSON array format that
// chrome://tracing and ui.perfetto.dev both load). Timestamps and
// durations are microseconds.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level trace-event JSON object.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// perfettoPid groups every span track under one "fleet" process row.
const perfettoPid = 1

// PerfettoJSON renders a flight snapshot as Chrome/Perfetto
// trace-event JSON: one thread track per node, a complete ("X") slice
// per traversed chain stage (noised → journal → tx → link rx → admit
// → checkpoint, each lasting until the next stamped stage), an instant
// for the ACK, and instants for the terminal degraded / replayed /
// abandoned stages. A tripped burn alerter's latched snapshot adds one
// global "burn.alert" instant (burn may be nil). Events are ordered by
// (track, ts) so per-track timestamps are monotone by construction.
func PerfettoJSON(fs *FlightSnapshot, burn *BurnSnapshot) ([]byte, error) {
	if fs == nil {
		return nil, fmt.Errorf("obs: nil flight snapshot")
	}
	var events []perfettoEvent
	seenNode := make(map[uint16]bool)
	for _, v := range fs.Spans {
		if !seenNode[v.Node] {
			seenNode[v.Node] = true
			events = append(events, perfettoEvent{
				Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: int64(v.Node),
				Args: map[string]any{"name": fmt.Sprintf("node %d", v.Node)},
			})
		}
		// Slices between consecutive stamped chain stages.
		stamped := make([]Stage, 0, len(chainStages))
		for _, st := range chainStages {
			if v.StampNs[st] != 0 {
				stamped = append(stamped, st)
			}
		}
		for i, st := range stamped {
			ts := float64(v.StampNs[st]) / 1e3
			if st == StageAck {
				events = append(events, perfettoEvent{
					Name: "ack", Cat: "report", Ph: "i", Ts: ts,
					Pid: perfettoPid, Tid: int64(v.Node), S: "t",
					Args: map[string]any{"seq": v.Seq},
				})
				continue
			}
			var dur float64
			if i+1 < len(stamped) {
				dur = float64(v.StampNs[stamped[i+1]])/1e3 - ts
			}
			ev := perfettoEvent{
				Name: st.String(), Cat: "report", Ph: "X", Ts: ts, Dur: dur,
				Pid: perfettoPid, Tid: int64(v.Node),
				Args: map[string]any{"seq": v.Seq, "hits": v.Hits[st]},
			}
			if st == StageNoised {
				ev.Args["tx_attempts"] = v.Hits[StageTx]
				ev.Args["retransmits"] = v.Retransmits()
			}
			events = append(events, ev)
		}
		for _, st := range []Stage{StageDegraded, StageReplayed, StageAbandoned} {
			if ts := v.StampNs[st]; ts != 0 {
				events = append(events, perfettoEvent{
					Name: st.String(), Cat: "report", Ph: "i", Ts: float64(ts) / 1e3,
					Pid: perfettoPid, Tid: int64(v.Node), S: "t",
					Args: map[string]any{"seq": v.Seq, "hits": v.Hits[st]},
				})
			}
		}
	}
	if burn != nil && burn.Tripped {
		events = append(events, perfettoEvent{
			// The alerter counts charges, not time: the latched trip
			// sits at the track origin (ts 0).
			Name: "burn.alert", Cat: "privacy", Ph: "i",
			Pid: perfettoPid, Tid: -1, S: "g",
			Args: map[string]any{
				"spent_units":     burn.TrippedAtUnits,
				"fast_burn_milli": burn.FastBurnMilli,
				"slow_burn_milli": burn.SlowBurnMilli,
			},
		})
	}
	// Metadata first, then (track, ts): per-track monotonicity is the
	// shape the golden test pins.
	sort.SliceStable(events, func(i, j int) bool {
		if mi, mj := events[i].Ph == "M", events[j].Ph == "M"; mi != mj {
			return mi
		}
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	return json.MarshalIndent(perfettoFile{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
}

// ValidatePerfettoJSON structurally checks exported trace JSON: it
// must parse, and within each (pid, tid) track the non-metadata events
// must carry non-negative monotone timestamps and durations. Returns
// one message per violation.
func ValidatePerfettoJSON(data []byte) []string {
	var f perfettoFile
	if err := json.Unmarshal(data, &f); err != nil {
		return []string{"perfetto: invalid JSON: " + err.Error()}
	}
	var violations []string
	lastTs := make(map[[2]int64]float64)
	for i, e := range f.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		track := [2]int64{int64(e.Pid), e.Tid}
		if e.Ts < 0 || e.Dur < 0 {
			violations = append(violations, fmt.Sprintf("perfetto: event %d (%s) has negative ts/dur", i, e.Name))
		}
		if last, ok := lastTs[track]; ok && e.Ts < last {
			violations = append(violations, fmt.Sprintf("perfetto: event %d (%s) ts %.3f < previous %.3f on track %v", i, e.Name, e.Ts, last, track))
		}
		lastTs[track] = e.Ts
	}
	return violations
}

// AttributionRow is one line of the per-stage latency report: the
// latency distribution of a single stage transition, restricted to
// spans in one retransmit stratum.
type AttributionRow struct {
	// Transition names the stage pair, e.g. "tx-attempt→link-rx".
	Transition string `json:"transition"`
	// Stratum is the span's retransmit count bucket: "0", "1" or "2+".
	Stratum string `json:"stratum"`
	// Count is the number of spans contributing.
	Count uint64 `json:"count"`
	// P50/P95/P99 are interpolated latency quantiles in microseconds.
	P50 float64 `json:"p50_us"`
	P95 float64 `json:"p95_us"`
	P99 float64 `json:"p99_us"`
}

// attributionBounds buckets stage latencies (µs) for quantile
// estimation; wide enough for multi-second retry tails.
var attributionBounds = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000, 10_000_000}

// Attribute builds the per-stage latency attribution report from a
// flight snapshot: for every consecutive stamped chain-stage pair of
// every ACKed span, the transition latency lands in a histogram keyed
// by (transition, retransmit stratum); rows carry interpolated
// p50/p95/p99. Rows are sorted by chain position, then stratum.
func Attribute(fs *FlightSnapshot) []AttributionRow {
	if fs == nil {
		return nil
	}
	type key struct {
		order   int
		name    string
		stratum string
	}
	hists := make(map[key]*Histogram)
	for _, v := range fs.Spans {
		if !v.Acked() {
			continue
		}
		stratum := "0"
		switch r := v.Retransmits(); {
		case r == 1:
			stratum = "1"
		case r >= 2:
			stratum = "2+"
		}
		prev, prevIdx := Stage(0), -1
		for idx, st := range chainStages {
			if v.StampNs[st] == 0 {
				continue
			}
			if prevIdx >= 0 {
				k := key{order: idx, name: prev.String() + "→" + st.String(), stratum: stratum}
				h := hists[k]
				if h == nil {
					h = &Histogram{bounds: attributionBounds, counts: make([]atomic.Uint64, len(attributionBounds)+1)}
					hists[k] = h
				}
				h.Observe((v.StampNs[st] - v.StampNs[prev]) / 1_000)
			}
			prev, prevIdx = st, idx
		}
		// End-to-end row, ordered after every per-stage transition.
		k := key{order: len(chainStages), name: "noised→ack (total)", stratum: stratum}
		h := hists[k]
		if h == nil {
			h = &Histogram{bounds: attributionBounds, counts: make([]atomic.Uint64, len(attributionBounds)+1)}
			hists[k] = h
		}
		h.Observe((v.StampNs[StageAck] - v.StampNs[StageNoised]) / 1_000)
	}
	keys := make([]key, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].order != keys[j].order {
			return keys[i].order < keys[j].order
		}
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].stratum < keys[j].stratum
	})
	rows := make([]AttributionRow, 0, len(keys))
	for _, k := range keys {
		s := hists[k].snapshot()
		rows = append(rows, AttributionRow{
			Transition: k.name,
			Stratum:    k.stratum,
			Count:      s.Count,
			P50:        s.Quantile(0.50),
			P95:        s.Quantile(0.95),
			P99:        s.Quantile(0.99),
		})
	}
	return rows
}
