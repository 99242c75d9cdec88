package obs

import (
	"encoding/json"
	"testing"
)

// recordChain stamps a full healthy chain for (node, seq).
func recordChain(fr *FlightRecorder, node int64, seq uint64, retransmits int) {
	fr.Record(node, seq, StageNoised)
	fr.Record(node, seq, StageJournal)
	for i := 0; i <= retransmits; i++ {
		fr.Record(node, seq, StageTx)
	}
	fr.Record(node, seq, StageLinkRx)
	fr.Record(node, seq, StageAdmit)
	fr.Record(node, seq, StageCheckpoint)
	fr.Record(node, seq, StageAck)
}

func TestPerfettoJSONShape(t *testing.T) {
	fr := NewFlightRecorder(64)
	for n := int64(0); n < 3; n++ {
		for s := uint64(0); s < 4; s++ {
			recordChain(fr, n, s, int(n))
		}
	}
	burn := &BurnSnapshot{Tripped: true, Alerts: 1, TrippedAtUnits: 123, FastBurnMilli: 5000, SlowBurnMilli: 2500}
	data, err := PerfettoJSON(fr.Snapshot(), burn)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("exporter emitted invalid JSON")
	}
	if got := ValidatePerfettoJSON(data); len(got) != 0 {
		t.Fatalf("shape violations: %v", got)
	}

	var f perfettoFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	// One thread-name metadata event per node, one ack instant per
	// span, one burn-alert instant.
	meta, acks, burns := 0, 0, 0
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "M":
			meta++
		case e.Name == "ack":
			acks++
		case e.Name == "burn.alert":
			burns++
		}
	}
	if meta != 3 {
		t.Errorf("metadata events = %d, want 3", meta)
	}
	if acks != 12 {
		t.Errorf("ack instants = %d, want 12", acks)
	}
	if burns != 1 {
		t.Errorf("burn instants = %d, want 1", burns)
	}

	// An untripped alerter adds nothing.
	burn.Tripped = false
	if data, err = PerfettoJSON(fr.Snapshot(), burn); err != nil {
		t.Fatal(err)
	}
	if got := burnAlerts(t, data); len(got) != 0 {
		t.Errorf("untripped alerter exported %d burn.alert instants", len(got))
	}
}

// burnAlerts returns the burn.alert instants of an exported trace.
func burnAlerts(t *testing.T, data []byte) []perfettoEvent {
	t.Helper()
	var f perfettoFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var out []perfettoEvent
	for _, e := range f.TraceEvents {
		if e.Name == "burn.alert" {
			out = append(out, e)
		}
	}
	return out
}

func TestValidatePerfettoJSONCatchesDisorder(t *testing.T) {
	bad := []byte(`{"traceEvents":[
		{"name":"a","ph":"X","ts":10,"pid":1,"tid":1},
		{"name":"b","ph":"X","ts":5,"pid":1,"tid":1}
	]}`)
	if got := ValidatePerfettoJSON(bad); len(got) == 0 {
		t.Fatal("validator missed out-of-order timestamps")
	}
	if got := ValidatePerfettoJSON([]byte("not json")); len(got) == 0 {
		t.Fatal("validator accepted garbage")
	}
}

func TestAttributeReport(t *testing.T) {
	fr := NewFlightRecorder(64)
	recordChain(fr, 0, 0, 0)
	recordChain(fr, 0, 1, 0)
	recordChain(fr, 1, 0, 1)
	recordChain(fr, 1, 1, 3)
	// An unacked span must not contribute.
	fr.Record(2, 0, StageNoised)
	fr.Record(2, 0, StageTx)

	rows := Attribute(fr.Snapshot())
	if len(rows) == 0 {
		t.Fatal("no attribution rows")
	}
	strata := map[string]uint64{}
	totalRows := 0
	for _, r := range rows {
		if r.Count == 0 {
			t.Errorf("row %+v has zero count", r)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Errorf("row %+v quantiles not monotone", r)
		}
		if r.Transition == "noised→ack (total)" {
			strata[r.Stratum] += r.Count
			totalRows++
		}
	}
	// 2 spans with 0 retransmits, 1 with 1, 1 with 2+.
	if strata["0"] != 2 || strata["1"] != 1 || strata["2+"] != 1 {
		t.Fatalf("stratum totals = %v, want 0:2 1:1 2+:1", strata)
	}
	if totalRows != 3 {
		t.Fatalf("total rows = %d, want 3 strata", totalRows)
	}
}
