package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"ulpdp/internal/core"
	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
)

// goldenNames pins the fleet-wide metric name schema. Renaming or
// removing an instrument is a breaking change for any dashboard or
// log pipeline scraping the JSON snapshot — update this list
// deliberately, and docs/observability.md with it.
var goldenNames = []string{
	"budget.charge_bands",
	"budget.charge_units",
	"budget.journal.commits",
	"budget.journal.intents",
	"budget.journal.recovers",
	"budget.journal.replenishes",
	"budget.odometer",
	"budget.replenishes",
	"burn.alert_active",
	"burn.alerts",
	"burn.fast_burn_milli",
	"burn.slow_burn_milli",
	"collector.accepted",
	"collector.breaker.closed",
	"collector.breaker.half_opened",
	"collector.breaker.opened",
	"collector.breaker.reopened",
	"collector.breaker_drops",
	"collector.checkpoint_bytes",
	"collector.compactions",
	"collector.duplicates",
	"collector.fail_closed",
	"collector.queue_depth",
	"collector.recover_reports_replayed",
	"collector.recover_shards",
	"collector.timeouts",
	"dpbox.cache_replays",
	"dpbox.degraded",
	"dpbox.log_evals",
	"dpbox.power_losses",
	"dpbox.resamples",
	"dpbox.resamples_per_txn",
	"dpbox.seq_replays",
	"dpbox.transactions",
	"dpbox.urng_draws",
	"flight.spans_completed",
	"flight.spans_dropped",
	"flight.spans_open",
	"flight.stage_events",
	"node.abandoned",
	"node.backoff_ns",
	"node.report_latency_us",
	"node.reports",
	"node.resumes",
	"node.retransmits",
	"nvm.banks",
	"nvm.compactions",
	"nvm.durable_words",
	"transport.corrupted",
	"transport.delivered",
	"transport.dropped",
	"transport.duplicated",
	"transport.overflow",
	"transport.rejected_corrupt",
	"transport.reordered",
	"transport.sent",
	"urng.battery_fails",
	"urng.battery_runs",
	"urng.battery_worst_z_milli",
}

// TestFleetMetricSchemaGolden runs a small fleet with the telemetry
// plane attached and pins the registered metric names and the JSON
// snapshot shape.
func TestFleetMetricSchemaGolden(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Run(Config{Nodes: 3, Reports: 3, Seed: gridSeed(t), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}

	if got := reg.Names(); !reflect.DeepEqual(got, goldenNames) {
		t.Fatalf("metric schema drifted:\n got %q\nwant %q", got, goldenNames)
	}

	if res.Obs == nil {
		t.Fatal("Result.Obs is nil with Config.Obs set")
	}
	raw, err := json.Marshal(res.Obs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("snapshot is not a JSON object: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms", "odometers"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing %q section", key)
		}
	}

	// Cross-layer sanity on the snapshot itself.
	if got := res.Obs.Counters["dpbox.transactions"]; got != 9 {
		t.Errorf("dpbox.transactions = %d, want 9", got)
	}
	if got := res.Obs.Counters["node.reports"]; got != 9 {
		t.Errorf("node.reports = %d, want 9", got)
	}
	if got := res.Obs.Counters["collector.accepted"]; got != 9 {
		t.Errorf("collector.accepted = %d, want 9", got)
	}
	odo, ok := res.Obs.Odometers["budget.odometer"]
	if !ok {
		t.Fatal("snapshot missing budget.odometer")
	}
	if len(odo.ChannelUnits) != 3 {
		t.Fatalf("odometer has %d channels, want 3", len(odo.ChannelUnits))
	}
	if odo.Charges != 9 {
		t.Errorf("odometer charges = %d, want 9", odo.Charges)
	}
	var sum int64
	for _, ch := range odo.ChannelUnits {
		if ch <= 0 {
			t.Errorf("odometer channel spend %d, want > 0", ch)
		}
		sum += ch
	}
	if sum != odo.TotalUnits {
		t.Errorf("odometer channel sum %d != total %d", sum, odo.TotalUnits)
	}
}

// TestFleetChaosOdometer runs the filthiest grid cell with crashes
// and asserts the aggregate odometer stayed inside the certified
// envelope (any breach lands in Violations) while still accounting
// every charge: Σ per-channel spend must equal Σ per-node ledger
// spend exactly, in charge units, across crash-recovery and
// retransmissions.
func TestFleetChaosOdometer(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Nodes:      4,
		Reports:    6,
		Seed:       gridSeed(t),
		CrashEvery: 2,
		Link:       fault.LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1, MaxDelay: 3},
		Obs:        reg,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}

	odo := res.Obs.Odometers["budget.odometer"]
	var ledger int64
	for _, nr := range res.Nodes {
		// SpendNats is a whole number of sixteenths: the division
		// is exact.
		ledger += int64(nr.SpendNats / core.ChargeUnit)
	}
	if odo.TotalUnits != ledger {
		t.Fatalf("odometer total %d units != ledger total %d units", odo.TotalUnits, ledger)
	}
	// 4 nodes × 6 reports × 1 nat (16 units) per-report cap.
	if certified := int64(cfg.Nodes*cfg.Reports) * PerReportCapUnits; odo.TotalUnits > certified {
		t.Fatalf("odometer total %d units exceeds certified %d units", odo.TotalUnits, certified)
	}
	// Crash replays charge nothing: exactly one charge per report.
	if want := uint64(cfg.Nodes * cfg.Reports); odo.Charges != want {
		t.Fatalf("odometer charges = %d, want %d", odo.Charges, want)
	}
	if got := res.Obs.Counters["budget.journal.recovers"]; got == 0 {
		t.Error("crashes happened but budget.journal.recovers is 0")
	}
	if got := res.Obs.Counters["node.resumes"]; res.Obs.Counters["node.abandoned"] > 0 && got == 0 {
		t.Error("reports were abandoned but node.resumes is 0")
	}
}
