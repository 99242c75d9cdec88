package fleet

import (
	"encoding/json"
	"testing"

	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
)

// chaosFlightConfig is the grid cell the flight-recorder tests run:
// node crashes, collector crashes, and a filthy link, so span chains
// cross every recovery path.
func chaosFlightConfig(seed uint64) Config {
	return Config{
		Nodes:            4,
		Reports:          6,
		Seed:             seed,
		CrashEvery:       2,
		CollectorCrashes: []int{100},
		Link:             fault.LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1, MaxDelay: 3},
	}
}

// TestFlightRecorderTransparency pins the recorder's observational
// purity: the same chaos cell with the full telemetry plane, flight
// recorder, and burn alerter attached must produce bit-identical
// journals, recorded values, and aggregate as the bare run — and
// every ACKed report must carry a complete, causally ordered span
// chain.
func TestFlightRecorderTransparency(t *testing.T) {
	seed := gridSeed(t)

	bare, err := Run(chaosFlightConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Violations) != 0 {
		t.Fatalf("bare run violations: %v", bare.Violations)
	}

	cfg := chaosFlightConfig(seed)
	cfg.Obs = obs.NewRegistry()
	cfg.Flight = obs.NewFlightRecorder(cfg.Nodes * cfg.Reports * 2)
	burn, err := obs.NewBurnAlerter(obs.BurnConfig{
		EnvelopeMicroNats: obs.MicroNats(float64(cfg.Nodes*cfg.Reports) * PerReportCapNats),
		HorizonCharges:    uint64(cfg.Nodes * cfg.Reports),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Burn = burn
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Violations) != 0 {
		t.Fatalf("traced run violations: %v", traced.Violations)
	}

	if diffs := CompareRuns(bare, traced); len(diffs) != 0 {
		t.Fatalf("flight recorder changed results:\n%v", diffs)
	}

	if traced.Flight == nil {
		t.Fatal("Result.Flight is nil with Config.Flight set")
	}
	if traced.Flight.Dropped != 0 {
		t.Fatalf("recorder dropped %d spans with capacity %d", traced.Flight.Dropped, traced.Flight.Capacity)
	}
	if got := obs.ValidateFlight(traced.Flight, true, true); len(got) != 0 {
		t.Fatalf("span-chain violations:\n%v", got)
	}
	acked := 0
	for _, v := range traced.Flight.Spans {
		if v.Acked() {
			acked++
		}
	}
	if want := cfg.Nodes * cfg.Reports; acked != want {
		t.Fatalf("acked spans = %d, want %d", acked, want)
	}
	if traced.Obs.Counters["flight.spans_completed"] != uint64(acked) {
		t.Fatalf("flight.spans_completed = %d, want %d", traced.Obs.Counters["flight.spans_completed"], acked)
	}
}

// overspendConfig wires a synthetic overspend fault: the alerter is
// configured as if the certified n·ε envelope were planned to last
// 1000× more charges than the run issues, so the fleet's real charge
// stream (≥ 1/16 nat each) burns three orders of magnitude above
// plan. It returns the config and the envelope in µnats.
func overspendConfig(t *testing.T, nodes, reports int) (Config, int64) {
	t.Helper()
	cfg := Config{Nodes: nodes, Reports: reports, Seed: gridSeed(t), Obs: obs.NewRegistry()}
	envelope := obs.MicroNats(float64(nodes*reports) * PerReportCapNats)
	burn, err := obs.NewBurnAlerter(obs.BurnConfig{
		EnvelopeMicroNats: envelope,
		HorizonCharges:    uint64(nodes*reports) * 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Burn = burn
	return cfg, envelope
}

// runClean runs cfg and fails the test on an error or a violation.
func runClean(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	return res
}

// TestFleetBurnAlertTripsBeforeEnvelope drives the synthetic
// overspend fault. The alert must latch before the cumulative spend
// reaches the envelope — the operator hears about the overspend while
// there is still budget left to save.
func TestFleetBurnAlertTripsBeforeEnvelope(t *testing.T) {
	cfg, envelope := overspendConfig(t, 4, 6)
	res := runClean(t, cfg)
	if !res.BurnAlert {
		t.Fatal("synthetic overspend did not trip BurnAlert")
	}
	if res.Burn == nil || !res.Burn.Tripped {
		t.Fatalf("Burn snapshot: %+v", res.Burn)
	}
	if res.Burn.TrippedAtMicroNats >= envelope {
		t.Fatalf("alert tripped at %d µnat — at/after the %d µnat envelope", res.Burn.TrippedAtMicroNats, envelope)
	}
	if res.Obs.Counters["burn.alerts"] == 0 {
		t.Error("burn.alerts counter is 0 despite a tripped alert")
	}
}

// TestFleetBurnAlertReachesPerfetto pins that a large fleet's alert
// survives into the Perfetto export: 64 nodes × 16 reports under the
// synthetic overspend emit thousands of telemetry facts, and the one
// latched burn.alert must still render exactly once, from the
// alerter's snapshot.
func TestFleetBurnAlertReachesPerfetto(t *testing.T) {
	cfg, _ := overspendConfig(t, 64, 16)
	cfg.Flight = obs.NewFlightRecorder(cfg.Nodes * cfg.Reports * 2)
	res := runClean(t, cfg)
	if !res.BurnAlert {
		t.Fatal("synthetic overspend did not trip BurnAlert")
	}
	data, err := obs.PerfettoJSON(res.Flight, res.Burn)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for _, e := range f.TraceEvents {
		if e.Name != "burn.alert" {
			continue
		}
		alerts++
		if got := e.Args["spent_micro_nats"]; got != float64(res.Burn.TrippedAtMicroNats) {
			t.Errorf("burn.alert spent_micro_nats = %v, want %d", got, res.Burn.TrippedAtMicroNats)
		}
	}
	if alerts != 1 {
		t.Fatalf("Perfetto export has %d burn.alert instants, want 1", alerts)
	}
}

// TestFleetBurnAlertQuietOnPlan is the alerting dual: an alerter whose
// plan matches the certified per-report cap must stay quiet on a
// healthy run (charges never exceed 1 nat each).
func TestFleetBurnAlertQuietOnPlan(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Nodes: 4, Reports: 6, Seed: gridSeed(t), Obs: reg}
	burn, err := obs.NewBurnAlerter(obs.BurnConfig{
		EnvelopeMicroNats: obs.MicroNats(float64(cfg.Nodes*cfg.Reports) * PerReportCapNats),
		HorizonCharges:    uint64(cfg.Nodes * cfg.Reports),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Burn = burn
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BurnAlert {
		t.Fatalf("healthy run tripped the burn alert: %+v", res.Burn)
	}
}

// TestFleetPerfettoGolden pins the exported trace shape: valid JSON,
// monotone timestamps per track, and a complete span chain for every
// ACKed report, across node and collector crashes.
func TestFleetPerfettoGolden(t *testing.T) {
	cfg := chaosFlightConfig(gridSeed(t))
	cfg.Obs = obs.NewRegistry()
	cfg.Flight = obs.NewFlightRecorder(cfg.Nodes * cfg.Reports * 2)
	res := runClean(t, cfg)

	data, err := obs.PerfettoJSON(res.Flight, res.Burn)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("exported trace is not valid JSON")
	}
	if got := obs.ValidatePerfettoJSON(data); len(got) != 0 {
		t.Fatalf("trace shape violations:\n%v", got)
	}
	if got := obs.ValidateFlight(res.Flight, true, true); len(got) != 0 {
		t.Fatalf("span-chain violations:\n%v", got)
	}

	// The attribution report must cover every ACKed span end to end.
	rows := obs.Attribute(res.Flight)
	var total uint64
	for _, r := range rows {
		if r.Transition == "noised→ack (total)" {
			total += r.Count
		}
	}
	if want := uint64(cfg.Nodes * cfg.Reports); total != want {
		t.Fatalf("attribution covers %d spans, want %d", total, want)
	}
}
