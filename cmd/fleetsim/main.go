// Command fleetsim runs the fleet chaos harness from the command
// line: N journaled DP-Box nodes report through seeded lossy links to
// one collector, optionally crash-recovering on a schedule, and the
// run is checked against the two fleet invariants — exactly-once
// noising accounting, and bit-exact convergence to the lossless
// same-seed baseline. Any violation exits non-zero, so CI can sweep
// seeds.
//
// Usage:
//
//	fleetsim [-quick] [-nodes N] [-reports N] [-seed N]
//	         [-drop P] [-dup P] [-reorder P] [-corrupt P] [-maxdelay N]
//	         [-crash-every N] [-collectorcrash W1,W2,...] [-durable]
//	         [-nvmdir DIR] [-workers N] [-shards N] [-deadline D]
//	         [-metrics] [-debug ADDR] [-v]
//
// -durable runs the collector on a durable checkpoint store, and
// -collectorcrash (which implies -durable) kills the store's power at
// each listed cumulative checkpoint word-write count: the harness then
// recovers the collector from its shard checkpoints mid-run, and the
// invariants must hold across the restarts.
//
// -nvmdir backs the chaos run's durable state — the collector's
// checkpoint store and every node's budget journal — with file-based
// NVM under DIR (implies -durable for the chaos run). Killing the
// process mid-run and rerunning with the same DIR recovers every
// ledger and resumes delivery with exactly-once accounting over the
// union of both processes' reports; a resumed run skips the lossless
// baseline comparison, since it covers only the residual reports.
//
// -quick is the CI smoke preset: a small fleet under a filthy link
// with node crash-recovery every second report and one mid-run
// collector crash. It only fills in flags the command line left at
// their defaults, so it composes with explicit overrides — `fleetsim
// -quick -nodes 10000` is the scale smoke: the quick chaos profile
// over ten thousand nodes.
//
// -metrics attaches the telemetry plane to the chaos run — the
// privacy odometer is then asserted live against the certified n·ε
// envelope — and prints the final JSON snapshot to stdout. -debug
// additionally serves the registry on /debug/vars, a Prometheus
// text-exposition endpoint on /metrics, and net/http/pprof at ADDR,
// and keeps the process alive after the run for inspection.
//
// -tracefile PATH (implies -metrics) attaches the per-report flight
// recorder and the privacy burn-rate alerter, writes the chaos run's
// spans as Chrome/Perfetto trace-event JSON to PATH (load it at
// ui.perfetto.dev or chrome://tracing), self-checks the export —
// every ACKed report must carry a complete, causally ordered span
// chain and the JSON must be shape-valid — and prints a per-stage
// latency attribution table (p50/p95/p99, stratified by retransmit
// count). A tripped burn alert or a failed self-check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"ulpdp/internal/core"
	"ulpdp/internal/fault"
	"ulpdp/internal/fleet"
	"ulpdp/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "CI smoke preset (small fleet, filthy link, crashes)")
	nodes := flag.Int("nodes", 8, "fleet size")
	reports := flag.Int("reports", 8, "reports per node")
	seed := flag.Uint64("seed", 1, "master seed (URNG streams, link schedules, jitter)")
	drop := flag.Float64("drop", 0.25, "per-frame drop probability")
	dup := flag.Float64("dup", 0.15, "per-frame duplication probability")
	reorder := flag.Float64("reorder", 0.15, "per-frame reorder probability")
	corrupt := flag.Float64("corrupt", 0.05, "per-frame corruption probability")
	maxDelay := flag.Int("maxdelay", 3, "max reorder holdback in frames")
	crashEvery := flag.Int("crash-every", 0, "crash-recover each node after every k-th report (0 = never)")
	durable := flag.Bool("durable", false, "run the collector on a durable checkpoint store")
	nvmdir := flag.String("nvmdir", "", "back the chaos run's durable state with file-based NVM under this directory (implies -durable); rerunning resumes a killed run")
	collectorCrash := flag.String("collectorcrash", "", "comma-separated checkpoint word-write counts at which the collector crashes and recovers (implies -durable)")
	workers := flag.Int("workers", 0, "node worker-pool size (0 = 8x GOMAXPROCS)")
	shards := flag.Int("shards", 0, "collector ingest shards (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "wall-clock ceiling for each fleet run (0 = library default)")
	metrics := flag.Bool("metrics", false, "attach the telemetry plane to the chaos run and print its JSON snapshot")
	traceFile := flag.String("tracefile", "", "write the chaos run's flight-recorder spans as Perfetto trace-event JSON to this path; implies -metrics")
	debugAddr := flag.String("debug", "", "serve /debug/vars (expvar), /metrics (Prometheus), and /debug/pprof at this address; implies -metrics and blocks after the run")
	verbose := flag.Bool("v", false, "print per-node detail")
	flag.Parse()

	if *quick {
		// The preset only fills in flags the user didn't set, so
		// explicit overrides (e.g. -nodes 10000) survive it.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		preset := func(name string, p *int, v int) {
			if !set[name] {
				*p = v
			}
		}
		presetF := func(name string, p *float64, v float64) {
			if !set[name] {
				*p = v
			}
		}
		preset("nodes", nodes, 4)
		preset("reports", reports, 4)
		preset("crash-every", crashEvery, 2)
		preset("maxdelay", maxDelay, 3)
		presetF("drop", drop, 0.3)
		presetF("dup", dup, 0.2)
		presetF("reorder", reorder, 0.2)
		presetF("corrupt", corrupt, 0.1)
		if !set["collectorcrash"] {
			// One mid-run collector crash: word 100 lands inside the
			// admission WAL for any 4x4 fleet (16 admissions x 16
			// words), so the smoke exercises recovery every time.
			*collectorCrash = "100"
		}
	}

	crashSchedule, err := parseSchedule(*collectorCrash)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: -collectorcrash:", err)
		return 2
	}

	cfg := fleet.Config{
		Nodes:            *nodes,
		Reports:          *reports,
		Seed:             *seed,
		CrashEvery:       *crashEvery,
		Workers:          *workers,
		Shards:           *shards,
		Deadline:         *deadline,
		Durable:          *durable || *nvmdir != "" || len(crashSchedule) > 0,
		NVMDir:           *nvmdir,
		CollectorCrashes: crashSchedule,
		Link: fault.LinkProfile{
			Drop: *drop, Duplicate: *dup, Reorder: *reorder,
			Corrupt: *corrupt, MaxDelay: *maxDelay,
		},
	}

	var reg *obs.Registry
	if *metrics || *debugAddr != "" || *traceFile != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	if *traceFile != "" {
		// Size the ring so a full run can never drop a span: one slot
		// per (node, seq), doubled for headroom (NewFlightRecorder
		// rounds up to a power of two anyway).
		cfg.Flight = obs.NewFlightRecorder(cfg.Nodes * cfg.Reports * 2)
		// The alerter's plan is the certified per-report cap itself, so
		// a healthy fleet burns at exactly 1x and only a privacy
		// overspend — noising charged above its certification — trips.
		burn, berr := obs.NewBurnAlerter(obs.BurnConfig{
			EnvelopeUnits:  int64(cfg.Nodes*cfg.Reports) * fleet.PerReportCapUnits,
			HorizonCharges: uint64(cfg.Nodes * cfg.Reports),
		})
		if berr != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: burn alerter:", berr)
			return 2
		}
		cfg.Burn = burn
	}
	if *debugAddr != "" {
		reg.PublishExpvar("ulpdp")
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", obs.PrometheusContentType)
			if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, "fleetsim: /metrics:", err)
			}
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fleetsim: debug server:", err)
			}
		}()
		fmt.Printf("fleetsim: serving /debug/vars, /metrics, and /debug/pprof on %s\n", *debugAddr)
	}

	fmt.Printf("fleetsim: %d nodes x %d reports, seed %d, link{drop %.2f dup %.2f reorder %.2f corrupt %.2f delay<=%d}, crash-every %d, durable %v, collector-crashes %v\n",
		cfg.Nodes, cfg.Reports, cfg.Seed, cfg.Link.Drop, cfg.Link.Duplicate,
		cfg.Link.Reorder, cfg.Link.Corrupt, cfg.Link.MaxDelay, cfg.CrashEvery,
		cfg.Durable, cfg.CollectorCrashes)

	chaos, err := fleet.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: chaos run:", err)
		return 1
	}
	printRun("chaos", chaos, *verbose)

	bad := 0
	for _, v := range chaos.Violations {
		fmt.Fprintln(os.Stderr, "fleetsim: invariant 1 (chaos):", v)
		bad++
	}
	if chaos.Resumed {
		// A resumed run delivered only the reports the dead process
		// left undone; a fresh same-seed baseline would cover all of
		// them, so bit-exact comparison is meaningless. Invariant 1
		// (exactly-once over the union of both processes' reports) was
		// still checked above.
		fmt.Printf("fleetsim: resumed durable state under %s — skipping the lossless baseline comparison\n", *nvmdir)
	} else {
		lossless := cfg
		lossless.Link = fault.LinkProfile{}
		// The baseline is the reference: no link chaos, no collector
		// crashes, and no durable directory (the chaos run with
		// restarts must still converge to it from fresh state).
		lossless.CollectorCrashes = nil
		lossless.NVMDir = ""
		// The baseline gets no plane: reusing the chaos run's registry
		// would double-charge the odometer channels, and reusing its
		// flight ring would collide span keys across runs.
		lossless.Obs = nil
		lossless.Flight = nil
		lossless.Burn = nil
		baseline, err := fleet.Run(lossless)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: lossless baseline:", err)
			return 1
		}
		printRun("lossless", baseline, false)
		for _, v := range baseline.Violations {
			fmt.Fprintln(os.Stderr, "fleetsim: invariant 1 (lossless):", v)
			bad++
		}
		for _, v := range fleet.CompareRuns(chaos, baseline) {
			fmt.Fprintln(os.Stderr, "fleetsim: invariant 2:", v)
			bad++
		}
	}
	if chaos.Obs != nil {
		raw, jerr := json.MarshalIndent(chaos.Obs, "", "  ")
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: snapshot:", jerr)
			return 1
		}
		fmt.Println(string(raw))
		if odo, ok := chaos.Obs.Odometers["budget.odometer"]; ok {
			fmt.Printf("fleetsim: odometer: %d units (%.4f nats) spent across %d channels in %d charges\n",
				odo.TotalUnits, float64(odo.TotalUnits)*core.ChargeUnit, len(odo.ChannelUnits), odo.Charges)
		}
	}
	if *traceFile != "" {
		bad += writeTrace(*traceFile, chaos, cfg.Durable)
	}
	if chaos.BurnAlert {
		fmt.Fprintf(os.Stderr, "fleetsim: burn alert: odometer burn exceeded plan (tripped at %d units of a %d unit envelope)\n",
			chaos.Burn.TrippedAtUnits, cfg.Burn.Config().EnvelopeUnits)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: FAIL: %d violation(s)\n", bad)
		return 1
	}
	if chaos.Resumed {
		fmt.Println("fleetsim: OK — exactly-once accounting held across the restart (recovered ledgers re-ACKed bit-exactly)")
	} else {
		fmt.Println("fleetsim: OK — exactly-once accounting held and the chaos run converged to the lossless baseline bit-exactly")
	}
	if *debugAddr != "" {
		fmt.Println("fleetsim: run complete; debug server still up (Ctrl-C to exit)")
		select {}
	}
	return 0
}

// writeTrace exports the chaos run's flight spans as Perfetto
// trace-event JSON, self-checks the export (shape-valid JSON, a
// complete causally ordered chain for every ACKed report), and prints
// the per-stage latency attribution table. Returns the number of
// violations found.
func writeTrace(path string, r fleet.Result, durable bool) int {
	if r.Flight == nil {
		fmt.Fprintln(os.Stderr, "fleetsim: -tracefile: run produced no flight snapshot")
		return 1
	}
	bad := 0
	if r.Flight.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: flight recorder dropped %d spans (capacity %d) — trace is incomplete\n",
			r.Flight.Dropped, r.Flight.Capacity)
		bad++
	}
	for _, v := range obs.ValidateFlight(r.Flight, true, durable) {
		fmt.Fprintln(os.Stderr, "fleetsim: span chain:", v)
		bad++
	}
	data, err := obs.PerfettoJSON(r.Flight, r.Burn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: trace export:", err)
		return bad + 1
	}
	for _, v := range obs.ValidatePerfettoJSON(data) {
		fmt.Fprintln(os.Stderr, "fleetsim: trace shape:", v)
		bad++
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: trace write:", err)
		return bad + 1
	}
	acked := 0
	for _, v := range r.Flight.Spans {
		if v.Acked() {
			acked++
		}
	}
	fmt.Printf("fleetsim: wrote %d spans (%d acked) to %s — load at ui.perfetto.dev\n",
		len(r.Flight.Spans), acked, path)

	rows := obs.Attribute(r.Flight)
	if len(rows) > 0 {
		fmt.Println("fleetsim: stage latency attribution (µs, stratified by retransmits):")
		fmt.Printf("  %-28s %-6s %8s %10s %10s %10s\n", "transition", "retx", "count", "p50", "p95", "p99")
		for _, row := range rows {
			fmt.Printf("  %-28s %-6s %8d %10.1f %10.1f %10.1f\n",
				row.Transition, row.Stratum, row.Count, row.P50, row.P95, row.P99)
		}
	}
	return bad
}

// parseSchedule parses the -collectorcrash flag: a comma-separated,
// strictly ascending list of non-negative word-write counts.
func parseSchedule(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad word count %q: %v", p, err)
		}
		if w < 0 {
			return nil, fmt.Errorf("negative word count %d", w)
		}
		if len(out) > 0 && w <= out[len(out)-1] {
			return nil, fmt.Errorf("schedule must be strictly ascending at %d", w)
		}
		out = append(out, w)
	}
	return out, nil
}

func printRun(name string, r fleet.Result, verbose bool) {
	fmt.Printf("%s: aggregate %d reports over %d nodes, sum %d; link{sent %d dropped %d dup %d reordered %d corrupt %d overflow %d}; collector{accepted %d dup %d breaker-drops %d fail-closed %d recoveries %d checkpoint-words %d}\n",
		name, r.Aggregate.Reports, r.Aggregate.Nodes, r.Aggregate.Sum,
		r.Link.Sent, r.Link.Dropped, r.Link.Duplicated, r.Link.Reordered,
		r.Link.CorruptedInFlight, r.Link.Overflow,
		r.Collector.Accepted, r.Collector.Duplicates,
		r.Collector.BreakerDrops, r.Collector.FailClosed,
		r.CollectorRecoveries, r.CheckpointWords)
	if !verbose {
		return
	}
	for i, n := range r.Nodes {
		fmt.Printf("  node %d: %d recorded, %d journaled, spend %.3f nats, crashes %d, redeliveries %d\n",
			i, len(n.Recorded), len(n.Released), n.SpendNats, n.Crashes, n.Redeliveries)
	}
}
