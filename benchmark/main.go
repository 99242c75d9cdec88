// Command benchmark is the repository's end-to-end benchmark: it
// drives the report path (URNG → CORDIC log → FxP sample → guard →
// DP-Box charge → NVM journal → frame → link → collector shard →
// checkpoint → ACK) and the analyzer through their public functions,
// prints every metric by name with its unit, and checks that every
// output is correct.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash benchmark/run.sh -workload NAME -seed N -seconds S -trace 0|1
//	bash benchmark/run.sh -bench all -seed N [-runs R] [-seconds S] [-out FILE]
//	bash benchmark/run.sh -benchcompare OLD NEW
//
// -workload runs one workload in this process. With -trace 0 it runs
// the untraced timed phase and reports the end-to-end metrics; with
// -trace 1 it runs the layer floor suite and the traced phase and
// reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// -bench all re-executes this binary once per workload and run, so
// every run gets a fresh process and a cold analyzer cache: R untraced
// runs with seeds N…N+R−1, then one traced run with seed N. It prints
// every metric and writes the set of runs to -out for -benchcompare.
//
// -benchcompare compares two sets metric by metric against the bounds
// in BENCHMARK.json, read from the repository root, and exits non-zero
// on a regression.
//
// See README.md for the workloads, the metrics, and how to read floor
// versus observed stage time versus wait.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process")
		seed         = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 15, "length of the timed phase in seconds (it ends at the next pass boundary)")
		trace        = flag.Int("trace", 0, "0 = untraced timed phase (end-to-end metrics), 1 = floors and traced phase (per-layer metrics)")
		bench        = flag.String("bench", "", "'all': run a set of every workload, each run in a fresh process")
		runs         = flag.Int("runs", 1, "untraced runs per workload in a set (seeds seed…seed+runs-1)")
		out          = flag.String("out", "", "write the set to this JSON file")
		compare      = flag.Bool("benchcompare", false, "compare two sets: -benchcompare OLD NEW")
	)
	flag.Parse()
	d := time.Duration(*seconds * float64(time.Second))

	switch {
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
		}
		o, err := runWorkload(w, *seed, d, *trace == 1)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, w, *seed, *trace == 1, o)
	case *bench != "":
		if *bench != "all" {
			fatal(fmt.Errorf("-bench takes 'all', got %q", *bench))
		}
		ok, err := runSet(*seed, *runs, *seconds, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-benchcompare takes two set files, got %d arguments", flag.NArg()))
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runRecord is one run as the last two lines of a run's output carry
// it, and as a set file stores it.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       bool                   `json:"trace"`
	Correct     bool                   `json:"correct"`
	Attempted   uint64                 `json:"attempted"`
	Failed      uint64                 `json:"failed"`
	Samples     int                    `json:"samples"`
	Fingerprint string                 `json:"fingerprint"`
	Metrics     map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detailPrefix marks the line before the result that carries every
// metric of the run, the per-layer detail rows included.
const detailPrefix = "detail "

// opNames says what one op and one sample are, per workload.
func opNames(w workload) (op, sample string) {
	if w.fleet.Nodes == 0 {
		return "audit", "audit"
	}
	return "report", fmt.Sprintf("fleet run of %d×%d reports", w.fleet.Nodes, w.fleet.Reports)
}

// report prints the human-readable table, the detail line and the
// result line.
func report(w *os.File, wl workload, seed uint64, traced bool, o *outcome) {
	pin, pinned := pinnedFingerprint(wl.name, seed)
	correct := o.failed == 0 && (!pinned || pin == o.fingerprint)
	op, sample := opNames(wl)
	mode := "untraced timed phase"
	if traced {
		mode = "floors and traced phase"
	}
	fmt.Fprintf(w, "%s seed %d, %s: %d samples (one sample = one %s), %d %ss attempted, %d failed, failed_frac %.6g\n",
		wl.name, seed, mode, o.samples, sample, o.attempted, op, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	rows := append(append([]metric(nil), o.metrics...), o.detail...)
	for i, m := range rows {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run whose every sample of a metric failed gets here;
			// JSON cannot carry NaN, and the run is already wrong.
			rows[i].Value, correct = 0, false
		}
	}
	for _, m := range rows {
		fmt.Fprintf(w, "  %-48s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fp := fmt.Sprintf("%016x", o.fingerprint)
	switch {
	case !pinned:
		fmt.Fprintf(w, "fingerprint %s (no pin for seed %d)\n", fp, seed)
	case pin == o.fingerprint:
		fmt.Fprintf(w, "fingerprint %s matches the seed-%d pin\n", fp, seed)
	default:
		fmt.Fprintf(w, "fingerprint %s DIFFERS from the seed-%d pin %016x\n", fp, seed, pin)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "FAILED:", n)
	}

	all := map[string]metricValue{}
	for _, m := range rows {
		all[m.Name] = metricValue{m.Value, m.Unit}
	}
	detail, _ := json.Marshal(runRecord{
		Workload: wl.name, Seed: seed, Trace: traced, Correct: correct,
		Attempted: o.attempted, Failed: o.failed, Samples: o.samples,
		Fingerprint: fp, Metrics: all,
	})
	fmt.Fprintln(w, detailPrefix+string(detail))

	res := result{Correct: correct, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range rows[:len(o.metrics)] {
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}
