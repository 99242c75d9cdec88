package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// pins holds the committed per-workload fingerprints for seed 1.
//
//go:embed testdata/fingerprints.json
var pins []byte

// pinnedFingerprint returns the committed fingerprint of a workload at
// seed, if one is pinned.
func pinnedFingerprint(workload string, seed uint64) (uint64, bool) {
	if seed != 1 {
		return 0, false
	}
	var m map[string]string
	if err := json.Unmarshal(pins, &m); err != nil {
		panic("benchmark: testdata/fingerprints.json: " + err.Error())
	}
	s, ok := m[workload]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		panic("benchmark: testdata/fingerprints.json: " + err.Error())
	}
	return v, true
}

// setFile is a set of runs: what -bench writes and -benchcompare reads.
type setFile struct {
	GoVersion  string      `json:"go_version"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// runSet runs every workload, each run in a fresh child process,
// prints every run and a per-workload summary, and writes the set to
// out. It reports whether every run was correct.
func runSet(seed uint64, runs int, seconds float64, out string) (bool, error) {
	if runs < 1 {
		return false, fmt.Errorf("-runs must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := setFile{
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds,
	}
	ok := true
	for _, w := range workloads {
		for r := 0; r <= runs; r++ {
			s, trace := seed+uint64(r), "0"
			if r == runs {
				s, trace = seed, "1"
			}
			rec, err := runChild(exe, w.name, s, seconds, trace)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Correct
			set.Runs = append(set.Runs, rec)
		}
	}
	printSummary(os.Stdout, set)
	if out != "" {
		buf, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Println("wrote", out)
	}
	return ok, nil
}

// runChild runs one workload in a child process, echoes its table,
// and parses its detail line.
func runChild(exe, name string, seed uint64, seconds float64, trace string) (runRecord, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runRecord{}, fmt.Errorf("%s seed %d trace %s: %w", name, seed, trace, err)
	}
	var rec runRecord
	found := false
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, detailPrefix) {
			if err := json.Unmarshal([]byte(line[len(detailPrefix):]), &rec); err != nil {
				return runRecord{}, fmt.Errorf("%s seed %d: detail line: %w", name, seed, err)
			}
			found = true
			continue
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if !found {
		return runRecord{}, fmt.Errorf("%s seed %d: no detail line in output", name, seed)
	}
	return rec, nil
}

// runsOf returns a set's runs of one workload, untraced or traced.
func runsOf(s setFile, workload string, traced bool) []runRecord {
	var out []runRecord
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

// values collects one metric across runs.
func values(runs []runRecord, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// failedFrac is failed ops over attempted ops across runs.
func failedFrac(runs []runRecord) float64 {
	var a, f uint64
	for _, r := range runs {
		a += r.Attempted
		f += r.Failed
	}
	return float64(f) / float64(max(a, 1))
}

// printSummary prints, per workload, every untraced metric's median
// and quartile spread across the set's runs with sample counts.
func printSummary(w io.Writer, s setFile) {
	fmt.Fprintln(w, "\n== set summary (untraced runs) ==")
	for _, wl := range workloads {
		runs := runsOf(s, wl.name, false)
		if len(runs) == 0 {
			continue
		}
		samples := 0
		for _, r := range runs {
			samples += r.Samples
		}
		fmt.Fprintf(w, "%s: %d runs, %d samples, failed_frac %.6g\n", wl.name, len(runs), samples, failedFrac(runs))
		for _, name := range sortedMetricNames(runs) {
			v := values(runs, name)
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(w, "  %-24s median %14.6g %-6s spread %6.2f%%\n", name, med, runs[0].Metrics[name].Unit, 100*(q3-q1)/med)
		}
	}
}

func sortedMetricNames(runs []runRecord) []string {
	var names []string
	for name := range runs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const specPath = "BENCHMARK.json"

func readSpec(path string) (spec, error) {
	var s spec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readSet(path string) (setFile, error) {
	var s setFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets compares NEW against OLD for every (end-to-end metric,
// workload): each side's median and quartiles, the change, and a
// verdict against the metric's bound. A metric whose spread on either
// side is wider than its bound is "unresolved" unless every NEW run
// beats every OLD run. It reports a regression when a resolved median
// worsens by more than the bound or failed_frac rises. Per-layer
// medians of the traced runs are printed for attribution, unjudged.
func compareSets(w io.Writer, oldPath, newPath string) (bool, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	oldSet, err := readSet(oldPath)
	if err != nil {
		return false, err
	}
	newSet, err := readSet(newPath)
	if err != nil {
		return false, err
	}
	regressed := false
	unresolved := 0
	for _, wl := range workloads {
		oldRuns, newRuns := runsOf(oldSet, wl.name, false), runsOf(newSet, wl.name, false)
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl.name, len(oldRuns), len(newRuns))
		fmt.Fprintf(w, "  %-16s %-33s %-33s %8s  %s\n", "metric", "old q1 / median / q3", "new q1 / median / q3", "better", "verdict")
		for _, m := range sp.EndToEnd {
			ov, nv := values(oldRuns, m.Name), values(newRuns, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(w, "  %-16s missing\n", m.Name)
				regressed = true
				continue
			}
			verdict, worse := judge(m, ov, nv)
			switch verdict {
			case "REGRESSION":
				regressed = true
			case "unresolved":
				unresolved++
			}
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			fmt.Fprintf(w, "  %-16s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g  %+7.2f%%  %s (bound %g%%)\n",
				m.Name, oq1, om, oq3, nq1, nm, nq3, -100*worse, verdict, 100*m.Bound)
		}
		of, nf := failedFrac(oldRuns), failedFrac(newRuns)
		verdict := "ok"
		if nf > of {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-16s %10.4g %33.4g  %s\n", "failed_frac", of, nf, verdict)

		oldT, newT := runsOf(oldSet, wl.name, true), runsOf(newSet, wl.name, true)
		if len(oldT) > 0 && len(newT) > 0 {
			fmt.Fprintln(w, "  per-layer (traced runs, median old → new):")
			for _, name := range sortedMetricNames(newT) {
				ov, nv := values(oldT, name), values(newT, name)
				if len(ov) == 0 {
					continue
				}
				om, nm := median(ov), median(nv)
				fmt.Fprintf(w, "    %-48s %12.4g → %-12.4g %s\n", name, om, nm, newT[0].Metrics[name].Unit)
			}
		}
	}
	fmt.Fprintf(w, "unresolved: %d\n", unresolved)
	if regressed {
		fmt.Fprintln(w, "result: REGRESSION")
	} else {
		fmt.Fprintln(w, "result: no regression")
	}
	return regressed, nil
}

// judge returns the verdict for one metric and how much worse NEW's
// median is than OLD's, as a share of OLD's (negative = better).
func judge(m specMetric, ov, nv []float64) (string, float64) {
	oq1, om, oq3 := quartiles(ov)
	nq1, nm, nq3 := quartiles(nv)
	worse := (nm - om) / om
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max((oq3-oq1)/om, (nq3-nq1)/nm)
	allBetter := true
	for _, o := range ov {
		for _, n := range nv {
			if (m.Better == "higher" && n <= o) || (m.Better != "higher" && n >= o) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better", worse
	case spread > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "REGRESSION", worse
	}
	return "ok", worse
}
