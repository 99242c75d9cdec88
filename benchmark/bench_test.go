package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the tests run this package's main in a child process:
// -bench re-executes its own binary, which under `go test` is the test
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHMARK_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main in a child process from the repository root, as
// run.sh does, and returns its exit code.
func runMain(t *testing.T, args ...string) int {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = ".."
	cmd.Env = append(os.Environ(), "BENCHMARK_RUN_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	t.Logf("benchmark %v:\n%s", args, out)
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchAll runs every workload briefly, untraced and traced, each
// in its own process, and checks the set against BENCHMARK.json, the
// pinned fingerprints, and -benchcompare's verdicts.
func TestBenchAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := readSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range sp.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json lists workloads %s, the benchmark has %s", got, want)
	}
	dir := t.TempDir()
	setPath := filepath.Join(dir, "set.json")
	if code := runMain(t, "-bench", "all", "-seed", "1", "-runs", "1", "-seconds", "0.2", "-out", setPath); code != 0 {
		t.Fatalf("-bench all exited %d", code)
	}
	set, err := readSet(setPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workloads {
		pin, ok := pinnedFingerprint(w.name, 1)
		if !ok {
			t.Errorf("%s: no seed-1 fingerprint pinned", w.name)
		}
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			runs := runsOf(set, w.name, traced)
			if len(runs) != 1 {
				t.Fatalf("%s traced=%v: %d runs in the set, want 1", w.name, traced, len(runs))
			}
			r := runs[0]
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			if r.Fingerprint != fmt.Sprintf("%016x", pin) {
				t.Errorf("%s traced=%v: fingerprint %s, pinned %016x", w.name, traced, r.Fingerprint, pin)
			}
			for _, m := range want {
				v, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, v.Unit, m.Unit)
				}
			}
			for name := range r.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q outside [A-Za-z0-9_.-]", w.name, name)
				}
			}
		}
	}

	if code := runMain(t, "-benchcompare", setPath, setPath); code != 0 {
		t.Errorf("self-compare exited %d, want 0", code)
	}
	// Halving every run's throughput is a regression beyond any bound
	// the benchmark may set (at most 25%).
	for i, r := range set.Runs {
		if m, ok := r.Metrics["ops_per_s"]; ok && !r.Trace {
			m.Value /= 2
			set.Runs[i].Metrics["ops_per_s"] = m
		}
	}
	buf, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	slowPath := filepath.Join(dir, "slow.json")
	if err := os.WriteFile(slowPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runMain(t, "-benchcompare", setPath, slowPath); code == 0 {
		t.Error("-benchcompare accepted a set with half the throughput")
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, m, q3 := quartiles(xs); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
	// exclusive method extrapolates past the ends of short samples.
	if q1, m, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || m != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles = %g %g %g, want 0.75 1.5 2.25", q1, m, q3)
	}
}
