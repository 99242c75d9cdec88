package fleet

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
	"ulpdp/internal/urng"
)

// gridSeed is the chaos grid's master seed; CI sweeps it through the
// FLEET_SEED environment variable.
func gridSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("FLEET_SEED")
	if s == "" {
		return 0xF1EE7
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("bad FLEET_SEED %q: %v", s, err)
	}
	return v
}

// profiles is the chaos grid's link axis.
var profiles = []struct {
	name string
	prof fault.LinkProfile
}{
	{"lossless", fault.LinkProfile{}},
	{"drop", fault.LinkProfile{Drop: 0.35}},
	{"dup-reorder", fault.LinkProfile{Duplicate: 0.3, Reorder: 0.25, MaxDelay: 3}},
	{"corrupt", fault.LinkProfile{Corrupt: 0.2}},
	{"filthy", fault.LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1, MaxDelay: 3}},
}

// TestChaosGrid sweeps link-profile x crash-schedule and asserts both
// fleet invariants at every grid point: exactly-once accounting
// in-run, and bit-exact agreement with the lossless same-seed
// baseline.
func TestChaosGrid(t *testing.T) {
	base := Config{Nodes: 6, Reports: 6, Seed: gridSeed(t)}

	for _, crashEvery := range []int{0, 2} {
		cfg := base
		cfg.CrashEvery = crashEvery
		baseline, err := Run(cfg)
		if err != nil {
			t.Fatalf("crash=%d baseline: %v", crashEvery, err)
		}
		if len(baseline.Violations) != 0 {
			t.Fatalf("crash=%d baseline violations: %v", crashEvery, baseline.Violations)
		}
		for _, p := range profiles[1:] {
			p := p
			t.Run(fmt.Sprintf("%s/crash=%d", p.name, crashEvery), func(t *testing.T) {
				t.Parallel()
				cfg := base
				cfg.CrashEvery = crashEvery
				cfg.Link = p.prof
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Invariant 1: exactly-once accounting under chaos.
				if len(res.Violations) != 0 {
					t.Fatalf("violations: %v", res.Violations)
				}
				// Invariant 2: the chaos run converges to the
				// lossless baseline bit-exactly.
				if diffs := CompareRuns(res, baseline); len(diffs) != 0 {
					t.Fatalf("diverged from lossless baseline: %v", diffs)
				}
				// The chaos actually did something.
				st := res.Link
				if p.prof.Drop > 0 && st.Dropped == 0 {
					t.Error("profile drops but link dropped nothing")
				}
				if p.prof.Duplicate > 0 && st.Duplicated == 0 {
					t.Error("profile duplicates but link duplicated nothing")
				}
				if p.prof.Corrupt > 0 && st.CorruptedInFlight == 0 {
					t.Error("profile corrupts but link corrupted nothing")
				}
			})
		}
	}
}

// TestFleetScale10k is the sharded datapath's scale point: ten
// thousand complete nodes — journaled DP-Box, real agent, own lossy
// link — through one collector, under the race detector, with every
// fleet invariant still held: exactly-once accounting, bit-exact
// chaos-transparency against the lossless same-seed baseline, and the
// live n·ε odometer envelope. The goroutine-per-node fleet could not
// even start this under -race (~8k goroutine budget); lifecycle slots
// stepped from one event loop plus event-driven ingest make it
// routine.
func TestFleetScale10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node scale point is not a -short test")
	}
	const nodes = 10000
	base := Config{
		Nodes:            nodes,
		Reports:          2,
		Seed:             gridSeed(t),
		Workers:          256,
		BreakerThreshold: 1 << 20,
		Deadline:         10 * time.Minute,
	}

	baseline, err := Run(base)
	if err != nil {
		t.Fatalf("lossless baseline: %v", err)
	}
	if len(baseline.Violations) != 0 {
		t.Fatalf("baseline violations (showing up to 5): %v", head(baseline.Violations, 5))
	}
	if baseline.Aggregate.Reports != nodes*base.Reports {
		t.Fatalf("baseline aggregate %+v, want %d reports", baseline.Aggregate, nodes*base.Reports)
	}

	cfg := base
	cfg.Link = fault.LinkProfile{Drop: 0.1, Duplicate: 0.05, Reorder: 0.1, MaxDelay: 2}
	cfg.Obs = obs.NewRegistry() // live odometer envelope on the chaos leg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations (showing up to 5): %v", head(res.Violations, 5))
	}
	if diffs := CompareRuns(res, baseline); len(diffs) != 0 {
		t.Fatalf("chaos run diverged from lossless baseline: %v", head(diffs, 5))
	}
	if res.Link.Dropped == 0 || res.Link.Duplicated == 0 {
		t.Fatalf("chaos profile did nothing: %+v", res.Link)
	}
}

func head(v []string, n int) []string {
	if len(v) > n {
		return v[:n]
	}
	return v
}

// TestCrashScheduleChargesOnce pins the crash axis specifically: with
// a crash after every report, every value must still be charged
// exactly once and delivered exactly once.
func TestCrashScheduleChargesOnce(t *testing.T) {
	res, err := Run(Config{
		Nodes: 4, Reports: 5, Seed: 77, CrashEvery: 1,
		Link: fault.LinkProfile{Drop: 0.4, Duplicate: 0.2, Reorder: 0.15, MaxDelay: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	for i, nr := range res.Nodes {
		if nr.Crashes != 5 {
			t.Errorf("node %d crashed %d times, want 5", i, nr.Crashes)
		}
	}
}

// TestCollectorCrashGrid is the collector-restart axis of the chaos
// grid: a durable collector is crashed at checkpoint word-write
// offsets sweeping its entire write stream — inside admission intents,
// records, commits, and compaction snapshots alike — crossed with
// lossy link profiles and node crash schedules. Every grid point must
// recover to bit-exact exactly-once accounting: no double-counted
// report, no lost ACKed report, convergence to the lossless same-seed
// baseline, and the live Σcharges ≤ n·ε odometer envelope throughout.
//
// The fleet is kept minimal (2 nodes × 2 reports, 1 shard, snapshot
// every 3 admissions) so the word axis stays small enough to sweep
// exhaustively; TestCheckpointCrashSweep in internal/collector is the
// journal-level word-exact counterpart on a larger scenario.
func TestCollectorCrashGrid(t *testing.T) {
	base := Config{
		Nodes: 2, Reports: 2, Seed: gridSeed(t),
		Shards: 1, CompactEvery: 3, BreakerThreshold: 1 << 20,
	}
	stride := 1
	if testing.Short() {
		stride = 7 // sparse sweep for -short; CI runs the full axis
	}
	crashLinks := []struct {
		name string
		prof fault.LinkProfile
	}{
		{"drop", fault.LinkProfile{Drop: 0.35}},
		{"dup-reorder", fault.LinkProfile{Duplicate: 0.3, Reorder: 0.25, MaxDelay: 3}},
	}

	for _, nodeCrash := range []int{0, 2} {
		nodeCrash := nodeCrash
		// Volatile and durable lossless baselines: checkpointing alone
		// must not change a single value.
		vcfg := base
		vcfg.CrashEvery = nodeCrash
		volatile, err := Run(vcfg)
		if err != nil {
			t.Fatalf("nodecrash=%d volatile baseline: %v", nodeCrash, err)
		}
		dcfg := vcfg
		dcfg.Durable = true
		baseline, err := Run(dcfg)
		if err != nil {
			t.Fatalf("nodecrash=%d durable baseline: %v", nodeCrash, err)
		}
		if len(baseline.Violations) != 0 {
			t.Fatalf("nodecrash=%d baseline violations: %v", nodeCrash, head(baseline.Violations, 5))
		}
		if diffs := CompareRuns(baseline, volatile); len(diffs) != 0 {
			t.Fatalf("nodecrash=%d: durability changed results: %v", nodeCrash, head(diffs, 5))
		}
		words := int(baseline.CheckpointWords)
		if words < 16*base.Nodes*base.Reports {
			t.Fatalf("nodecrash=%d: baseline wrote only %d checkpoint words", nodeCrash, words)
		}
		// Any crash offset below the admission floor (every run journals
		// at least Nodes×Reports admissions of 16 words) must fire.
		mustFire := 16 * base.Nodes * base.Reports

		for _, link := range crashLinks {
			link := link
			t.Run(fmt.Sprintf("%s/nodecrash=%d", link.name, nodeCrash), func(t *testing.T) {
				t.Parallel()
				fired := 0
				for w := 0; w < words; w += stride {
					cfg := base
					cfg.CrashEvery = nodeCrash
					cfg.Link = link.prof
					cfg.CollectorCrashes = []int{w}
					cfg.Obs = obs.NewRegistry() // live odometer envelope per run
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("crash@%d: %v", w, err)
					}
					if len(res.Violations) != 0 {
						t.Fatalf("crash@%d violations: %v", w, head(res.Violations, 5))
					}
					if diffs := CompareRuns(res, baseline); len(diffs) != 0 {
						t.Fatalf("crash@%d diverged from lossless baseline: %v", w, head(diffs, 5))
					}
					if res.CollectorRecoveries > 0 {
						fired++
					}
					if w < mustFire && res.CollectorRecoveries != 1 {
						t.Fatalf("crash@%d: %d recoveries, want exactly 1", w, res.CollectorRecoveries)
					}
				}
				if fired == 0 {
					t.Fatal("collector crash axis never fired")
				}
			})
		}
	}
}

// TestRunLeavesNoGoroutines pins that a run stops everything it
// starts: the event loop's fan-out helpers (with GOMAXPROCS > 1 every
// shape here boots 16 slots at instant 0, a batch that fans out) and
// the deadline backstop; a collector, recovered instances included,
// starts nothing. A helper can still be inside its deferred Done
// when Run returns, so the count gets a bounded settle.
func TestRunLeavesNoGoroutines(t *testing.T) {
	chaos := fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2}
	for _, c := range []runShape{
		{"volatile", Config{Nodes: 16, Reports: 4}},
		{"chaos", Config{Nodes: 16, Reports: 4, Link: chaos}},
		{"collector-crash", Config{
			Nodes: 16, Reports: 4, Shards: 2, CompactEvery: 5, CrashEvery: 3,
			CollectorCrashes: []int{150, 600}, BreakerThreshold: 1 << 20, Link: chaos,
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Seed = gridSeed(t)
			before := runtime.NumGoroutine()
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations: %v", head(res.Violations, 5))
			}
			if len(c.cfg.CollectorCrashes) > 0 && res.CollectorRecoveries == 0 {
				t.Fatal("no collector crash fired")
			}
			settle := time.Now().Add(2 * time.Second)
			n := runtime.NumGoroutine()
			for n > before && time.Now().Before(settle) {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the run, %d after a 2s settle:\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestSeedChangesValues is the negative control for invariant 2: a
// different master seed must actually produce different values, or
// the bit-exact comparisons above are vacuous.
func TestSeedChangesValues(t *testing.T) {
	a, err := Run(Config{Nodes: 3, Reports: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Nodes: 3, Reports: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(CompareRuns(a, b)) == 0 {
		t.Fatal("different seeds produced identical fleets")
	}
}

// TestDeadlineEndsAStuckRun pins the wall-clock backstop: a run whose
// links lose every frame can never finish, so its Deadline must end
// it, with every unfinished node reported, instead of the event loop
// stepping simulated retries forever.
func TestDeadlineEndsAStuckRun(t *testing.T) {
	done := make(chan Result, 1)
	go func() {
		res, err := Run(Config{Nodes: 4, Reports: 2, Seed: 1, Deadline: 100 * time.Millisecond,
			Link: fault.LinkProfile{Drop: 1}})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a run with a 100ms deadline was still going after 10s")
	}
	late := 0
	for _, v := range res.Violations {
		if strings.Contains(v, "deadline") {
			late++
		}
	}
	if late != 4 {
		t.Fatalf("%d deadline violations, want one per node (4): %v", late, head(res.Violations, 8))
	}
}

// TestEndCheckCatchesCorruptRelease drives one fleet-configured box
// through a few reports and runs the end-of-node cross-check: it
// passes on the live box, reuses its scratch map, and flags a release
// that differs from the journal's.
func TestEndCheckCatchesCorruptRelease(t *testing.T) {
	var src urng.Taus88
	src.Seed(1)
	j := dpbox.NewJournal()
	box, err := dpbox.New(boxConfig(&src, j, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(1e6, 0); err != nil {
		t.Fatal(err)
	}
	if err := box.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 4; seq++ {
		if _, err := box.NoiseValueSeq(seq, reading(0, int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	scratch, err := checkJournal(j, box, nil)
	if err != nil {
		t.Fatalf("live box: %v", err)
	}
	if len(scratch) != 4 {
		t.Fatalf("replay holds %d releases, want 4", len(scratch))
	}
	scratch[99] = dpbox.Release{} // stale entry from a previous node
	again, err := checkJournal(j, box, scratch)
	if err != nil {
		t.Fatalf("second check: %v", err)
	}
	if len(again) != 4 || fmt.Sprintf("%p", again) != fmt.Sprintf("%p", scratch) {
		t.Fatalf("scratch map not emptied and reused: %d entries", len(again))
	}

	// Releases is the box's own map: writing through it (which the
	// read-only contract forbids callers) corrupts the live release.
	rel := box.Releases()[2]
	rel.Value++
	box.Releases()[2] = rel
	if _, err := checkJournal(j, box, again); err == nil || !strings.Contains(err.Error(), "seq 2") {
		t.Fatalf("corrupt live release not flagged: %v", err)
	}
}
