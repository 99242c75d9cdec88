package fleet

import (
	"reflect"
	"testing"

	"ulpdp/internal/fault"
)

// TestSameSeedRunsBitExact pins the simulated clock's promise: two runs
// with the same seed produce the identical Result — link counters,
// collector counters including idle-tick Timeouts, per-node
// redeliveries and crashes, checkpoint word counts — not just the same
// values. Only the wall-clock telemetry (Obs latency histograms,
// Flight stamps) may differ, and neither is attached here.
//
// Collector-crash runs are out of scope: nodes admitted at the same
// simulated instant race for the shared checkpoint store, so which
// admission the scheduled word write tears still depends on goroutine
// order.
func TestSameSeedRunsBitExact(t *testing.T) {
	seed := gridSeed(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"chaos", Config{
			Nodes: 256, Reports: 4, BreakerThreshold: 1 << 20,
			Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2},
		}},
		{"durable-nodecrash", Config{
			Nodes: 64, Reports: 8, Durable: true, CrashEvery: 3,
			Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.05, MaxDelay: 2},
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Seed = seed
			a, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Violations) != 0 {
				t.Fatalf("violations: %v", head(a.Violations, 5))
			}
			if a.Link.Dropped == 0 || a.Link.Reordered == 0 || a.Collector.Timeouts == 0 {
				t.Fatalf("run exercised no chaos: link %+v, collector %+v", a.Link, a.Collector)
			}
			b, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Link != b.Link {
				t.Errorf("link stats differ:\n%+v\n%+v", a.Link, b.Link)
			}
			if a.Collector != b.Collector {
				t.Errorf("collector stats differ:\n%+v\n%+v", a.Collector, b.Collector)
			}
			if a.CheckpointWords != b.CheckpointWords {
				t.Errorf("checkpoint words differ: %d vs %d", a.CheckpointWords, b.CheckpointWords)
			}
			for i := range a.Nodes {
				an, bn := a.Nodes[i], b.Nodes[i]
				if an.Redeliveries != bn.Redeliveries || an.Crashes != bn.Crashes {
					t.Errorf("node %d: redeliveries %d/%d, crashes %d/%d", i, an.Redeliveries, bn.Redeliveries, an.Crashes, bn.Crashes)
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("results differ beyond the fields above")
			}
		})
	}
}
