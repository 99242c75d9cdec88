package fleet

import (
	"testing"

	"ulpdp/internal/fault"
)

// TestNodeAllocBudget pins what one node costs to build and run: heap
// allocations per node for a whole fleet.Run: lossless, over the
// fleet-chaos link profile, and with every node crash-recovering
// twice. A node is a few embedded records — its link, journal, box and
// agent — sized from the run and reused across crash recovery, and a
// node that waits for an ACK costs the run's event loop one downlink
// hook, not a waiter of its own, so a regression here means some layer
// went back to building per-node objects piecemeal. The budgets are
// the measured per-node counts plus 10%.
func TestNodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cases := []struct {
		name     string
		cfg      Config
		measured float64 // allocations per node
	}{
		{"lossless", Config{Nodes: 64, Reports: 4, Seed: 1, Workers: 16, BreakerThreshold: 1 << 20}, 14.75},
		{"chaos", Config{Nodes: 64, Reports: 4, Seed: 1, Workers: 16, BreakerThreshold: 1 << 20, Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2}}, 17.73},
		{"crash-every-2", Config{Nodes: 64, Reports: 4, Seed: 1, Workers: 16, BreakerThreshold: 1 << 20, CrashEvery: 2}, 17.77},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var runErr error
			allocs := testing.AllocsPerRun(5, func() {
				res, err := Run(c.cfg)
				if err == nil && len(res.Violations) != 0 {
					t.Errorf("violations: %v", head(res.Violations, 5))
				}
				if err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			perNode := allocs / float64(c.cfg.Nodes)
			t.Logf("%.2f allocs/node (budget %.2f)", perNode, 1.1*c.measured)
			if perNode > 1.1*c.measured {
				t.Errorf("%.2f allocs/node, budget %.2f (measured %.2f + 10%%)", perNode, 1.1*c.measured, c.measured)
			}
		})
	}
}
