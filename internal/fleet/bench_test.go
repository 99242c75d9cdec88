package fleet

import (
	"runtime"
	"testing"

	"ulpdp/internal/fault"
)

// BenchmarkFleetScale runs one complete lossless fleet (journaled
// DP-Box nodes, real agents, sharded collector) per iteration and
// reports end-to-end reports/sec — the fleet-plane companion to the
// collector-only BenchmarkCollectorIngest.
func BenchmarkFleetScale(b *testing.B) {
	const (
		nodes   = 256
		reports = 4
	)
	b.ReportAllocs()
	defer reportAllocsPerNode(b, nodes)()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Nodes: nodes, Reports: reports, Seed: 42,
			BreakerThreshold: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
		if res.Aggregate.Reports != nodes*reports {
			b.Fatalf("aggregate %+v", res.Aggregate)
		}
	}
	b.ReportMetric(float64(b.N*nodes*reports)/b.Elapsed().Seconds(), "reports/sec")
}

// BenchmarkFleetScaleChaos is the same fleet under a filthy link —
// the throughput cost of retransmission and dedup rather than the
// clean-path ceiling.
func BenchmarkFleetScaleChaos(b *testing.B) {
	const (
		nodes   = 256
		reports = 4
	)
	b.ReportAllocs()
	defer reportAllocsPerNode(b, nodes)()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Nodes: nodes, Reports: reports, Seed: 42,
			BreakerThreshold: 1 << 20,
			Link:             fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
	b.ReportMetric(float64(b.N*nodes*reports)/b.Elapsed().Seconds(), "reports/sec")
}

// reportAllocsPerNode starts counting heap allocations; the returned
// func reports them per node per run as allocs/node (TestNodeAllocBudget
// pins the same quantity).
func reportAllocsPerNode(b *testing.B, nodes int) func() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.Mallocs
	return func() {
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.Mallocs-start)/float64(b.N*nodes), "allocs/node")
	}
}
