package collector

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ulpdp/internal/transport"
)

// benchQueueCap is the benchmark links' queue capacity.
const benchQueueCap = 256

// benchIngest drives b.N reports round-robin across a fleet of
// attached lossless links and waits for the collector to record every
// one. Flow control mirrors a real fleet's ACK clocking: the sender
// never lets more than maxInFlight reports be outstanding across the
// fleet, nor more than a link's queue cap on any one node (a shard
// that falls behind would otherwise let its nodes' queues overflow
// and drop reports), so every report is accepted exactly once.
func benchIngest(b *testing.B, nodes int, durable bool) {
	const maxInFlight = 4096
	cfg := Config{BreakerThreshold: 1 << 30}
	var col *Collector
	if durable {
		var err error
		col, err = NewDurable(cfg, NewStore(0))
		if err != nil {
			b.Fatal(err)
		}
	} else {
		col = New(cfg)
	}
	defer col.Close()

	links := make([]*transport.Link, nodes)
	ends := make([]*transport.Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		links[i] = transport.NewLink(transport.LinkConfig{QueueCap: benchQueueCap})
		if err := col.Attach(transport.NodeID(i), links[i].CollectorEnd()); err != nil {
			b.Fatal(err)
		}
		ends[i] = links[i].NodeEnd()
	}
	seqs := make([]uint64, nodes)
	acked := make([]uint64, nodes)
	inFlight := maxInFlight
	if nodes < 64 {
		// Keep the per-link share of the in-flight window under the
		// queue cap.
		inFlight = nodes * 128
	}
	// drain reads node n's ACKs like a real agent would, so frames
	// keep cycling through the transport pool instead of parking in a
	// never-read receive queue, and counts them for the node's window.
	drain := func(n int) {
		for {
			pkt, ok := ends[n].TryRecv()
			if !ok {
				return
			}
			if pkt.Kind == transport.KindAck {
				acked[n]++
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % nodes
		if seqs[n]-acked[n] >= benchQueueCap {
			benchWait(b, col, links, "node ACKs", func() bool {
				drain(n)
				return seqs[n]-acked[n] < benchQueueCap
			})
		}
		ends[n].Send(transport.Packet{
			Kind: transport.KindReport, Node: transport.NodeID(n),
			Seq: seqs[n], Value: int64(i),
		})
		seqs[n]++
		drain(n)
		if (i+1)%inFlight == 0 {
			benchWait(b, col, links, "the in-flight window", func() bool {
				return col.Stats().Accepted+uint64(inFlight) >= uint64(i+1)
			})
		}
	}
	benchWait(b, col, links, "every report", func() bool {
		return col.Stats().Accepted >= uint64(b.N)
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/sec")

	if st := col.Stats(); st.Accepted != uint64(b.N) || st.Duplicates != 0 {
		b.Fatalf("accounting drifted: %+v for %d sends", st, b.N)
	}
}

// benchStall is how long benchWait spins before it fails.
const benchStall = 30 * time.Second

// benchWait yields until done holds. Past benchStall it fails with the
// collector's Stats and the links' overflow count instead of spinning
// forever on a report that was dropped.
func benchWait(b *testing.B, col *Collector, links []*transport.Link, what string, done func() bool) {
	deadline := time.Now().Add(benchStall)
	for spins := 1; !done(); spins++ {
		runtime.Gosched()
		if spins%1024 == 0 && time.Now().After(deadline) {
			var overflow uint64
			for _, l := range links {
				overflow += l.Stats().Overflow
			}
			b.Fatalf("stalled %v waiting for %s: %+v, link overflow %d", benchStall, what, col.Stats(), overflow)
		}
	}
}

// BenchmarkCollectorIngest measures steady-state ingest throughput of
// the sharded, event-driven collector. The per-report path — pooled
// frame marshal, readiness notification, shard drain, dedup record,
// batched ACK writeback — must stay at 0 allocs/op.
func BenchmarkCollectorIngest(b *testing.B) {
	for _, nodes := range []int{64, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchIngest(b, nodes, false)
		})
	}
}

// BenchmarkCollectorIngestDurable is the same measurement with shard
// checkpoint journaling on (two-phase admission WAL plus periodic
// snapshot compaction). Bank growth is amortized append and compaction
// cost is spread over CompactEvery admissions, so steady-state durable
// ingest must also hold 0 allocs/op.
func BenchmarkCollectorIngestDurable(b *testing.B) {
	for _, nodes := range []int{64, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchIngest(b, nodes, true)
		})
	}
}

// BenchmarkCollectorTick times one idle tick over a few hundred
// attached, silent, lossless links: every node is counted silent, and
// every link's flush finds no holdback. CI guards it at 0 allocs/op.
func BenchmarkCollectorTick(b *testing.B) {
	col := New(Config{BreakerThreshold: 1 << 30})
	defer col.Close()
	for i := 0; i < 256; i++ {
		link := transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			b.Fatal(err)
		}
	}
	col.Tick() // sizes the reused silent-link list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Tick()
	}
}
