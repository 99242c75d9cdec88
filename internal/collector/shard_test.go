package collector

import (
	"fmt"
	"testing"
	"time"

	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// quiesce waits until every sent report has been handled: each report
// lands in exactly one of Accepted, Duplicates, or BreakerDrops.
func quiesce(t *testing.T, col *Collector, handled uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("%d reports handled", handled), func() bool {
		s := col.Stats()
		return s.Accepted+s.Duplicates+s.BreakerDrops >= handled
	})
}

// shardRunResult is everything a scripted run exposes that must be
// bit-identical across shard counts.
type shardRunResult struct {
	values      []map[uint64]int64
	views       []NodeView
	stats       Stats
	transitions [4]uint64     // opened, half-opened, closed, reopened
	arcs        []breakerArcs // per node, sampled after every phase
}

// runScripted drives the same deterministic per-node report script
// through a collector with the given shard count and snapshots every
// observable per-node output. Breaker silence is advanced with Tick,
// never the wall clock, so the run is schedule-independent,
// and no phase moves a node's breaker more than once, so sampling the
// query views after every phase records each full arc sequence.
func runScripted(t *testing.T, shards, nodes int) shardRunResult {
	t.Helper()
	const (
		threshold = 3
		openTicks = 2
	)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	col := New(Config{
		Shards:           shards,
		BreakerThreshold: threshold,
		OpenTicks:        openTicks,
		Obs:              m,
	})
	defer col.Close()

	ends := make([]*transport.Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		link := transport.NewLink(transport.LinkConfig{QueueCap: 256})
		if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		ends[i] = link.NodeEnd()
	}

	arcs := make([]breakerArcs, nodes)
	handled := uint64(0)
	// settle waits out a phase, then samples every node's breaker.
	settle := func() {
		quiesce(t, col, handled)
		for i := range arcs {
			v, ok := col.Node(transport.NodeID(i))
			if !ok {
				t.Fatalf("node %d not attached", i)
			}
			arcs[i].sample(v.Breaker)
		}
	}
	send := func(i int, seq uint64, value int64, flags uint8) {
		ends[i].Send(transport.Packet{
			Kind: transport.KindReport, Node: transport.NodeID(i),
			Seq: seq, Value: value, Flags: flags,
		})
		handled++
	}

	// Phase 1: five healthy reports per node, plus re-deliveries of
	// seqs 1..3 (the at-least-once duplicates the dedup must absorb).
	for i := 0; i < nodes; i++ {
		for seq := uint64(0); seq < 5; seq++ {
			send(i, seq, int64(i*100)+int64(seq*7), 0)
		}
		for seq := uint64(1); seq < 4; seq++ {
			send(i, seq, int64(i*100)+int64(seq*7), 0)
		}
	}
	settle()

	// Phase 2: even nodes stream unhealthy reports until the breaker
	// trips (the threshold-th is dropped), then two more into the
	// open breaker.
	for i := 0; i < nodes; i += 2 {
		for k := 0; k < threshold+2; k++ {
			send(i, uint64(5+k), int64(900+k), transport.FlagUnhealthy)
		}
	}
	settle()

	// Phase 3: deterministic silence half-opens the tripped breakers;
	// an unhealthy probe re-opens, more silence half-opens again, and
	// a healthy probe closes. The first tick after traffic only clears
	// the per-node saw-report flag, so openTicks+1 ticks decrement the
	// cooldown openTicks times. Odd nodes get a healthy keepalive
	// after each silence window so their own breakers never trip.
	cooldown := func(keepaliveSeq uint64) {
		for k := 0; k < openTicks+1; k++ {
			col.Tick()
		}
		for i := 1; i < nodes; i += 2 {
			send(i, keepaliveSeq, int64(i*100), 0)
		}
		settle()
	}
	cooldown(5)
	for i := 0; i < nodes; i += 2 {
		send(i, 20, 1000, transport.FlagUnhealthy) // failed probe
	}
	settle()
	cooldown(6)
	for i := 0; i < nodes; i += 2 {
		send(i, 21, int64(2000+i), 0) // healthy probe, recorded
	}
	settle()

	// Phase 4: one budget-exhausted report per odd node (degraded
	// view without touching the breaker).
	for i := 1; i < nodes; i += 2 {
		send(i, 7, int64(i*100)+3, transport.FlagFromCache)
	}
	settle()

	res := shardRunResult{
		values: make([]map[uint64]int64, nodes),
		views:  make([]NodeView, nodes),
		stats:  col.Stats(),
		arcs:   arcs,
	}
	for i := 0; i < nodes; i++ {
		res.values[i] = col.Values(transport.NodeID(i))
		v, ok := col.Node(transport.NodeID(i))
		if !ok {
			t.Fatalf("node %d not attached", i)
		}
		res.views[i] = v
	}
	res.transitions = [4]uint64{
		m.Opened.Value(), m.HalfOpened.Value(), m.Closed.Value(), m.Reopened.Value(),
	}
	return res
}

// TestShardEquivalenceProperty is the shard-boundary correctness
// property: the same deterministic report script through P shards
// must produce bit-identical per-node values, query views, stats, and
// breaker transition sequences as the P=1 run. Node state is confined
// to its owning shard and every decision depends only on that node's
// own stream, so sharding must be invisible.
func TestShardEquivalenceProperty(t *testing.T) {
	const nodes = 24
	baseline := runScripted(t, 1, nodes)

	// Sanity on the baseline itself: the script really exercised the
	// dedup and the full breaker lifecycle.
	if baseline.stats.Duplicates == 0 || baseline.stats.BreakerDrops == 0 {
		t.Fatalf("script exercised nothing: %+v", baseline.stats)
	}
	for i := 0; i < nodes; i++ {
		if i%2 == 0 {
			checkArcs(t, i, baseline.arcs[i].arcs, fullBreakerLifecycle)
		} else {
			checkArcs(t, i, baseline.arcs[i].arcs, nil)
		}
	}

	for _, p := range []int{2, 4, 32} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			got := runScripted(t, p, nodes)
			if got.stats != baseline.stats {
				t.Errorf("stats diverged: P=%d %+v vs P=1 %+v", p, got.stats, baseline.stats)
			}
			if got.transitions != baseline.transitions {
				t.Errorf("transition counters diverged: %v vs %v", got.transitions, baseline.transitions)
			}
			for i := 0; i < nodes; i++ {
				if gv, bv := got.views[i], baseline.views[i]; gv != bv {
					t.Errorf("node %d view diverged: %+v vs %+v", i, gv, bv)
				}
				if len(got.values[i]) != len(baseline.values[i]) {
					t.Errorf("node %d: %d values vs %d", i, len(got.values[i]), len(baseline.values[i]))
					continue
				}
				for seq, v := range baseline.values[i] {
					if gv, ok := got.values[i][seq]; !ok || gv != v {
						t.Errorf("node %d seq %d: %d (ok=%v) vs %d", i, seq, gv, ok, v)
					}
				}
			}
			for i := range baseline.arcs {
				checkArcs(t, i, got.arcs[i].arcs, baseline.arcs[i].arcs)
			}
		})
	}
}

// TestShardSpread pins the shard hash: a dense block of node IDs must
// not all land on one shard (the whole point of hashing is that
// real-world sequential IDs spread).
func TestShardSpread(t *testing.T) {
	c := New(Config{Shards: 8})
	defer c.Close()
	seen := make(map[*shard]int)
	for id := 0; id < 256; id++ {
		seen[c.shardFor(transport.NodeID(id))]++
	}
	if len(seen) != 8 {
		t.Fatalf("256 dense IDs hit only %d of 8 shards", len(seen))
	}
	for sh, n := range seen {
		if n > 96 {
			t.Fatalf("shard %p got %d of 256 IDs — hash is clumping", sh, n)
		}
	}
}
