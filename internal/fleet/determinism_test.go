package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"ulpdp/internal/fault"
)

type runShape struct {
	name string
	cfg  Config
}

// bitExactShapes are the run shapes whose whole Result is pinned per
// seed: chaos links alone, durable nodes crash-recovering over
// corrupting links, and a serial fleet over a collector that crashes
// three times.
func bitExactShapes() []runShape {
	return []runShape{
		{"chaos", Config{
			Nodes: 256, Reports: 4, BreakerThreshold: 1 << 20,
			Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2},
		}},
		{"durable-nodecrash", Config{
			Nodes: 64, Reports: 8, Durable: true, CrashEvery: 3,
			Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.05, MaxDelay: 2},
		}},
		// One worker: a single node lifecycle at a time, so no two nodes
		// race for the store's crash word.
		{"collector-crash-serial", Config{
			Nodes: 16, Reports: 4, Workers: 1, Shards: 2, CompactEvery: 5, CrashEvery: 3,
			CollectorCrashes: []int{150, 600, 1400}, BreakerThreshold: 1 << 20,
			Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2},
		}},
	}
}

// TestSameSeedRunsBitExact pins the simulated clock's promise: two runs
// with the same seed produce the identical Result — link counters,
// collector counters including idle-tick Timeouts, per-node
// redeliveries and crashes, checkpoint word counts — not just the same
// values. Only the wall-clock telemetry (Obs latency histograms,
// Flight stamps) may differ, and neither is attached here.
//
// Collector-crash runs with several workers are out of scope: nodes
// admitted at the same simulated instant race for the shared
// checkpoint store, so which admission the scheduled word write tears
// still depends on goroutine order. With one worker there is no such
// race, and the serial collector-crash shape is pinned like the rest.
func TestSameSeedRunsBitExact(t *testing.T) {
	seed := gridSeed(t)
	for _, c := range bitExactShapes() {
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

// TestFleetRunGolden pins what a seed produces across commits, not
// just across two runs of one binary: one FNV-1a hash per
// bitExactShapes shape over the link and collector counters, the
// checkpoint word count, and each node's redeliveries, crashes,
// sorted releases and spend. Retransmit, timeout and duplicate counts
// are therefore fixed too, which CompareRuns does not check. Workers
// is pinned (16 unless the shape sets its own) because the default
// pool size follows GOMAXPROCS and the pool size shifts timing counts.
func TestFleetRunGolden(t *testing.T) {
	want := map[string]uint64{
		"chaos":                  0x950d54de7268f420,
		"durable-nodecrash":      0x111f9349cf1f32b7,
		"collector-crash-serial": 0xa47e4940b621a025,
	}
	for _, c := range bitExactShapes() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Seed = 1
			if c.cfg.Workers == 0 {
				c.cfg.Workers = 16
			}
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations: %v", head(res.Violations, 5))
			}
			if got := runFingerprint(res); got != want[c.name] {
				t.Errorf("fingerprint %#x, want %#x (link %+v, collector %+v, checkpoint words %d)",
					got, want[c.name], res.Link, res.Collector, res.CheckpointWords)
			}
		})
	}
}

// runFingerprint hashes the timing-sensitive parts of a Result.
func runFingerprint(res Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	l := res.Link
	for _, v := range []uint64{l.Sent, l.Delivered, l.Dropped, l.Duplicated, l.Reordered, l.CorruptedInFlight, l.Overflow, l.RejectedCorrupt} {
		put(v)
	}
	c := res.Collector
	for _, v := range []uint64{c.Accepted, c.Duplicates, c.BreakerDrops, c.Timeouts, c.FailClosed} {
		put(v)
	}
	put(res.CheckpointWords)
	for _, n := range res.Nodes {
		put(uint64(n.Redeliveries))
		put(uint64(n.Crashes))
		seqs := make([]uint64, 0, len(n.Released))
		for seq := range n.Released {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
		for _, seq := range seqs {
			r := n.Released[seq]
			put(seq)
			put(uint64(r.Value))
			var f uint64
			if r.Degraded {
				f |= 1
			}
			if r.FromCache {
				f |= 2
			}
			put(f)
		}
		put(math.Float64bits(n.SpendNats))
	}
	return h.Sum64()
}
