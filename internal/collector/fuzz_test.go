package collector

import (
	"testing"

	"ulpdp/internal/nvm/nvmtest"
)

// fuzzJournal builds a standalone journal whose bank holds the given
// raw fuzz bytes (an odd trailing byte is a torn word and is dropped,
// as NVM would), powered and ready to replay.
func fuzzJournal(a []byte) *Journal {
	j := NewStore(1).Shard(0)
	j.loadBank(nvmtest.BytesToWords(a))
	return j
}

// FuzzCollectorCheckpoint feeds arbitrary bank contents — seeded with
// real journals, truncations, and targeted bit flips — through shard
// checkpoint recovery. Whatever the damage, replay must never panic;
// it either refuses the shard (fail closed) or returns a state that is
// internally consistent, deterministic, and still able to journal and
// survive further admissions.
func FuzzCollectorCheckpoint(f *testing.F) {
	// Corpus: a journal with a snapshot and a WAL tail, its compacted
	// form, plus truncated and bit-flipped variants and tiny junk.
	s := NewStore(1)
	j := s.Shard(0)
	j.seed()
	st := nodeTable{}
	for _, a := range []admSpec{{1, 0, 5}, {1, 1, -6}, {2, 0, 7}, {2, 5, 9}} {
		j.appendAdmission(a.node, a.seq, a.val, 0)
		mirrorAdmit(st, a.node, a.seq, a.val, 0)
	}
	live := nvmtest.WordsToBytes(j.r.Words(0))
	f.Add(live)
	f.Add(live[:len(live)-3])
	f.Add(live[:17])
	j.compact(st)
	f.Add(nvmtest.WordsToBytes(j.r.Words(0)))
	flipped := append([]byte(nil), live...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, a []byte) {
		if len(a) > 1<<16 {
			return // keep the word slice small; length adds no coverage
		}
		j1 := fuzzJournal(a)
		st, replayed, err := j1.replay()
		if err != nil {
			// Fail closed: the shard is refused; nothing to check.
			return
		}
		if st == nil {
			t.Fatal("replay returned nil state without error")
		}
		// Internal consistency: every store's bitmap, count, and
		// spill map agree, and no replayed node has an endpoint.
		for id, ns := range st {
			if ns.end != nil {
				t.Fatalf("node %d: replay bound an endpoint", id)
			}
			vs := &ns.store
			n := 0
			vs.forEach(func(seq uint64, v int64) {
				n++
				if !vs.has(seq) || vs.get(seq) != v {
					t.Fatalf("node %d seq %d: forEach/has/get disagree", id, seq)
				}
			})
			if n != vs.n {
				t.Fatalf("node %d: forEach visited %d, n = %d", id, n, vs.n)
			}
		}
		// Determinism: the same bank replays to the same admissions.
		j2 := fuzzJournal(a)
		st2, replayed2, err2 := j2.replay()
		if err2 != nil {
			t.Fatalf("second replay diverged into error: %v", err2)
		}
		if j2.gen != j1.gen || len(st2) != len(st) || replayed2 != replayed {
			t.Fatalf("replay not deterministic: gen %d/%d nodes %d/%d replayed %d/%d",
				j1.gen, j2.gen, len(st), len(st2), replayed, replayed2)
		}
		// The journal must remain usable the way Recover uses it:
		// replay, compact (folding any torn tail away), then admit —
		// and the admission survives its own replay.
		j := fuzzJournal(a)
		st3, _, err := j.replay()
		if err != nil {
			t.Fatalf("third replay diverged into error: %v", err)
		}
		if !j.compact(st3) {
			t.Fatal("recovery compaction failed with live power")
		}
		if ns := st3[7]; ns != nil && ns.store.has(123) {
			return // the fuzzer already owns the probe seq; nothing to prove
		}
		if !j.appendAdmission(7, 123, 456, 0) {
			t.Fatal("recovered journal rejected a powered admission")
		}
		st4, _, err := j.replay()
		if err != nil {
			t.Fatalf("replay after post-recovery admission: %v", err)
		}
		if ns := st4[7]; ns == nil || !ns.store.has(123) || ns.store.get(123) != 456 {
			t.Fatal("post-recovery admission lost on re-replay")
		}
	})
}
