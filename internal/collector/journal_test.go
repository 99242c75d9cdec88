package collector

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ulpdp/internal/nvm"
	"ulpdp/internal/nvm/nvmtest"
)

// loadBank installs raw bank contents (fuzz and corruption
// harnesses), bypassing the power cell. Every caller's journal is
// shard 0 of a one-shard store, so its bank is medium bank 0.
func (j *Journal) loadBank(words []uint16) {
	_ = j.r.Medium().Replace(0, append([]uint16(nil), words...))
}

// admSpec is one scripted admission for the crash-sweep harness.
type admSpec struct {
	node uint16
	seq  uint64
	val  int64
}

// sweepScript is a small deterministic admission schedule across three
// nodes with out-of-order arrivals, compacted every fourth admission —
// enough structure that a crash can land inside an intent, a record, a
// commit, or any word of a snapshot rewrite.
func sweepScript() []admSpec {
	return []admSpec{
		{1, 0, 100}, {2, 0, -7}, {1, 1, 101}, {3, 0, 42},
		{2, 2, -9}, {2, 1, -8}, {1, 2, 102}, {3, 1, 43},
		{1, 3, -103}, {3, 2, 44}, {2, 3, 1 << 40}, {1, 4, 104},
	}
}

// runSweepScript drives shard 0's journal through the script exactly
// the way handleLocked would: journal the admission, and only on
// success apply it to the mirror state (the set of admissions the
// collector would have ACKed). Every fourth ACKed admission triggers a
// compaction of the mirror, like the shard's CompactEvery. Returns the
// mirror of ACKed admissions; the power cell decides how far it gets.
func runSweepScript(s *Store) (*shardState, bool) {
	j := s.Shard(0)
	mirror := newShardState(0)
	if !j.seed() {
		// NewDurable would have errored out: the collector was never
		// born and owes nothing to anyone.
		return mirror, false
	}
	acked := 0
	for _, a := range sweepScript() {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			return mirror, true
		}
		mirror.admit(a.node, a.seq, a.val, 0)
		acked++
		if acked%4 == 0 {
			// A failed compaction is survivable by design: the old bank
			// stays whole, but the store is dead so later appends fail.
			j.compact(mirror.nodes, mirror.stores)
		}
	}
	return mirror, true
}

// requireStateEqual asserts the recovered shard state carries exactly
// the mirror's admissions and per-node last-ACK metadata.
func requireStateEqual(t testing.TB, w int, got, want *shardState) {
	t.Helper()
	count := func(st *shardState) int {
		n := 0
		for _, vs := range st.stores {
			n += vs.n
		}
		return n
	}
	if count(got) != count(want) {
		t.Fatalf("crash@%d: recovered %d admissions, ACKed %d", w, count(got), count(want))
	}
	for id, vs := range want.stores {
		rvs := got.stores[id]
		if rvs == nil {
			t.Fatalf("crash@%d: node %d lost entirely", w, id)
		}
		vs.forEach(func(seq uint64, v int64) {
			if !rvs.has(seq) {
				t.Fatalf("crash@%d: node %d seq %d ACKed but lost", w, id, seq)
			}
			if g := rvs.get(seq); g != v {
				t.Fatalf("crash@%d: node %d seq %d = %d, ACKed %d", w, id, seq, g, v)
			}
		})
	}
	for id, sn := range want.nodes {
		rn := got.nodes[id]
		if rn == nil {
			t.Fatalf("crash@%d: node %d metadata lost", w, id)
		}
		if rn.haveAck != sn.haveAck || rn.lastSeq != sn.lastSeq || rn.lastValue != sn.lastValue {
			t.Fatalf("crash@%d: node %d last-ACK cache %+v, want %+v", w, id, rn, sn)
		}
	}
}

// TestCheckpointCrashSweep kills the store power at every single word
// write of the scripted run — inside seeds, intents, records, commits,
// and snapshot rewrites alike — and asserts recovery reconstructs
// exactly the ACKed prefix: no admission the collector ACKed is lost,
// no torn admission is resurrected, and replay never mistakes a torn
// tail for corruption. The sweep itself is the shared
// nvmtest.CrashSweep property harness.
func TestCheckpointCrashSweep(t *testing.T) {
	nvmtest.CrashSweep(t, func(t testing.TB, pw *nvm.Power, cut int) {
		s := newStoreOn(nvm.NewMemMedium(1), pw, 1)
		mirror, seeded := runSweepScript(s)
		if cut < 0 {
			// Baseline pass: just sanity-check the script's word volume.
			if total := int(pw.Writes()); total < 16*len(sweepScript()) {
				t.Fatalf("suspiciously small baseline: %d words", total)
			}
			return
		}
		s.Revive()
		st, err := s.Shard(0).replay()
		if !seeded {
			// The crash landed inside the seed snapshot: NewDurable
			// reported failure and the collector never ran. The staged
			// seed never reached the medium, so the store is still blank
			// (a later NewDurable may seed it) and replay refuses it.
			if err == nil {
				t.Fatalf("crash@%d: replay accepted a journal whose seeding failed", cut)
			}
			if !s.Empty() {
				t.Fatalf("crash@%d: a cut seed left words on the medium", cut)
			}
			return
		}
		if err != nil {
			t.Fatalf("crash@%d: replay refused a pure torn tail: %v", cut, err)
		}
		requireStateEqual(t, cut, st, mirror)
	})
}

// TestCheckpointRecoverSurvivesReCrash re-runs the tail of the script
// on a journal that already crashed once and was recovered — the
// second crash must still recover to the combined ACKed set (recovery
// compacts, so the WAL tail from life one is folded into life two's
// snapshot).
func TestCheckpointRecoverSurvivesReCrash(t *testing.T) {
	script := sweepScript()
	s := NewStore(1)
	j := s.Shard(0)
	mirror := newShardState(0)
	if !j.seed() {
		t.Fatal("seed failed")
	}
	// Life one: first half, then crash mid-word of the next admission.
	for _, a := range script[:6] {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		mirror.admit(a.node, a.seq, a.val, 0)
	}
	s.FailAfterWrites(5)
	j.appendAdmission(script[6].node, script[6].seq, script[6].val, 0)

	// Recovery boundary: replay, then compact (what Recover does).
	s.Revive()
	st, err := j.replay()
	if err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, -1, st, mirror)
	if !j.compact(st.nodes, st.stores) {
		t.Fatal("recovery compaction failed with live power")
	}

	// Life two: the rest of the script, then a second crash and replay.
	for _, a := range script[6:] {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		mirror.admit(a.node, a.seq, a.val, 0)
	}
	s.FailAfterWrites(0)
	j.appendAdmission(99, 0, 1, 0)
	s.Revive()
	st2, err := j.replay()
	if err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, -2, st2, mirror)
	if st2.stores[99] != nil {
		t.Fatal("torn admission from life two resurrected")
	}
}

// TestCheckpointMidLogCorruptionRefused flips bits in the interior of
// a journal that has ACKed admissions and asserts replay fails closed
// with errCorruptCheckpoint — a silently shortened log would re-admit
// reports the collector already ACKed.
func TestCheckpointMidLogCorruptionRefused(t *testing.T) {
	// A journal with the empty seed snapshot followed by a 12-admission
	// WAL tail (no compaction): corruption semantics differ between the
	// snapshot region and the tail, and this layout exposes both.
	build := func(t *testing.T) *Journal {
		t.Helper()
		s := NewStore(1)
		j := s.Shard(0)
		if !j.seed() {
			t.Fatal("seed failed")
		}
		for _, a := range sweepScript() {
			if !j.appendAdmission(a.node, a.seq, a.val, 0) {
				t.Fatal("unexpected power loss")
			}
		}
		return j
	}

	t.Run("payload flip mid-log", func(t *testing.T) {
		j := build(t)
		bank := j.r.Words(0)
		bank[len(bank)/2] ^= 0x0040
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("mid-log flip: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("invalid tag mid-log", func(t *testing.T) {
		j := build(t)
		// The bank opens with the seed snapshot's snapBegin header;
		// stamp an unassigned tag on it.
		bank := j.r.Words(0)
		bank[0] = 0xF<<12 | bank[0]&0x0FFF
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("invalid tag: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("flip in final record reads as torn", func(t *testing.T) {
		// The bank's final record is the last admission's commit; a
		// flip there is indistinguishable from a torn write, and the
		// admission was never ACKed on (commit durability gates the
		// ACK), so replay accepts the log minus that admission.
		j := build(t)
		bank := j.r.Words(0)
		bank[len(bank)-1] ^= 1
		st, err := j.replay()
		if err != nil {
			t.Fatalf("final-record flip refused: %v", err)
		}
		last := sweepScript()[len(sweepScript())-1]
		if st.stores[last.node] != nil && st.stores[last.node].has(last.seq) {
			t.Fatal("admission with a damaged commit was resurrected")
		}
	})

	t.Run("truncated tail reads as torn", func(t *testing.T) {
		j := build(t)
		for cut := 1; cut <= 30; cut++ {
			j.loadBank(j.r.Words(0)[:j.bankLen()-1])
			if _, err := j.replay(); err != nil {
				t.Fatalf("cut %d words: %v", cut, err)
			}
		}
	})

	t.Run("snapshot never completed refused", func(t *testing.T) {
		// Truncating into the snapshot itself leaves a bank that never
		// proves it holds the full dedup state; a shard recovered from
		// it could re-admit ACKed reports, so replay refuses.
		j := build(t)
		j.loadBank(j.r.Words(0)[:8])
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("half snapshot: err = %v, want errCorruptCheckpoint", err)
		}
	})

	t.Run("emptied journal refused", func(t *testing.T) {
		// Bank erased: that is never a fresh boot (seed writes a gen-1
		// snapshot), so recovery must refuse rather than serve an empty
		// dedup state that would re-admit everything.
		j := build(t)
		j.r.Erase(0)
		if _, err := j.replay(); !errors.Is(err, errCorruptCheckpoint) {
			t.Fatalf("empty journal: err = %v, want errCorruptCheckpoint", err)
		}
	})
}

// seededSweep seeds j and journals the whole sweep script with live
// power, returning the mirror of its ACKed admissions.
func seededSweep(t *testing.T, j *Journal) *shardState {
	t.Helper()
	if !j.seed() {
		t.Fatal("seed failed")
	}
	mirror := newShardState(0)
	for _, a := range sweepScript() {
		if !j.appendAdmission(a.node, a.seq, a.val, 0) {
			t.Fatal("unexpected power loss")
		}
		mirror.admit(a.node, a.seq, a.val, 0)
	}
	return mirror
}

// sweepCompactionWords is how many words one compaction of the sweep
// script's state stages: the cut points the compaction-crash tests
// walk.
func sweepCompactionWords(t *testing.T) int {
	t.Helper()
	s := NewStore(1)
	mirror := seededSweep(t, s.Shard(0))
	pre := s.Writes()
	if !s.Shard(0).compact(mirror.nodes, mirror.stores) {
		t.Fatal("baseline compaction failed")
	}
	return int(s.Writes() - pre)
}

// TestCompactionCrashKeepsOldBank arms a power failure at every staged
// word of a compaction's snapshot rewrite in turn and asserts the bank
// still holds its old words, untouched, and recovers the full
// pre-compaction state each time.
func TestCompactionCrashKeepsOldBank(t *testing.T) {
	snapWords := sweepCompactionWords(t)
	for w := 0; w < snapWords; w++ {
		s := NewStore(1)
		j := s.Shard(0)
		mirror := seededSweep(t, j)
		old := append([]uint16(nil), j.r.Words(0)...)
		s.FailAfterWrites(w)
		if j.compact(mirror.nodes, mirror.stores) {
			t.Fatalf("crash@%d: compaction claimed success under dying power", w)
		}
		if !slices.Equal(j.r.Words(0), old) {
			t.Fatalf("crash@%d: a failed compaction touched the bank", w)
		}
		s.Revive()
		st, err := j.replay()
		if err != nil {
			t.Fatalf("crash@%d: old bank unrecoverable: %v", w, err)
		}
		requireStateEqual(t, w, st, mirror)
	}
}

// TestFileStoreCompactionCutReopen is the compaction cut on a
// file-backed store: for every staged word it cuts the compaction,
// closes the store as a killed process would, leaves a stale
// bank-0000.nvm.new behind (a kill between Replace's WriteFile and
// Rename), reopens, and recovers. Recovery must see exactly the
// pre-compaction state and ignore the stale file.
func TestFileStoreCompactionCutReopen(t *testing.T) {
	snapWords := sweepCompactionWords(t)
	dir := t.TempDir()
	s, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	mirror := seededSweep(t, s.Shard(0))
	for w := 0; w < snapWords; w++ {
		s.FailAfterWrites(w)
		if s.Shard(0).compact(mirror.nodes, mirror.stores) {
			t.Fatalf("crash@%d: compaction claimed success under dying power", w)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "bank-0000.nvm.new"), []byte{0xFF, 0xFF, 0x01}, 0o644); err != nil {
			t.Fatal(err)
		}
		// The shards argument loses to the one bank file on disk.
		if s, err = OpenStore(dir, 4); err != nil {
			t.Fatal(err)
		}
		if s.Shards() != 1 {
			t.Fatalf("crash@%d: reopened store has %d shards, want 1", w, s.Shards())
		}
		st, err := s.Shard(0).replay()
		if err != nil {
			t.Fatalf("crash@%d: reopened bank unrecoverable: %v", w, err)
		}
		requireStateEqual(t, w, st, mirror)
		c, err := Recover(Config{}, s)
		if err != nil {
			t.Fatalf("crash@%d: recover: %v", w, err)
		}
		c.Close()
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("crash@%d: directory holds %d files after recovery, want 1", w, len(ents))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenStore(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Shard(0).replay()
	if err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, snapWords, st, mirror)
}

// TestSnapshotWordsDeterministic compacts one 8-node state, far-spill
// values included, on fresh stores and requires identical words: a
// snapshot's record order must not follow Go map iteration, or replay
// traces of one run could not be compared word for word.
func TestSnapshotWordsDeterministic(t *testing.T) {
	st := newShardState(0)
	for i, id := range []uint16{42, 7, 65000, 1, 300, 9, 128, 3} {
		for k := 0; k < 6; k++ {
			seq := uint64(k*k + i)
			if k >= 4 {
				seq = denseLimit + uint64(1000*k+i)
			}
			st.admit(id, seq, int64(id)*int64(k+1)-50, uint16(k&1))
		}
		st.node(id).breaker = BreakerState(i % 3)
		st.node(id).consecFail = i
	}
	var first []uint16
	for run := 0; run < 8; run++ {
		j := NewStore(1).Shard(0)
		if !j.seed() || !j.compact(st.nodes, st.stores) {
			t.Fatal("compaction failed with live power")
		}
		if run == 0 {
			first = slices.Clone(j.r.Words(0))
			got, err := j.replay()
			if err != nil {
				t.Fatal(err)
			}
			requireStateEqual(t, -1, got, st)
			continue
		}
		if !slices.Equal(j.r.Words(0), first) {
			t.Fatalf("run %d: the same state compacted to different words", run)
		}
	}
}
