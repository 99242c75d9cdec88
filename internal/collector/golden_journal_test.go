package collector

import (
	"math/rand"
	"testing"
)

// This file pins the checkpoint store's on-media word format across
// the internal/nvm refactor: legacyCkJournal is a frozen, verbatim
// copy of the pre-refactor write path (put/appendRecord/
// appendAdmission/writeSnapshot/compact/seed as they stood when the
// format was introduced, double bank included; only the type of the
// state writeSnapshot reads has since become the collector's node
// table, every word it emits unchanged), and the differential
// tests drive it in lockstep with the real Journal over seeded
// admission sequences, asserting that the journal's one bank is
// bit-identical to the legacy live bank. Snapshot-bearing scripts use
// a single node: the legacy writeSnapshot iterates Go maps, whose
// order is deterministic only with one entry. The frozen fingerprint
// at the bottom backstops a simultaneous edit of both encoders.

type legacyCkJournal struct {
	banks [2][]uint16
	live  int
	gen   int64
	seq   uint16
}

func legacyCkChecksum(hdr uint16, payload []uint16) uint16 {
	c := hdr ^ uint16(0xC011)
	for _, w := range payload {
		c ^= w
	}
	return c
}

func legacyCkEnc64(v int64) [4]uint16 {
	u := uint64(v)
	return [4]uint16{uint16(u), uint16(u >> 16), uint16(u >> 32), uint16(u >> 48)}
}

func (j *legacyCkJournal) put(b int, w uint16) { j.banks[b] = append(j.banks[b], w) }

func (j *legacyCkJournal) appendRecord(b int, tag uint16, payload []uint16) {
	hdr := tag<<12 | (j.seq & 0x0FFF)
	j.seq++
	j.put(b, hdr)
	for _, w := range payload {
		j.put(b, w)
	}
	j.put(b, legacyCkChecksum(hdr, payload))
}

func (j *legacyCkJournal) appendAdmission(node uint16, seq uint64, value int64, flags uint16) {
	s := legacyCkEnc64(int64(seq))
	pair := j.seq
	j.appendRecord(j.live, ckTagIntent, []uint16{node, s[0], s[1], s[2], s[3]})
	v := legacyCkEnc64(value)
	j.appendRecord(j.live, ckTagRecord, []uint16{v[0], v[1], v[2], v[3], flags})
	j.seq = pair
	j.appendRecord(j.live, ckTagCommit, nil)
}

func (j *legacyCkJournal) writeSnapshot(b int, gen int64, nodes nodeTable) {
	g := legacyCkEnc64(gen)
	j.appendRecord(b, ckTagSnapBegin, []uint16{g[0], g[1], g[2], g[3]})
	for nid, sn := range nodes {
		id := uint16(nid)
		var flags uint16
		if sn.haveAck {
			flags |= snapFlagHaveAck
		}
		if sn.exhausted {
			flags |= snapFlagExhausted
		}
		ls, lv := legacyCkEnc64(int64(sn.lastSeq)), legacyCkEnc64(sn.lastValue)
		j.appendRecord(b, ckTagSnapNode, []uint16{
			id, uint16(sn.breaker), flags, uint16(sn.consecFail), uint16(sn.openLeft),
			ls[0], ls[1], ls[2], ls[3], lv[0], lv[1], lv[2], lv[3],
		})
	}
	for nid, ns := range nodes {
		id, vs := uint16(nid), &ns.store
		vs.forEach(func(seq uint64, v int64) {
			s, val := legacyCkEnc64(int64(seq)), legacyCkEnc64(v)
			j.appendRecord(b, ckTagSnapVal, []uint16{id, s[0], s[1], s[2], s[3], val[0], val[1], val[2], val[3]})
		})
	}
	j.appendRecord(b, ckTagSnapEnd, []uint16{g[0], g[1], g[2], g[3]})
}

func (j *legacyCkJournal) compact(nodes nodeTable) {
	idle := 1 - j.live
	j.banks[idle] = j.banks[idle][:0]
	j.writeSnapshot(idle, j.gen+1, nodes)
	j.gen++
	j.live = idle
	j.banks[1-idle] = j.banks[1-idle][:0]
}

func (j *legacyCkJournal) seed() {
	j.gen = 1
	j.live = 0
	j.writeSnapshot(0, 1, nil)
}

// requireBanksEqual asserts that the journal's one bank holds exactly
// the legacy live bank's words and that the legacy idle bank is empty
// (a finished legacy compaction erased it), so the single bank drops
// nothing the legacy format kept.
func requireBanksEqual(t *testing.T, step string, j *Journal, ref *legacyCkJournal) {
	t.Helper()
	if n := len(ref.banks[1-ref.live]); n != 0 {
		t.Fatalf("%s: legacy idle bank holds %d words", step, n)
	}
	got, want := j.r.Words(0), ref.banks[ref.live]
	if len(got) != len(want) {
		t.Fatalf("%s: bank length %d, legacy %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#04x, legacy %#04x", step, i, got[i], want[i])
		}
	}
}

// TestCheckpointGoldenWordStream drives the refactored journal and
// the frozen legacy encoder through seeded multi-node admission
// streams (no snapshots: admissions are the hot path and fully
// order-deterministic) and requires bit-identical banks after every
// admission.
func TestCheckpointGoldenWordStream(t *testing.T) {
	for _, seed := range []int64{2, 11, 20260807} {
		rng := rand.New(rand.NewSource(seed))
		j := NewStore(1).Shard(0)
		ref := &legacyCkJournal{}
		if !j.seed() {
			t.Fatal("seed failed")
		}
		ref.seed()
		requireBanksEqual(t, "seed", j, ref)
		next := map[uint16]uint64{}
		for op := 0; op < 300; op++ {
			node := uint16(1 + rng.Intn(4))
			seq := next[node]
			if rng.Intn(4) != 0 {
				next[node]++
			}
			v := rng.Int63() - rng.Int63()
			flags := uint16(rng.Intn(2))
			if !j.appendAdmission(node, seq, v, flags) {
				t.Fatal("unexpected power loss")
			}
			ref.appendAdmission(node, seq, v, flags)
			requireBanksEqual(t, "admission", j, ref)
		}
	}
}

// TestCheckpointGoldenCompaction pins the snapshot/compaction word
// stream with a single-node state (map iteration order cannot vary
// with one entry), generation tags included: each single-bank
// compaction must equal the legacy encoder's flip to its idle bank.
func TestCheckpointGoldenCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	j := NewStore(1).Shard(0)
	ref := &legacyCkJournal{}
	if !j.seed() {
		t.Fatal("seed failed")
	}
	ref.seed()
	st := nodeTable{}
	for seq := uint64(0); seq < 40; seq++ {
		v := rng.Int63n(1 << 32)
		if !j.appendAdmission(9, seq, v, 0) {
			t.Fatal("unexpected power loss")
		}
		ref.appendAdmission(9, seq, v, 0)
		mirrorAdmit(st, 9, seq, v, 0)
		if seq%8 == 7 {
			if !j.compact(st) {
				t.Fatal("compaction failed")
			}
			ref.compact(st)
		}
		requireBanksEqual(t, "compaction", j, ref)
	}
}

// canonicalCheckpointScript drives a fresh journal through the frozen
// single-node script: seed, admissions (out of order, mixed flags), a
// compaction, admissions including a far-spill seq, a second
// compaction, then a WAL tail.
func canonicalCheckpointScript(t *testing.T, j *Journal) {
	t.Helper()
	st := nodeTable{}
	admit := func(seq uint64, v int64, flags uint16) {
		if !j.appendAdmission(9, seq, v, flags) {
			t.Fatal("unexpected power loss")
		}
		mirrorAdmit(st, 9, seq, v, flags)
	}
	compact := func() {
		if !j.compact(st) {
			t.Fatal("compaction failed")
		}
	}
	if !j.seed() {
		t.Fatal("seed failed")
	}
	admit(0, 100, 0)
	admit(2, -7, admFlagFromCache)
	admit(1, 1<<40, 0)
	admit(3, -1<<33, 0)
	compact()
	admit(denseLimit+5, 77, admFlagFromCache)
	admit(5, 0, 0)
	admit(4, 12345, 0)
	compact()
	admit(6, -1, 0)
	admit(8, 42, admFlagFromCache)
}

// goldenCheckpointFingerprint is the FNV-1a fingerprint of the bank
// the canonical script leaves, frozen when it was taken from the
// double-banked encoder's live bank. It must never change: a new
// value here means the on-media format moved and every deployed
// checkpoint store just became unreadable.
const goldenCheckpointFingerprint uint64 = 0x3b7c4c2249b4314d

// TestCheckpointGoldenFingerprint runs the canonical script and checks
// the bank's words against the frozen fingerprint.
func TestCheckpointGoldenFingerprint(t *testing.T) {
	j := NewStore(1).Shard(0)
	canonicalCheckpointScript(t, j)
	var h uint64 = 0xcbf29ce484222325
	for _, w := range j.r.Words(0) {
		for _, b := range []byte{byte(w), byte(w >> 8)} {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
	}
	if h != goldenCheckpointFingerprint {
		t.Fatalf("canonical bank fingerprint %#x, frozen %#x — the on-media format changed", h, goldenCheckpointFingerprint)
	}
}
