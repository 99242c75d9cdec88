package collector

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ulpdp/internal/nvm"
)

// This file is the collector's crash-consistency plane: a per-shard
// durable checkpoint/WAL built on the shared internal/nvm engine (the
// same 16-bit-word media model as the DP-Box budget journal), plus
// the replay and compaction machinery Collector.Recover builds on.
//
// Each shard owns one Journal. An admission — the first time a shard
// records a (node, seq, value) — is journaled with the two-phase
// protocol before the report is applied to memory or ACKed:
//
//	intent   node + report seq     "I am about to admit (node, seq)"
//	record   value + flags         the value being bound to it
//	commit   no payload            seals the admission
//
// The three records share a 12-bit pairing sequence number; replay
// applies an admission only when all three are durable in order. The
// ACK is sent only after the commit word lands, so "the agent saw an
// ACK" implies "the admission survives any collector crash" — the
// exactly-once contract now holds across collector restarts, not just
// node crashes and lossy links.
//
// Each Journal is one bank. It opens with a generation-tagged snapshot
// (snapBegin gen … snapEnd gen) of every node's valueStore bitmap +
// values + breaker state, followed by the admissions since.
// Compaction writes gen+1's snapshot through nvm.Region.Rewrite, the
// compaction the DP-Box journal uses too: the snapshot is staged, and
// only once its snapEnd has passed the power cell does one atomic
// Medium.Replace swap it in, so a crash at any staged word leaves the
// old bank whole and loses nothing. Recovery replays the bank's
// snapshot plus its admission tail (a torn tail record is
// indistinguishable from "never written" and is dropped — it was
// never ACKed), and refuses the shard outright on mid-log corruption,
// an invalid tag, or a bank with no complete snapshot: fail closed,
// like budget.Bank on a dead journal, because a silently shortened
// log would re-admit (double-count) replays of reports it had already
// ACKed.

// journal record tags (the collector's own tag space; the format
// mirrors dpbox: hdr = tag<<12 | seq, payload words, xor checksum
// salted nvm.SaltCheckpoint).
const (
	ckTagSnapBegin = 1 // payload gen(4)
	ckTagSnapNode  = 2 // payload node(1) breaker(1) stateFlags(1) consecFail(1) openLeft(1) lastSeq(4) lastValue(4)
	ckTagSnapVal   = 3 // payload node(1) seq(4) value(4)
	ckTagSnapEnd   = 4 // payload gen(4)
	ckTagIntent    = 5 // payload node(1) seq(4)
	ckTagRecord    = 6 // payload value(4) flags(1)
	ckTagCommit    = 7 // no payload
)

// snapshot stateFlags bits (ckTagSnapNode).
const (
	snapFlagHaveAck   = 1 << 0
	snapFlagExhausted = 1 << 1
)

// admission flags bits (ckTagRecord): the transport report flags the
// shard's last-ACK cache depends on.
const admFlagFromCache = 1 << 0

// ckPayloadLen returns the payload word count for a tag, or -1 for an
// unknown tag (which recovery treats as corruption, not truncation).
func ckPayloadLen(tag uint16) int {
	switch tag {
	case ckTagSnapBegin, ckTagSnapEnd:
		return 4
	case ckTagSnapNode:
		return 13
	case ckTagSnapVal:
		return 9
	case ckTagIntent:
		return 5
	case ckTagRecord:
		return 5
	case ckTagCommit:
		return 0
	}
	return -1
}

// ckLayout is the checkpoint store's record dialect over the shared
// engine.
func ckLayout() nvm.Layout {
	return nvm.Layout{Salt: nvm.SaltCheckpoint, PayloadLen: ckPayloadLen}
}

// admissionWords is the durable cost of one admission: intent
// (hdr+5+chk) + record (hdr+5+chk) + commit (hdr+chk).
const admissionWords = 7 + 7 + 2

// Journal is one shard's durable checkpoint region: one bank of the
// store's medium and the generation of the snapshot it opens with.
// All mutation happens under the owning shard's lock (or
// single-threaded recovery); only the power cell is shared.
type Journal struct {
	r   *nvm.Region
	gen int64
	// ids and far are writeSnapshot's reused sort buffers.
	ids []uint16
	far []uint64
}

// newJournal carves shard i's bank out of the store medium.
func newJournal(med nvm.Medium, pw *nvm.Power, i int) *Journal {
	return &Journal{r: nvm.NewRegionBanks(med, pw, ckLayout(), i, 1)}
}

// appendRecord writes one record to the bank. False means power
// failed partway: the tail is torn and the store dead.
func (j *Journal) appendRecord(tag uint16, payload []uint16) bool {
	return j.r.Append(0, tag, payload)
}

// appendAdmission runs the two-phase admission protocol: intent,
// record, commit, all sharing one pairing sequence. Only after it
// returns true may the shard apply the admission and queue the ACK.
func (j *Journal) appendAdmission(node uint16, seq uint64, value int64, flags uint16) bool {
	s := nvm.Enc64(int64(seq))
	pair, ok := j.r.TxnBegin(0, ckTagIntent, []uint16{node, s[0], s[1], s[2], s[3]})
	if !ok {
		return false
	}
	v := nvm.Enc64(value)
	if !j.appendRecord(ckTagRecord, []uint16{v[0], v[1], v[2], v[3], flags}) {
		return false
	}
	return j.r.TxnCommit(0, ckTagCommit, pair)
}

// bankLen returns the bank's durable word count (checkpoint-bytes
// accounting after a compaction).
func (j *Journal) bankLen() int { return j.r.Len(0) }

// snapNode is one node's checkpointed metadata (everything a NodeView
// needs beyond the valueStore itself).
type snapNode struct {
	breaker    BreakerState
	consecFail int
	openLeft   int
	haveAck    bool
	exhausted  bool
	lastSeq    uint64
	lastValue  int64
}

// shardState is one shard's durable state as reconstructed by replay.
type shardState struct {
	gen    int64
	nodes  map[uint16]*snapNode
	stores map[uint16]*valueStore
	// replayed counts admissions applied from the WAL tail (after the
	// snapshot) — the "work redone" recovery metric.
	replayed int
}

func newShardState(gen int64) *shardState {
	return &shardState{
		gen:    gen,
		nodes:  make(map[uint16]*snapNode),
		stores: make(map[uint16]*valueStore),
	}
}

func (st *shardState) node(id uint16) *snapNode {
	n := st.nodes[id]
	if n == nil {
		n = &snapNode{}
		st.nodes[id] = n
	}
	return n
}

func (st *shardState) store(id uint16) *valueStore {
	vs := st.stores[id]
	if vs == nil {
		vs = &valueStore{}
		st.stores[id] = vs
	}
	return vs
}

// admit applies one committed (node, seq, value, flags) admission to
// the replayed state, using the same last-ACK rule as handleLocked so
// the recovered NodeView is bit-exact.
func (st *shardState) admit(nodeID uint16, seq uint64, value int64, flags uint16) {
	vs := st.store(nodeID)
	if !vs.has(seq) {
		vs.put(seq, value)
	}
	n := st.node(nodeID)
	if !n.haveAck || seq >= n.lastSeq {
		n.haveAck = true
		n.lastSeq = seq
		n.lastValue = vs.get(seq)
		n.exhausted = flags&admFlagFromCache != 0
	}
}

// errCorruptCheckpoint marks a shard journal recovery refused
// fail-closed: the log is damaged in a way a torn tail cannot
// explain, so replaying a prefix could silently re-open (node, seq)
// slots the collector already ACKed.
var errCorruptCheckpoint = errors.New("collector: corrupt shard checkpoint")

// replay rebuilds the shard's durable state from its bank: the
// snapshot, then the admission tail. A record truncated at the very
// end of the bank is a torn write and ends the scan; a checksum
// failure or invalid tag with the full record present — or any
// structurally impossible sequence — is corruption, and so is a bank
// without a complete snapshot (seed writes one before any admission,
// and compaction swaps a new one in whole).
func (j *Journal) replay() (*shardState, error) {
	var st *shardState
	var pendNode uint16
	var pendSeq uint64
	var pendPair uint16
	var pendValue int64
	var pendFlags uint16
	pendStage := 0 // 0 idle, 1 intent seen, 2 record seen
	inSnap := false
	snapDone := false
	sc := nvm.NewScanner(ckLayout(), j.r.Words(0))
scan:
	for {
		tag, pair, payload, status := sc.Next()
		switch status {
		case nvm.ScanRecord:
		case nvm.ScanEnd, nvm.ScanTorn, nvm.ScanBadSumTail:
			// A torn final record never finished (a flip there is
			// indistinguishable from a torn checksum word), and commit
			// durability gates the ACK, so dropping it is the safe
			// reading.
			break scan
		case nvm.ScanBadTag:
			return nil, fmt.Errorf("%w: invalid tag %d", errCorruptCheckpoint, tag)
		case nvm.ScanBadSumMid:
			return nil, fmt.Errorf("%w: checksum mismatch mid-log", errCorruptCheckpoint)
		}
		switch tag {
		case ckTagSnapBegin:
			if st != nil {
				return nil, fmt.Errorf("%w: second snapshot in one bank", errCorruptCheckpoint)
			}
			st = newShardState(nvm.Dec64(payload))
			inSnap = true
		case ckTagSnapNode:
			if !inSnap {
				return nil, fmt.Errorf("%w: snapshot node record outside a snapshot", errCorruptCheckpoint)
			}
			sn := st.node(payload[0])
			sn.breaker = BreakerState(payload[1])
			if sn.breaker > BreakerHalfOpen {
				return nil, fmt.Errorf("%w: breaker state %d", errCorruptCheckpoint, payload[1])
			}
			sn.haveAck = payload[2]&snapFlagHaveAck != 0
			sn.exhausted = payload[2]&snapFlagExhausted != 0
			sn.consecFail = int(payload[3])
			sn.openLeft = int(payload[4])
			sn.lastSeq = uint64(nvm.Dec64(payload[5:9]))
			sn.lastValue = nvm.Dec64(payload[9:13])
		case ckTagSnapVal:
			if !inSnap {
				return nil, fmt.Errorf("%w: snapshot value record outside a snapshot", errCorruptCheckpoint)
			}
			vs := st.store(payload[0])
			seq := uint64(nvm.Dec64(payload[1:5]))
			if vs.has(seq) {
				return nil, fmt.Errorf("%w: duplicate snapshot value", errCorruptCheckpoint)
			}
			vs.put(seq, nvm.Dec64(payload[5:9]))
		case ckTagSnapEnd:
			if !inSnap || nvm.Dec64(payload) != st.gen {
				return nil, fmt.Errorf("%w: unmatched snapshot end", errCorruptCheckpoint)
			}
			inSnap, snapDone = false, true
		case ckTagIntent:
			if !snapDone {
				return nil, fmt.Errorf("%w: admission before snapshot", errCorruptCheckpoint)
			}
			pendStage, pendPair = 1, pair
			pendNode = payload[0]
			pendSeq = uint64(nvm.Dec64(payload[1:5]))
		case ckTagRecord:
			if pendStage != 1 {
				return nil, fmt.Errorf("%w: record without intent", errCorruptCheckpoint)
			}
			pendStage = 2
			pendValue = nvm.Dec64(payload[0:4])
			pendFlags = payload[4]
		case ckTagCommit:
			if pendStage == 2 && pair == pendPair {
				st.admit(pendNode, pendSeq, pendValue, pendFlags)
				st.replayed++
			}
			pendStage = 0
		}
	}
	if !snapDone {
		return nil, fmt.Errorf("%w: no complete snapshot", errCorruptCheckpoint)
	}
	j.gen = st.gen
	return st, nil
}

// sortedKeys refills buf with m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](buf []K, m map[K]V) []K {
	buf = slices.Grow(buf[:0], len(m))
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// writeSnapshot appends a complete gen-tagged snapshot of state to
// the bank. Nodes go out in ascending id and each node's values in
// ascending seq, so one state always snapshots to the same words.
func (j *Journal) writeSnapshot(gen int64, nodes map[uint16]*snapNode, stores map[uint16]*valueStore) bool {
	g := nvm.Enc64(gen)
	if !j.appendRecord(ckTagSnapBegin, []uint16{g[0], g[1], g[2], g[3]}) {
		return false
	}
	j.ids = sortedKeys(j.ids, nodes)
	for _, id := range j.ids {
		sn := nodes[id]
		var flags uint16
		if sn.haveAck {
			flags |= snapFlagHaveAck
		}
		if sn.exhausted {
			flags |= snapFlagExhausted
		}
		ls, lv := nvm.Enc64(int64(sn.lastSeq)), nvm.Enc64(sn.lastValue)
		if !j.appendRecord(ckTagSnapNode, []uint16{
			id, uint16(sn.breaker), flags, uint16(sn.consecFail), uint16(sn.openLeft),
			ls[0], ls[1], ls[2], ls[3], lv[0], lv[1], lv[2], lv[3],
		}) {
			return false
		}
	}
	j.ids = sortedKeys(j.ids, stores)
	for _, id := range j.ids {
		if !j.writeValues(id, stores[id]) {
			return false
		}
	}
	return j.appendRecord(ckTagSnapEnd, []uint16{g[0], g[1], g[2], g[3]})
}

// writeValues appends one node's snapshot values in ascending seq:
// the dense window, then the far spill.
func (j *Journal) writeValues(id uint16, vs *valueStore) bool {
	ok := true
	emit := func(seq uint64, v int64) {
		if !ok {
			return
		}
		s, val := nvm.Enc64(int64(seq)), nvm.Enc64(v)
		ok = j.appendRecord(ckTagSnapVal, []uint16{id, s[0], s[1], s[2], s[3], val[0], val[1], val[2], val[3]})
	}
	vs.forEachDense(emit)
	j.far = sortedKeys(j.far, vs.far)
	for _, seq := range j.far {
		emit(seq, vs.far[seq])
	}
	return ok
}

// compact rewrites the bank as the next generation's snapshot through
// nvm.Region.Rewrite. A power failure mid-snapshot leaves the old bank
// whole; nothing is lost, and the next compaction attempt (or
// recovery) simply retries. It reports whether the new bank landed.
func (j *Journal) compact(nodes map[uint16]*snapNode, stores map[uint16]*valueStore) bool {
	if !j.r.Rewrite(0, func() bool { return j.writeSnapshot(j.gen+1, nodes, stores) }) {
		return false
	}
	j.gen++
	return true
}

// seed initializes a fresh journal (generation 0) as the
// generation-1 compaction of the empty state, so "no complete
// snapshot" is always corruption, never a fresh boot.
func (j *Journal) seed() bool { return j.compact(nil, nil) }

// Store is a collector's durable checkpoint region: one Journal per
// ingest shard, each one bank of a single medium and powered by a single
// supply (a collector crash is one event, not per-shard). Pass it to
// New for a fresh collector or Recover after a crash; a Store
// outlives the Collector instances built on it, exactly as the DP-Box
// journal outlives the box.
type Store struct {
	pw     *nvm.Power
	med    nvm.Medium
	shards []*Journal
}

// clampShards mirrors Config.Shards' clamp.
func clampShards(shards int) int {
	if shards <= 0 {
		shards = 8
	}
	if shards > 1024 {
		shards = 1024
	}
	return shards
}

// NewStore builds an empty in-memory checkpoint store for the given
// shard count (clamped like Config.Shards).
func NewStore(shards int) *Store {
	shards = clampShards(shards)
	return newStoreOn(nvm.NewMemMedium(shards), nvm.NewPower(), shards)
}

// OpenStore opens (or creates) a file-backed checkpoint store under
// dir, one bank file per shard. When the directory already holds bank
// files their count wins over the shards argument — the store's geometry is part of its
// durable state, and recovering with a different shard count would
// strand checkpoints.
func OpenStore(dir string, shards int) (*Store, error) {
	shards = clampShards(shards)
	if n := nvm.CountFileBanks(dir); n > 0 {
		shards = n
	}
	med, err := nvm.OpenFileMedium(dir, shards)
	if err != nil {
		return nil, err
	}
	return newStoreOn(med, nvm.NewPower(), shards), nil
}

// newStoreOn assembles a store over an explicit medium and supply
// cell (crash sweeps arm the cell before the store exists).
func newStoreOn(med nvm.Medium, pw *nvm.Power, shards int) *Store {
	s := &Store{pw: pw, med: med, shards: make([]*Journal, shards)}
	for i := range s.shards {
		s.shards[i] = newJournal(med, pw, i)
	}
	return s
}

// Close releases the store's medium (file handles; a no-op for the
// in-memory medium).
func (s *Store) Close() error { return s.med.Close() }

// Shards returns the store's shard count; a Collector using the store
// always runs exactly this many ingest shards.
func (s *Store) Shards() int { return len(s.shards) }

// Shard returns shard i's journal (test introspection and fault
// injection).
func (s *Store) Shard(i int) *Journal { return s.shards[i] }

// FailAfterWrites schedules a store-wide power failure after n more
// successful word writes, across all shards (n = 0 kills the next
// write). Pass a negative n to disarm.
func (s *Store) FailAfterWrites(n int) { s.pw.FailAfterWrites(n) }

// Kill drops NVM power immediately; all further writes fail and every
// shard of the collector fails closed.
func (s *Store) Kill() { s.pw.Kill() }

// Dead reports whether the store has lost power.
func (s *Store) Dead() bool { return s.pw.Dead() }

// Revive restores power (the restart's secure boot) and disarms any
// scheduled failure. Call it before Recover.
func (s *Store) Revive() { s.pw.Revive() }

// Writes returns the total durable word count across every shard and
// bank — the crash-sweep axis ("fail after the w-th word write").
func (s *Store) Writes() uint64 { return s.pw.Writes() }

// Empty reports whether no shard holds any durable words — a store
// that has never been seeded. NewDurable requires an empty store;
// callers opening a file-backed store (fleet restart) branch on this
// to choose between NewDurable and Recover.
func (s *Store) Empty() bool {
	for b := 0; b < s.med.Banks(); b++ {
		if s.med.Len(b) != 0 {
			return false
		}
	}
	return true
}
