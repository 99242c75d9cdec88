package nvm

import (
	"slices"
	"sync/atomic"

	"ulpdp/internal/obs"
)

// Layout is a client's record dialect: its checksum salt and its
// tag → payload-length table. The wire format itself is fixed —
// hdr = tag<<12 | (seq & 0x0FFF), payload words, XOR checksum — only
// the salt and the tag space vary per client.
type Layout struct {
	// Salt is XORed into every record checksum (see SaltBudget /
	// SaltCheckpoint).
	Salt uint16
	// PayloadLen maps a tag to its payload word count, or -1 for an
	// unknown tag.
	PayloadLen func(tag uint16) int
}

// Checksum is the record checksum: XOR of the header and payload
// words, XOR the layout salt.
func Checksum(salt, hdr uint16, payload []uint16) uint16 {
	c := hdr ^ salt
	for _, w := range payload {
		c ^= w
	}
	return c
}

// Enc64 encodes a 64-bit value as 4 little-endian 16-bit words.
func Enc64(v int64) [4]uint16 {
	u := uint64(v)
	return [4]uint16{uint16(u), uint16(u >> 16), uint16(u >> 32), uint16(u >> 48)}
}

// Dec64 decodes 4 little-endian 16-bit words into a 64-bit value.
func Dec64(w []uint16) int64 {
	return int64(uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48)
}

// Region is one client's durable record log: a bank range of a
// Medium, a supply cell, a record layout, and the 12-bit wrapping
// record sequence the two-phase pairing rides on. All mutation
// happens under the owning client's lock (or single-threaded
// recovery); only the power cell and the compaction counter are
// shared-safe.
type Region struct {
	med  Medium
	pw   *Power
	lay  Layout
	base int // first medium bank owned by this region
	n    int // bank count
	seq  uint16

	// rec is Append's reused record buffer (hdr, payload, checksum),
	// backed by recBuf until a record outgrows it.
	rec    []uint16
	recBuf [maxInlineRecord]uint16

	// During Rewrite, appends to bank stageBank collect in stage
	// instead of reaching the medium.
	staging   bool
	stageBank int
	stage     []uint16

	compactions atomic.Uint64

	// Optional journal telemetry: bumped on durable TxnBegin/TxnCommit
	// so every two-phase client reports intents/commits from one place
	// instead of hand-counting at call sites. Nil when unbound: a nil
	// counter ignores Inc.
	intents *obs.Counter
	commits *obs.Counter
}

// maxInlineRecord is the record length (header, payload, checksum)
// Append assembles without a heap buffer: every budget-journal and
// checkpoint record fits.
const maxInlineRecord = 16

// NewRegion returns a region over all of med's banks.
func NewRegion(med Medium, pw *Power, lay Layout) *Region {
	return NewRegionBanks(med, pw, lay, 0, med.Banks())
}

// NewRegionBanks returns a region over n banks of med starting at
// base — how a multi-shard store carves one medium into per-shard
// regions (shard i owning bank i) that still share a single supply
// cell. Bank arguments to the region's methods are region-relative.
func NewRegionBanks(med Medium, pw *Power, lay Layout, base, n int) *Region {
	r := new(Region)
	r.Init(med, pw, lay, base, n)
	return r
}

// Init resets r to a fresh region over n banks of med starting at base,
// so a client can embed its region instead of allocating one.
func (r *Region) Init(med Medium, pw *Power, lay Layout, base, n int) {
	*r = Region{med: med, pw: pw, lay: lay, base: base, n: n}
	r.rec = r.recBuf[:0]
}

// Power returns the region's supply cell.
func (r *Region) Power() *Power { return r.pw }

// Medium returns the underlying medium (lifecycle: Close).
func (r *Region) Medium() Medium { return r.med }

// Seq returns the record sequence counter.
func (r *Region) Seq() uint16 { return r.seq }

// SetSeq resets the record sequence counter (compaction restart).
func (r *Region) SetSeq(s uint16) { r.seq = s }

// Len returns bank b's durable word count.
func (r *Region) Len(b int) int { return r.med.Len(r.base + b) }

// Words returns bank b's durable words (aliasing the medium; see
// Medium.Words).
func (r *Region) Words(b int) []uint16 { return r.med.Words(r.base + b) }

// Erase clears bank b. False means the medium failed: like Append
// and Rewrite, a medium failure kills the cell (fail closed).
func (r *Region) Erase(b int) bool {
	if r.med.Erase(r.base+b) != nil {
		r.pw.Kill()
		return false
	}
	return true
}

// Rewrite replaces bank b with the records fn appends, in one step:
// fn's records pass the power cell as usual but collect in a staging
// copy, and only when fn reports success does the medium swap them in
// (Medium.Replace). A power loss inside fn, or a process killed at any
// point, leaves the old bank whole for the next recovery to replay.
// Rewrite is every client's compaction, so a successful one counts in
// Stats.Compactions.
func (r *Region) Rewrite(b int, fn func() bool) bool {
	// A compacted log is usually about as long as the one it replaces.
	r.staging, r.stageBank, r.stage = true, b, slices.Grow(r.stage[:0], r.Len(b))
	ok := fn()
	r.staging = false
	if !ok {
		return false
	}
	if r.med.Replace(r.base+b, r.stage) != nil {
		r.pw.Kill()
		return false
	}
	r.compactions.Add(1)
	return true
}

// Append writes one record — header, payload, checksum — into bank
// b. The record asks the power cell for all its words at once and
// lands the granted prefix with one medium append (or into the
// Rewrite stage). False means power failed partway: the granted
// prefix is the durable torn tail and the region is dead; a medium
// failure kills the cell (fail closed).
func (r *Region) Append(b int, tag uint16, payload []uint16) bool {
	hdr := tag<<12 | (r.seq & 0x0FFF)
	r.seq++
	rec := append(r.rec[:0], hdr)
	rec = append(rec, payload...)
	rec = append(rec, Checksum(r.lay.Salt, hdr, payload))
	r.rec = rec
	g := r.pw.Allow(len(rec))
	if g == 0 {
		return false
	}
	if r.staging && b == r.stageBank {
		r.stage = append(r.stage, rec[:g]...)
	} else if r.med.Append(r.base+b, rec[:g]...) != nil {
		r.pw.Kill()
		return false
	}
	return g == len(rec)
}

// TxnBegin opens a two-phase transaction: it notes the pairing
// sequence, writes the intent record, and returns the pairing value
// for TxnCommit. Records appended between begin and commit ride
// inside the transaction — replay applies them only if the matching
// commit is durable.
func (r *Region) TxnBegin(b int, tag uint16, payload []uint16) (pair uint16, ok bool) {
	pair = r.seq
	if !r.Append(b, tag, payload) {
		return pair, false
	}
	r.intents.Inc()
	return pair, true
}

// TxnCommit seals a transaction: the commit record reuses the
// intent's sequence number so replay can pair them. Only after it
// returns true is the transaction durable.
func (r *Region) TxnCommit(b int, tag uint16, pair uint16) bool {
	r.seq = pair
	if !r.Append(b, tag, nil) {
		return false
	}
	r.commits.Inc()
	return true
}

// BindCounters attaches (or detaches, with nils) the journal
// intent/commit telemetry counters.
func (r *Region) BindCounters(intents, commits *obs.Counter) {
	r.intents, r.commits = intents, commits
}

// Counters returns the bound telemetry counters (nil when unbound),
// so a client can suspend them across a recovery-time rewrite.
func (r *Region) Counters() (intents, commits *obs.Counter) {
	return r.intents, r.commits
}

// Stats returns the region's introspection surface.
func (r *Region) Stats() Stats {
	words := 0
	for b := 0; b < r.n; b++ {
		words += r.med.Len(r.base + b)
	}
	return Stats{
		Words:       words,
		Banks:       r.n,
		Writes:      r.pw.Writes(),
		Compactions: r.compactions.Load(),
		FailClosed:  r.pw.Dead(),
	}
}

// ScanStatus classifies one Scanner step. Clients map statuses to
// their own recovery policy: the budget journal treats anything but
// ScanRecord as end-of-log (lenient — its log is single-writer and
// short), the collector refuses ScanBadTag/ScanBadSumMid fail-closed
// (a silently shortened log would re-admit ACKed reports) while
// accepting ScanTorn/ScanBadSumTail as the torn tail the protocol is
// designed around.
type ScanStatus int

const (
	// ScanRecord: a complete, checksum-valid record was parsed.
	ScanRecord ScanStatus = iota
	// ScanEnd: the log's words are exhausted.
	ScanEnd
	// ScanTorn: the final record is truncated mid-write.
	ScanTorn
	// ScanBadTag: the header names a tag outside the layout.
	ScanBadTag
	// ScanBadSumTail: checksum mismatch on a record whose words all
	// fit exactly at the end of the log — a flip in the final record
	// and a torn write at the checksum word are indistinguishable.
	ScanBadSumTail
	// ScanBadSumMid: checksum mismatch with more log after it — not
	// explainable as a torn tail; mid-log corruption.
	ScanBadSumMid
)

// Scanner walks a word stream record by record. It never advances
// past a non-ScanRecord status, never panics on arbitrary input, and
// is deterministic — the FuzzNVMRecordCodec contract.
type Scanner struct {
	lay Layout
	w   []uint16
	i   int
}

// NewScanner returns a scanner over words with the given layout.
func NewScanner(lay Layout, words []uint16) *Scanner {
	return &Scanner{lay: lay, w: words}
}

// Offset returns the word index of the next unparsed record.
func (s *Scanner) Offset() int { return s.i }

// Next parses the next record. tag is valid for every status except
// ScanEnd (error paths report it); seq and payload only for
// ScanRecord and the checksum-mismatch statuses.
func (s *Scanner) Next() (tag, seq uint16, payload []uint16, status ScanStatus) {
	if s.i >= len(s.w) {
		return 0, 0, nil, ScanEnd
	}
	hdr := s.w[s.i]
	tag, seq = hdr>>12, hdr&0x0FFF
	n := s.lay.PayloadLen(tag)
	if n < 0 {
		return tag, seq, nil, ScanBadTag
	}
	if s.i+1+n+1 > len(s.w) {
		return tag, seq, nil, ScanTorn
	}
	payload = s.w[s.i+1 : s.i+1+n]
	if s.w[s.i+1+n] != Checksum(s.lay.Salt, hdr, payload) {
		if s.i+1+n+1 == len(s.w) {
			return tag, seq, payload, ScanBadSumTail
		}
		return tag, seq, payload, ScanBadSumMid
	}
	s.i += 1 + n + 1
	return tag, seq, payload, ScanRecord
}
