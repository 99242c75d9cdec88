// Package nvm is the shared word-granular non-volatile storage engine
// under every durable region in the repo: the DP-Box budget/release
// journal (internal/dpbox) and the collector's per-shard checkpoint
// store (internal/collector) are both thin clients of this package.
//
// The media model is the paper's: an append-only NVM region written
// one 16-bit word at a time, where power can fail between any two
// word writes. A record whose tail never landed ("torn") must be
// indistinguishable from a record that was never written — that
// atomicity, plus the two-phase intent→commit protocol layered on
// top, is what lets a client replay a power-loss trace at any cut
// point without double-spending budget or re-admitting an
// already-acknowledged report.
//
// The engine splits into three pieces:
//
//   - Medium: raw word banks (append/read/erase). MemMedium is the
//     simulated in-RAM array every test sweeps; FileMedium persists
//     each bank to a file with write-through record durability so a
//     killed-and-restarted process recovers real state.
//   - Power: the shared supply cell. One cell powers every bank of a
//     region (a crash is one event); writes fail closed once the cell
//     dies, and a scheduled FailAfterWrites drives the torn-write
//     sweeps.
//   - Region: the record codec (hdr tag<<12|seq, tag-dependent
//     payload, XOR checksum with a per-client salt), the two-phase
//     transaction helpers, the replay Scanner, and Rewrite, the one
//     compaction primitive. Each client log is a single bank, compacted
//     by staging the new log and swapping it in with one
//     Medium.Replace, so a cut at any staged word leaves the old bank
//     whole.
package nvm

import "slices"

// Per-client checksum salts. Every region XORs its salt into every
// record checksum, so a word stream from one region can never replay
// as a valid record stream in another: a collector checkpoint pasted
// into a budget journal (or vice versa) fails its first checksum and
// reads as a torn tail or corruption instead of silently applying
// someone else's transactions. New regions must pick a fresh salt —
// two regions sharing one would re-open exactly that confusion.
const (
	// SaltBudget salts the DP-Box budget/release journal
	// (internal/dpbox).
	SaltBudget uint16 = 0x5AA5
	// SaltCheckpoint salts the collector's shard checkpoint store
	// (internal/collector).
	SaltCheckpoint uint16 = 0xC011
)

// Medium is a bank-addressed word array: the raw NVM. The engine
// hands it one record's words per Append, so a record costs one
// medium call; the cut-point model stays word-granular because the
// power cell decides, before the call, how many of those words land.
// Implementations are not goroutine-safe; callers serialize access
// per bank (shard locks, the ledger mutex, single-threaded recovery).
type Medium interface {
	// Banks returns the number of banks.
	Banks() int
	// Append makes words ws durable, in order, at the end of bank b.
	// An error means the medium failed mid-write; the engine treats it
	// as a power event and kills the supply cell.
	Append(b int, ws ...uint16) error
	// Len returns bank b's durable word count.
	Len(b int) int
	// Words returns bank b's durable words. The slice aliases the
	// medium's buffer (zero-copy replay); callers must not hold it
	// across mutations. Tests corrupt media in place through it.
	Words(b int) []uint16
	// Erase clears bank b.
	Erase(b int) error
	// Replace swaps bank b's contents for words in one step: a process
	// killed during the call leaves the old words or the new, never a
	// mix.
	Replace(b int, words []uint16) error
	// Close releases any resources (file handles). The in-memory
	// medium has none.
	Close() error
}

// MemMedium is the simulated in-memory NVM every crash-sweep test
// runs against: plain word slices, erase keeps capacity so steady
// append/erase cycles allocate nothing.
type MemMedium struct {
	banks [][]uint16
	one   [1][]uint16 // a single-bank medium's bank table, kept inline
}

// NewMemMedium returns an empty in-memory medium with the given bank
// count.
func NewMemMedium(banks int) *MemMedium {
	m := new(MemMedium)
	m.Init(banks)
	return m
}

// Init empties m into a medium with the given bank count, so a client
// can embed its medium instead of allocating one. A single-bank
// medium's bank table lives inside m, leaving the bank's words as its
// only allocation.
func (m *MemMedium) Init(banks int) {
	m.one[0] = nil
	if banks == 1 {
		m.banks = m.one[:]
		return
	}
	m.banks = make([][]uint16, banks)
}

// Reserve grows bank b's capacity so that n more words append without
// reallocating: a client that knows its log's size up front allocates
// the bank once instead of doubling it from empty.
func (m *MemMedium) Reserve(b, n int) { m.banks[b] = slices.Grow(m.banks[b], n) }

// Banks returns the bank count.
func (m *MemMedium) Banks() int { return len(m.banks) }

// Append appends words to bank b.
func (m *MemMedium) Append(b int, ws ...uint16) error {
	m.banks[b] = append(m.banks[b], ws...)
	return nil
}

// Len returns bank b's word count.
func (m *MemMedium) Len(b int) int { return len(m.banks[b]) }

// Words returns bank b's words (aliasing the live buffer).
func (m *MemMedium) Words(b int) []uint16 { return m.banks[b] }

// Erase clears bank b, keeping its capacity.
func (m *MemMedium) Erase(b int) error {
	m.banks[b] = m.banks[b][:0]
	return nil
}

// Load replaces bank b's contents wholesale (fuzz and test harnesses
// installing arbitrary word streams; not part of the Medium model).
func (m *MemMedium) Load(b int, words []uint16) {
	m.banks[b] = append(m.banks[b][:0], words...)
}

// Replace swaps bank b's contents for words.
func (m *MemMedium) Replace(b int, words []uint16) error {
	m.Load(b, words)
	return nil
}

// Close is a no-op.
func (m *MemMedium) Close() error { return nil }

// Stats is the one introspection surface every NVM-backed region
// exposes, replacing the old per-client asymmetry (collector
// Journal.Words vs dpbox Journal.Writes).
type Stats struct {
	// Words is the current durable word count across the region's
	// banks (what a fresh replay would scan).
	Words int
	// Banks is the region's bank count.
	Banks int
	// Writes is the cumulative successful word writes through the
	// region's power cell since boot (monotone; survives erases).
	Writes uint64
	// Compactions counts successful Region.Rewrite calls.
	Compactions uint64
	// FailClosed reports a dead supply cell: every further write is
	// refused.
	FailClosed bool
}
