package dpbox

import (
	"errors"
	"fmt"
	"slices"

	"ulpdp/internal/nvm"
)

// Journal is the DP-Box budget ledger's write-ahead log: a
// single-bank region of the shared internal/nvm engine, modelling a
// small append-only NVM area with 16-bit word-granular writes. Power
// can fail between any two word writes (FailAfterWrites), leaving a
// torn record at the tail; the replay parser stops at the first
// record that is truncated or fails its checksum, so a torn tail is
// indistinguishable from "never written" — exactly the atomicity the
// two-phase charge protocol needs.
//
// Record format (each field one 16-bit word):
//
//	hdr      tag<<12 | seq (seq is a 12-bit wrapping sequence number)
//	payload  0, 1 or 4 words depending on tag (64-bit values are 4
//	         little-endian 16-bit words)
//	chk      xor of hdr and payload words, xor nvm.SaltBudget
//
// Tags:
//
//	config      payload initialUnits(4) replenishEvery(4): written when
//	            the budget configuration is locked at secure boot
//	intent      payload chargeUnits(4): phase 1 of a charge
//	commit      no payload: phase 2; the charge whose intent has the
//	            same seq and immediately precedes it is durable
//	replenish   no payload: timer refill to initialUnits
//	checkpoint  payload units(4): absolute balance snapshot, written by
//	            recovery when compacting the log
//	release     payload reportSeq(4) value(4) flags(1): the noised
//	            value bound to one report sequence number, written
//	            between a charge's intent and commit so the
//	            (seq, value) binding becomes durable atomically with
//	            the charge that paid for it
//
// A charge is applied at replay only when its intent is directly
// followed by a matching commit (a release record may sit between the
// two and commits with them); an intent without its commit is rolled
// back, and with it any release it carried. The DP-Box emits an output
// only after the commit word is durable, so replaying a power-loss
// trace at every cut point can lose at most one
// fully-charged-but-unemitted output and can never double-spend or
// emit an uncharged output. Because the release travels inside the
// charge transaction, recovery either knows a sequence's exact noised
// value (and the budget paid for it) or knows the sequence was never
// released — the at-most-once-noising guarantee the fleet transport
// retries against.
//
// A journal is one record: its region, supply cell and (in memory) its
// medium are embedded, so NewJournal costs one allocation plus the
// bank's words, and Reserve sizes the bank once from the run.
type Journal struct {
	r   nvm.Region
	pw  nvm.Power
	mem nvm.MemMedium // the in-memory medium; unused when file-backed

	reports int      // the report count Reserve sized the journal for
	seqs    []uint64 // compact's sort scratch, reused across recoveries
}

// budgetLayout is the budget journal's record dialect over the
// shared engine.
func budgetLayout() nvm.Layout {
	return nvm.Layout{Salt: nvm.SaltBudget, PayloadLen: payloadLen}
}

// NewJournal returns an empty, powered journal on the simulated
// in-memory medium. Its bank starts empty and grows as records land;
// a caller that knows how many reports the journal will carry sizes
// it once with Reserve.
func NewJournal() *Journal { return newJournalWith(nil, nil) }

// newJournalWith builds a journal over med (nil: its own in-memory
// medium) powered by pw (nil: its own supply cell; crash sweeps pass
// a cell armed before the journal exists).
func newJournalWith(med nvm.Medium, pw *nvm.Power) *Journal {
	j := new(Journal)
	if med == nil {
		j.mem.Init(1)
		med = &j.mem
	}
	if pw == nil {
		pw = &j.pw
	}
	j.r.Init(med, pw, budgetLayout(), 0, med.Banks())
	return j
}

// Journal sizes in words: a record is its header, payload and
// checksum.
const (
	configWords     = 1 + 8 + 1 // the budget lock at secure boot
	checkpointWords = 1 + 4 + 1 // the balance a recovery compacts to
	// releaseTxnWords is one sequence-labelled charge: intent,
	// release, commit.
	releaseTxnWords = (1 + 4 + 1) + (1 + 9 + 1) + (1 + 0 + 1)
)

// Reserve sizes the journal for the reports sequence-labelled charges
// it will carry. An in-memory bank gets room for its longest log: the
// budget lock, the checkpoint a recovery compacts to, and
// releaseTxnWords per report — configWords + checkpointWords +
// releaseTxnWords·reports words. The box's release cache and
// recovery's compaction scratch are sized for that many releases.
// Everything is then allocated once instead of doubling from empty.
// Size it from the reports the journal will really carry, never from
// compactReleaseCap: an oversized journal costs every node its bytes.
// A file-backed bank ignores the word reservation.
func (j *Journal) Reserve(reports int) {
	j.reports = reports
	m, ok := j.r.Medium().(*nvm.MemMedium)
	if n := configWords + checkpointWords + releaseTxnWords*reports - j.r.Len(0); ok && n > 0 {
		m.Reserve(0, n)
	}
}

// OpenJournal opens (or creates) a file-backed journal under dir, so
// a killed-and-restarted process recovers the budget ledger and
// release cache from disk. Pass a non-empty journal to Recover; a
// fresh one goes straight to DPBox.Initialize.
func OpenJournal(dir string) (*Journal, error) {
	med, err := nvm.OpenFileMedium(dir, 1)
	if err != nil {
		return nil, err
	}
	return newJournalWith(med, nil), nil
}

// Close releases the journal's medium (file handles; a no-op for the
// in-memory medium).
func (j *Journal) Close() error { return j.r.Medium().Close() }

// journal record tags.
const (
	tagConfig     = 1
	tagIntent     = 2
	tagCommit     = 3
	tagReplenish  = 4
	tagCheckpoint = 5
	tagRelease    = 6
)

// Release flag bits (the flags word of a release record).
const (
	relFlagDegraded  = 1 << 0
	relFlagFromCache = 1 << 1
)

// compactReleaseCap bounds how many release records recovery carries
// into the compacted journal: the highest-seq entries survive, older
// ones are dropped. A node's retransmission window (un-ACKed
// sequences that may still be asked for after a crash) must stay
// below this cap; the sequential ReportAgent keeps exactly one
// report outstanding, far under it.
const compactReleaseCap = 64

// payloadLen returns the payload word count for a tag, or -1 for an
// unknown tag.
func payloadLen(tag uint16) int {
	switch tag {
	case tagConfig:
		return 8
	case tagIntent, tagCheckpoint:
		return 4
	case tagCommit, tagReplenish:
		return 0
	case tagRelease:
		return 9
	}
	return -1
}

func (j *Journal) appendConfig(initialUnits int64, replenishEvery uint64) bool {
	a, b := nvm.Enc64(initialUnits), nvm.Enc64(int64(replenishEvery))
	return j.r.Append(0, tagConfig, []uint16{a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]})
}

// appendCharge runs the two-phase protocol: intent then commit. Only
// after both records are durable may the caller apply the charge and
// emit the output.
func (j *Journal) appendCharge(units int64) bool {
	p := nvm.Enc64(units)
	pair, ok := j.r.TxnBegin(0, tagIntent, p[:])
	if !ok {
		return false
	}
	return j.r.TxnCommit(0, tagCommit, pair)
}

func (j *Journal) appendReplenish() bool {
	return j.r.Append(0, tagReplenish, nil)
}

// appendChargeRelease runs the two-phase protocol with a release
// record riding inside the transaction: intent, release, commit. The
// (reportSeq, value) binding becomes durable if and only if the
// charge does, so recovery can never learn a released value whose
// charge was rolled back, nor a charge whose released value is
// unknown.
func (j *Journal) appendChargeRelease(units int64, reportSeq uint64, value int64, flags uint16) bool {
	p := nvm.Enc64(units)
	pair, ok := j.r.TxnBegin(0, tagIntent, p[:])
	if !ok {
		return false
	}
	s, v := nvm.Enc64(int64(reportSeq)), nvm.Enc64(value)
	if !j.r.Append(0, tagRelease, []uint16{s[0], s[1], s[2], s[3], v[0], v[1], v[2], v[3], flags}) {
		return false
	}
	return j.r.TxnCommit(0, tagCommit, pair)
}

func (j *Journal) appendCheckpoint(units int64) bool {
	p := nvm.Enc64(units)
	return j.r.Append(0, tagCheckpoint, p[:])
}

// bindObs routes the engine's per-transaction telemetry (journal
// intent/commit counters) into the box metrics; a detached plane's nil
// counters detach them.
func (j *Journal) bindObs(m *Metrics) {
	j.r.BindCounters(m.JournalIntents, m.JournalCommits)
}

// FailAfterWrites schedules a power failure after n more successful
// word writes (n = 0 kills the next write). Pass a negative n to
// disarm.
func (j *Journal) FailAfterWrites(n int) { j.r.Power().FailAfterWrites(n) }

// Kill drops NVM power immediately; all further writes fail.
func (j *Journal) Kill() { j.r.Power().Kill() }

// revive restores power to the journal (secure boot).
func (j *Journal) revive() { j.r.Power().Revive() }

// Power returns the journal's supply cell (the fault plane's
// power-loss site binds to it).
func (j *Journal) Power() *nvm.Power { return j.r.Power() }

// Writes returns the number of durable words currently in the log.
func (j *Journal) Writes() int { return j.r.Len(0) }

// Stats returns the engine's introspection surface (durable words,
// banks, cumulative writes, compactions, fail-closed).
func (j *Journal) Stats() nvm.Stats { return j.r.Stats() }

// Snapshot returns a copy of the durable words (test introspection).
func (j *Journal) Snapshot() []uint16 {
	return append([]uint16(nil), j.r.Words(0)...)
}

// Release is one durably recorded (report sequence → noised value)
// binding: the value the DP-Box released for that sequence, exactly
// once, with the budget charge that paid for it. Retransmissions and
// crash recovery replay it verbatim instead of redrawing noise.
type Release struct {
	// Value is the released noised output in steps.
	Value int64
	// Degraded reports that the release came from the resample
	// watchdog's certified thresholding clamp.
	Degraded bool
	// FromCache reports a zero-charge release: the value replays an
	// earlier charged output (budget exhausted or URNG gate closed)
	// rather than fresh noise.
	FromCache bool
}

func (r Release) flags() uint16 {
	var f uint16
	if r.Degraded {
		f |= relFlagDegraded
	}
	if r.FromCache {
		f |= relFlagFromCache
	}
	return f
}

func releaseFromFlags(value int64, f uint16) Release {
	return Release{
		Value:     value,
		Degraded:  f&relFlagDegraded != 0,
		FromCache: f&relFlagFromCache != 0,
	}
}

// LedgerState is the budget ledger state reconstructed by Replay.
type LedgerState struct {
	// Configured reports whether a config record was recovered; false
	// means the box died before the budget lock and boots fresh.
	Configured bool
	// InitialUnits is the locked budget in sixteenth-nat units.
	InitialUnits int64
	// Units is the recovered remaining budget.
	Units int64
	// ReplenishEvery is the locked replenishment period in cycles.
	ReplenishEvery uint64
	// Releases maps report sequence numbers to their durably released
	// values (nil when the journal holds none).
	Releases map[uint64]Release
}

// Replay reconstructs the ledger from the durable words. A truncated
// or checksum-failing tail record ends the scan silently (that is the
// torn write the protocol is designed around); structurally impossible
// sequences return an error. The budget journal is lenient where the
// collector store is fail-closed: this log is single-writer, short,
// and every record it could lose was by construction never emitted.
//
// The releases are recorded into rel, which the caller has emptied, so
// a caller replaying many journals can reuse one map; with rel nil, a
// fresh map is sized from the log once a release turns up.
func (j *Journal) Replay(rel map[uint64]Release) (LedgerState, error) {
	var st LedgerState
	var pendAmt int64
	var pendSeq uint16
	var pendRelSeq uint64
	var pendRel Release
	pending, pendingRel := false, false
	words := j.r.Words(0)
	sc := nvm.NewScanner(budgetLayout(), words)
	for {
		tag, seq, payload, status := sc.Next()
		if status != nvm.ScanRecord {
			break // end of log, or a torn/trailing-garbage tail
		}
		if !st.Configured && tag != tagConfig {
			return st, fmt.Errorf("dpbox: journal record tag %d before config", tag)
		}
		switch tag {
		case tagConfig:
			if st.Configured {
				return st, errors.New("dpbox: duplicate journal config record")
			}
			st.Configured = true
			st.InitialUnits = nvm.Dec64(payload[0:4])
			st.ReplenishEvery = uint64(nvm.Dec64(payload[4:8]))
			st.Units = st.InitialUnits
		case tagIntent:
			pending, pendSeq, pendAmt = true, seq, nvm.Dec64(payload)
			pendingRel = false
		case tagRelease:
			if !pending {
				return st, errors.New("dpbox: journal release record outside a charge transaction")
			}
			pendRelSeq = uint64(nvm.Dec64(payload[0:4]))
			pendRel = releaseFromFlags(nvm.Dec64(payload[4:8]), payload[8])
			pendingRel = true
		case tagCommit:
			if pending && seq == pendSeq {
				st.Units -= pendAmt
				if st.Units < 0 {
					st.Units = 0
				}
				if pendingRel {
					if st.Releases == nil {
						st.Releases = rel
					}
					if st.Releases == nil {
						// Every release rides in a releaseTxnWords
						// transaction, so the log's length bounds
						// their count.
						st.Releases = make(map[uint64]Release, len(words)/releaseTxnWords)
					}
					st.Releases[pendRelSeq] = pendRel
				}
			}
			pending, pendingRel = false, false
		case tagReplenish:
			pending, pendingRel = false, false
			st.Units = st.InitialUnits
		case tagCheckpoint:
			pending, pendingRel = false, false
			st.Units = nvm.Dec64(payload)
		}
	}
	return st, nil
}

// compact rewrites the journal as a fresh config + checkpoint pair
// followed by the most recent release bindings (up to
// compactReleaseCap, as zero-charge transactions — the checkpoint
// already accounts for their spend), bounding NVM growth across power
// cycles while keeping the retransmission window replayable.
func (j *Journal) compact(st LedgerState) error {
	// Recovery-time rewrites are not charge traffic: suspend the
	// intent/commit telemetry while old transactions are folded into
	// the fresh log.
	intents, commits := j.r.Counters()
	j.r.BindCounters(nil, nil)
	defer j.r.BindCounters(intents, commits)

	seqs := slices.Grow(j.seqs[:0], max(len(st.Releases), j.reports))
	for s := range st.Releases {
		seqs = append(seqs, s)
	}
	j.seqs = seqs
	slices.Sort(seqs)
	if len(seqs) > compactReleaseCap {
		seqs = seqs[len(seqs)-compactReleaseCap:]
	}
	// The log has a single bank, so the rewrite must replace it in one
	// step: a cut midway would otherwise leave a prefix of the new log
	// and lose the newest releases, letting a restarted box re-noise an
	// already-released sequence number.
	ok := j.r.Rewrite(0, func() bool {
		j.r.SetSeq(0)
		if !j.appendConfig(st.InitialUnits, st.ReplenishEvery) || !j.appendCheckpoint(st.Units) {
			return false
		}
		for _, s := range seqs {
			rel := st.Releases[s]
			if !j.appendChargeRelease(0, s, rel.Value, rel.flags()) {
				return false
			}
		}
		return true
	})
	if !ok {
		return errors.New("dpbox: journal compaction failed (NVM dead)")
	}
	return nil
}

// Recover is the secure-boot path after a power loss: it replays the
// journal, compacts it, and powers up a DP-Box with the recovered
// ledger. If the journal predates the budget lock the box boots fresh
// in the initialization phase. The replenishment timer restarts at
// zero — the conservative direction, since delaying a refill never
// overspends. cfg.Journal is overridden with j.
func Recover(cfg Config, j *Journal) (*DPBox, error) {
	b := new(DPBox)
	if err := b.Reboot(cfg, j); err != nil {
		return nil, err
	}
	return b, nil
}

// Reboot is Recover in place: b — typically the box whose power just
// failed — is rebuilt from j exactly as Recover would build a new box,
// reusing b's memory, its release cache's included, so a node that
// crash-recovers in a loop allocates no box. On error b is left dead:
// every port returns ErrPowerLost.
func (b *DPBox) Reboot(cfg Config, j *Journal) error {
	if err := b.reboot(cfg, j); err != nil {
		b.phase = PhaseDead
		return err
	}
	return nil
}

func (b *DPBox) reboot(cfg Config, j *Journal) error {
	if j == nil {
		return errors.New("dpbox: recovery requires a journal")
	}
	j.revive()
	rel := b.releases
	clear(rel)
	st, err := j.Replay(rel)
	if err != nil {
		return err
	}
	cfg.Journal = j
	// The box takes over the replayed map whole: the in-memory cache
	// keeps everything the replay recovered; only the compacted NVM
	// copy is trimmed to the retransmission window, so a second crash
	// preserves at least that window.
	if err := b.boot(cfg, st.Releases); err != nil {
		return err
	}
	if !st.Configured {
		// Discard any torn pre-lock tail. Records appended behind a
		// tail that stays would be lost to the next Replay, which stops
		// at the tail, so a failed erase leaves the box dead.
		if !j.r.Erase(0) {
			return errors.New("dpbox: journal erase failed")
		}
		j.r.SetSeq(0)
		return nil
	}
	if err := j.compact(st); err != nil {
		return err
	}
	b.ledger.initial = st.InitialUnits
	b.ledger.units = st.Units
	b.ledger.replenishEvery = st.ReplenishEvery
	b.ledger.since = 0
	b.ledger.locked = true
	// Sequence-labelled retries replay the pre-crash values instead of
	// redrawing.
	for seq := range st.Releases {
		b.maxRelSeq = max(b.maxRelSeq, seq)
	}
	b.phase = PhaseWaiting
	b.obs.JournalRecovers.Inc()
	return nil
}
