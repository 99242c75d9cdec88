package dpbox

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ulpdp/internal/nvm"
	"ulpdp/internal/nvm/nvmtest"
)

// journalCfg is smallCfg with a fresh journal attached.
func journalCfg(seed uint64) (Config, *Journal) {
	j := NewJournal()
	cfg := smallCfg(seed)
	cfg.Journal = j
	return cfg, j
}

func TestNoiseValueSeqAtMostOnce(t *testing.T) {
	cfg, _ := journalCfg(5)
	b := boot(t, cfg, 1e6)

	first, err := b.NoiseValueSeq(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed || first.FromCache {
		t.Fatalf("first release marked replayed/cached: %+v", first)
	}
	if first.Charged <= 0 {
		t.Fatal("first release not charged")
	}
	budget := b.BudgetRemaining()

	// Every re-ask for the same sequence — the retry loop after a lost
	// ACK — replays the identical value free of charge.
	for i := 0; i < 5; i++ {
		again, err := b.NoiseValueSeq(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Replayed {
			t.Fatalf("retry %d not marked replayed", i)
		}
		if again.Value != first.Value {
			t.Fatalf("retry %d redrew noise: %d != %d", i, again.Value, first.Value)
		}
		if again.Charged != 0 {
			t.Fatalf("retry %d charged %g nats", i, again.Charged)
		}
	}
	if got := b.BudgetRemaining(); got != budget {
		t.Fatalf("retries moved the budget: %g -> %g", budget, got)
	}

	// A new sequence draws fresh noise and charges again.
	second, err := b.NoiseValueSeq(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if second.Replayed {
		t.Fatal("fresh sequence marked replayed")
	}
	if second.Charged <= 0 {
		t.Fatal("fresh sequence not charged")
	}
	if b.NextSeq() != 2 {
		t.Fatalf("NextSeq = %d, want 2", b.NextSeq())
	}
}

func TestRecoveredReplayIsBitExact(t *testing.T) {
	cfg, j := journalCfg(7)
	b := boot(t, cfg, 1e6)

	want := make(map[uint64]int64)
	for seq := uint64(0); seq < 6; seq++ {
		r, err := b.NoiseValueSeq(seq, int64(2*seq))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = r.Value
	}

	// Crash: volatile state (including the noise stream position and
	// the release map) is gone; only the journal survives.
	j.Kill()
	b2, err := Recover(smallCfg(999), j) // different URNG seed on purpose
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	spentBefore := b2.BudgetRemaining()
	for seq := uint64(0); seq < 6; seq++ {
		r, err := b2.NoiseValueSeq(seq, int64(2*seq))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Replayed {
			t.Fatalf("seq %d redrew after recovery", seq)
		}
		if r.Value != want[seq] {
			t.Fatalf("seq %d: recovered replay %d != pre-crash release %d", seq, r.Value, want[seq])
		}
	}
	if got := b2.BudgetRemaining(); got != spentBefore {
		t.Fatalf("recovered replays charged the ledger: %g -> %g", spentBefore, got)
	}
	if b2.NextSeq() != 6 {
		t.Fatalf("recovered NextSeq = %d, want 6", b2.NextSeq())
	}
}

// TestSeqReleasePowerLossSweep cuts NVM power after every journal word
// write across a sequence-labelled trace and checks the at-most-once
// invariant at each cut: a sequence whose value was handed to the
// caller must replay bit-exactly after recovery, and a recovered
// release must have its charge durably applied (no uncharged binding).
// The cut schedule comes from nvmtest.CrashSweep, the same word-level
// sweep harness the collector's checkpoint tests use.
func TestSeqReleasePowerLossSweep(t *testing.T) {
	type emission struct {
		seq    uint64
		value  int64
		charge int64
	}
	var refEmitted []emission
	nvmtest.CrashSweep(t, func(t testing.TB, pw *nvm.Power, cut int) {
		j := newJournalWith(nvm.NewMemMedium(1), pw)
		cfg := smallCfg(41)
		cfg.Journal = j
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var emitted []emission
		runScript := func() error {
			if err := b.Initialize(1e6, 0); err != nil {
				return err
			}
			if err := b.Configure(1, 0, 16); err != nil {
				return err
			}
			for seq := uint64(0); seq < 5; seq++ {
				r, err := b.NoiseValueSeq(seq, int64(3*seq))
				if err != nil {
					return err
				}
				emitted = append(emitted, emission{seq, r.Value, int64(math.Round(r.Charged / chargeUnit))})
			}
			return nil
		}
		_ = runScript() // death partway is the point
		if cut < 0 {
			// Baseline pass: full power, full trace — record the
			// reference emissions the armed cuts compare against.
			refEmitted = append(refEmitted[:0], emitted...)
		}

		rec, err := Recover(smallCfg(41), j)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		if rec.Phase() == PhaseInit {
			if len(emitted) != 0 {
				t.Fatalf("cut %d: %d emissions before budget lock", cut, len(emitted))
			}
			return
		}
		// Invariant A: everything emitted pre-crash replays bit-exactly.
		for _, e := range emitted {
			rel, ok := rec.ReleaseFor(e.seq)
			if !ok {
				t.Fatalf("cut %d: emitted seq %d lost by recovery (redraw risk)", cut, e.seq)
			}
			if rel.Value != e.value {
				t.Fatalf("cut %d: seq %d recovered as %d, emitted %d", cut, e.seq, rel.Value, e.value)
			}
		}
		// Invariant B: the durable spend covers every emitted charge and
		// at most one extra in-flight transaction (charged, not emitted).
		var emittedUnits int64
		for _, e := range emitted {
			emittedUnits += e.charge
		}
		spent := int64(math.Round(1e6/chargeUnit)) - int64(math.Round(rec.BudgetRemaining()/chargeUnit))
		if spent < emittedUnits {
			t.Fatalf("cut %d: %d units spent for %d emitted (uncharged release)", cut, spent, emittedUnits)
		}
		var maxCharge int64
		for _, e := range refEmitted {
			if e.charge > maxCharge {
				maxCharge = e.charge
			}
		}
		if spent > emittedUnits+maxCharge {
			t.Fatalf("cut %d: %d units spent for %d emitted (+%d max): double-spend", cut, spent, emittedUnits, maxCharge)
		}
		// Invariant C: a recovered release the caller never saw is the
		// one allowed charged-but-unemitted transaction; it must still
		// replay consistently if re-asked.
		rels := rec.Releases()
		if extra := len(rels) - len(emitted); extra < 0 || extra > 1 {
			t.Fatalf("cut %d: %d recovered releases for %d emissions", cut, len(rels), len(emitted))
		}
		if err := rec.Configure(1, 0, 16); err != nil {
			t.Fatalf("cut %d: post-recovery configure: %v", cut, err)
		}
		for seq, rel := range rels {
			r, err := rec.NoiseValueSeq(seq, 0)
			if err != nil {
				t.Fatalf("cut %d: post-recovery replay of seq %d: %v", cut, seq, err)
			}
			if !r.Replayed || r.Value != rel.Value {
				t.Fatalf("cut %d: post-recovery replay of seq %d diverged", cut, seq)
			}
		}
	})
}

// TestCompactionKeepsRetransmissionWindow drives more releases than
// the compaction cap and verifies the most recent window survives two
// crashes, whether each recovery builds a new box (Recover) or reboots
// the crashed one in place (Reboot).
func TestCompactionKeepsRetransmissionWindow(t *testing.T) {
	recoveries := map[string]func(old *DPBox, j *Journal) (*DPBox, error){
		"Recover": func(_ *DPBox, j *Journal) (*DPBox, error) { return Recover(smallCfg(13), j) },
		"Reboot":  func(old *DPBox, j *Journal) (*DPBox, error) { return old, old.Reboot(smallCfg(13), j) },
	}
	for name, recover := range recoveries {
		t.Run(name, func(t *testing.T) {
			cfg, j := journalCfg(13)
			b := boot(t, cfg, 1e9)
			const n = compactReleaseCap + 20
			want := make(map[uint64]int64)
			for seq := uint64(0); seq < n; seq++ {
				r, err := b.NoiseValueSeq(seq, 4)
				if err != nil {
					t.Fatal(err)
				}
				want[seq] = r.Value
			}
			j.Kill()
			b2, err := recover(b, j)
			if err != nil {
				t.Fatal(err)
			}
			// First recovery: the in-memory cache holds everything replayed.
			if got := len(b2.Releases()); got != n {
				t.Fatalf("first recovery holds %d releases, want %d", got, n)
			}
			// Second crash: only the compacted window survived on NVM.
			j.Kill()
			b3, err := recover(b2, j)
			if err != nil {
				t.Fatal(err)
			}
			rels := b3.Releases()
			if got := len(rels); got != compactReleaseCap {
				t.Fatalf("second recovery holds %d releases, want the %d-entry window", got, compactReleaseCap)
			}
			for seq := uint64(n - compactReleaseCap); seq < n; seq++ {
				rel, ok := rels[seq]
				if !ok {
					t.Fatalf("window release %d dropped by compaction", seq)
				}
				if rel.Value != want[seq] {
					t.Fatalf("window release %d corrupted: %d != %d", seq, rel.Value, want[seq])
				}
			}
			if b3.NextSeq() != n {
				t.Fatalf("NextSeq after double recovery = %d, want %d", b3.NextSeq(), n)
			}
		})
	}
}

// TestBudgetExhaustedSeqReleaseJournaled: once the budget is spent, a
// sequence-labelled request serves the cache — and that zero-charge
// binding is still journaled, so even exhausted-path retries replay
// identically across a crash.
func TestBudgetExhaustedSeqReleaseJournaled(t *testing.T) {
	cfg, j := journalCfg(17)
	b := boot(t, cfg, 0.5) // room for one fresh release only
	first, err := b.NoiseValueSeq(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first release unexpectedly from cache")
	}
	starved, err := b.NoiseValueSeq(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !starved.FromCache || starved.Charged != 0 {
		t.Fatalf("exhausted release not served from cache: %+v", starved)
	}
	if starved.Value != first.Value {
		t.Fatalf("cache served %d, cached value is %d", starved.Value, first.Value)
	}
	j.Kill()
	rec, err := Recover(smallCfg(17), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	r, err := rec.NoiseValueSeq(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Replayed || r.Value != starved.Value {
		t.Fatalf("exhausted-path release not replayed after crash: %+v", r)
	}
}

// TestBankConcurrentChannels is the satellite -race hammer: every
// channel of a journaled Bank noising concurrently while the Bank
// clock ticks the shared replenishment timer. The shared ledger must
// neither race nor lose accounting.
func TestBankConcurrentChannels(t *testing.T) {
	const channels = 8
	const perChannel = 40
	j := NewJournal()
	bank, err := NewBank(Config{Bu: 12, By: 10, Mult: 2, Journal: j}, channels, 99)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1e6
	if err := bank.Initialize(budget, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < channels; i++ {
		if err := bank.Box(i).Configure(1, 0, 16); err != nil {
			t.Fatal(err)
		}
	}

	charges := make([]float64, channels)
	errs := make([]error, channels)
	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() { // the Bank clock runs alongside the channels
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				bank.Tick(16)
			}
		}
	}()
	var workers sync.WaitGroup
	for i := 0; i < channels; i++ {
		workers.Add(1)
		go func(ch int) {
			defer workers.Done()
			box := bank.Box(ch)
			for k := 0; k < perChannel; k++ {
				r, err := box.NoiseValue(8)
				if err != nil {
					errs[ch] = err
					return
				}
				charges[ch] += r.Charged
			}
		}(i)
	}
	workers.Wait()
	close(stop)
	<-tickerDone

	for i, err := range errs {
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
	}
	var sum float64
	for _, c := range charges {
		sum += c
	}
	spent := budget - bank.BudgetRemaining()
	if math.Abs(spent-sum) > 1e-6 {
		t.Fatalf("ledger spent %g nats, channels charged %g (lost update)", spent, sum)
	}
	// The journal replay agrees with the volatile ledger bit for bit.
	st, err := j.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(st.Units) * chargeUnit; math.Abs(got-bank.BudgetRemaining()) > 1e-9 {
		t.Fatalf("journal replay %g nats != live ledger %g", got, bank.BudgetRemaining())
	}
}

// TestCompactionCutKeepsOldLog: a power cut at any word of the
// recovery-time compaction leaves the pre-compaction log whole, so
// the next recovery still holds every release and the box never
// re-noises an already-released sequence number.
func TestCompactionCutKeepsOldLog(t *testing.T) {
	cfg, j := journalCfg(17)
	b := boot(t, cfg, 1e9)
	const n = 8
	want := make(map[uint64]int64)
	for seq := uint64(0); seq < n; seq++ {
		r, err := b.NoiseValueSeq(seq, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = r.Value
	}
	st, err := j.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := j.Snapshot()
	for cut := 0; ; cut++ {
		j.FailAfterWrites(cut)
		err := j.compact(st)
		j.revive()
		if err == nil {
			break
		}
		if got := j.Snapshot(); !slices.Equal(got, before) {
			t.Fatalf("cut %d: compaction cut left %d words, want the old %d-word log", cut, len(got), len(before))
		}
	}
	j.Kill()
	b2, err := Recover(smallCfg(17), j)
	if err != nil {
		t.Fatal(err)
	}
	if b2.NextSeq() != n {
		t.Fatalf("NextSeq after recovery = %d, want %d", b2.NextSeq(), n)
	}
	for seq, v := range want {
		if rel, ok := b2.ReleaseFor(seq); !ok || rel.Value != v {
			t.Fatalf("release %d lost or changed: %+v", seq, rel)
		}
	}
}

// TestRebootMatchesRecover pins in-place recovery: the crashed box,
// rebooted over its journal, is indistinguishable from the box Recover
// builds over an identical journal — ledger, release cache, numbering,
// later noised values and journal words — and a reboot of a box sized
// by Reserve allocates nothing for its box, bank or release cache.
func TestRebootMatchesRecover(t *testing.T) {
	crashed := func() (*DPBox, *Journal) {
		cfg, j := journalCfg(21)
		j.Reserve(12)
		b := boot(t, cfg, 1e6)
		for seq := uint64(0); seq < 6; seq++ {
			if _, err := b.NoiseValueSeq(seq, int64(seq)); err != nil {
				t.Fatal(err)
			}
		}
		j.Kill()
		return b, j
	}
	rebooted, j1 := crashed()
	_, j2 := crashed()
	if err := rebooted.Reboot(smallCfg(5), j1); err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(smallCfg(5), j2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*DPBox{rebooted, recovered} {
		if err := b.Configure(1, 0, 16); err != nil {
			t.Fatal(err)
		}
	}
	if rebooted.BudgetRemaining() != recovered.BudgetRemaining() || rebooted.NextSeq() != recovered.NextSeq() {
		t.Fatalf("ledgers differ: %g/%d vs %g/%d", rebooted.BudgetRemaining(), rebooted.NextSeq(),
			recovered.BudgetRemaining(), recovered.NextSeq())
	}
	if !reflect.DeepEqual(rebooted.Releases(), recovered.Releases()) {
		t.Fatal("release caches differ")
	}
	for seq := uint64(6); seq < 12; seq++ {
		a, errA := rebooted.NoiseValueSeq(seq, int64(seq))
		b, errB := recovered.NoiseValueSeq(seq, int64(seq))
		if errA != nil || errB != nil || a != b {
			t.Fatalf("seq %d: %+v/%v vs %+v/%v", seq, a, errA, b, errB)
		}
	}
	if !reflect.DeepEqual(j1.Snapshot(), j2.Snapshot()) {
		t.Fatal("journal words differ")
	}

	j1.Kill()
	if n := testing.AllocsPerRun(1, func() {
		j1.Kill()
		if err := rebooted.Reboot(smallCfg(5), j1); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		// smallCfg's own URNG and the Multipliers literal.
		t.Fatalf("a reboot allocates %v times, want at most the 2 of its config", n)
	}
}
