package nvm

import (
	"slices"
	"sync"
	"testing"
)

// TestPowerAllowRun pins the run grant: a live cell grants the whole
// run; an armed cell grants up to its countdown and dies only when it
// falls short; a dead cell grants nothing.
func TestPowerAllowRun(t *testing.T) {
	cases := []struct {
		name     string
		arm      int // FailAfterWrites argument; -1 leaves the cell unarmed
		kill     bool
		k        int
		want     int
		wantDead bool
	}{
		{"live", -1, false, 5, 5, false},
		{"armed n<k", 3, false, 5, 3, true},
		{"armed n==k", 5, false, 5, 5, false},
		{"armed n>k", 7, false, 5, 5, false},
		{"armed n==0", 0, false, 5, 0, true},
		{"dead", -1, true, 5, 0, true},
	}
	for _, c := range cases {
		pw := NewPower()
		pw.FailAfterWrites(c.arm)
		if c.kill {
			pw.Kill()
		}
		if g := pw.Allow(c.k); g != c.want {
			t.Errorf("%s: Allow(%d) = %d, want %d", c.name, c.k, g, c.want)
		}
		if pw.Dead() != c.wantDead || pw.Writes() != uint64(c.want) {
			t.Errorf("%s: dead %v writes %d, want %v %d", c.name, pw.Dead(), pw.Writes(), c.wantDead, c.want)
		}
	}

	// An exhausted countdown dies on the next word, as a word-at-a-time
	// cell would; the remainder of a longer countdown is granted next.
	pw := NewPower()
	pw.FailAfterWrites(5)
	if pw.Allow(5) != 5 || pw.Dead() || pw.Allow(1) != 0 || !pw.Dead() {
		t.Error("n==k: the word after the countdown must kill the cell")
	}
	pw = NewPower()
	pw.FailAfterWrites(7)
	if pw.Allow(5) != 5 || pw.Allow(5) != 2 || !pw.Dead() || pw.Writes() != 7 {
		t.Errorf("n>k: second run must get the 2 remaining words and die (writes %d)", pw.Writes())
	}
}

// medWrite is one call a region made on its medium.
type medWrite struct {
	bank    int
	words   []uint16
	replace bool
}

// recMedium logs every Append and Replace handed to a MemMedium.
type recMedium struct {
	*MemMedium
	log []medWrite
}

func (m *recMedium) Append(b int, ws ...uint16) error {
	m.log = append(m.log, medWrite{bank: b, words: slices.Clone(ws)})
	return m.MemMedium.Append(b, ws...)
}

func (m *recMedium) Replace(b int, ws []uint16) error {
	m.log = append(m.log, medWrite{bank: b, words: slices.Clone(ws), replace: true})
	return m.MemMedium.Replace(b, ws)
}

// landPrefix is the word-granular media model applied to an uncut
// run's medium log: the banks hold exactly the first n words written,
// and a Replace takes effect only if all its staged words landed.
func landPrefix(log []medWrite, banks, n int) [][]uint16 {
	want := make([][]uint16, banks)
	for _, w := range log {
		k := min(n, len(w.words))
		n -= k
		if !w.replace {
			want[w.bank] = append(want[w.bank], w.words[:k]...)
		} else if k == len(w.words) {
			want[w.bank] = slices.Clone(w.words)
		}
	}
	return want
}

// cutMix writes a fixed record mix over two banks — plain records, a
// two-phase transaction with its 0-payload commit, and a Rewrite — and
// returns every record append's result in order. It never stops early,
// so records past a power cut report their refusal too.
func cutMix(r *Region) []bool {
	var oks []bool
	note := func(ok bool) bool {
		oks = append(oks, ok)
		return ok
	}
	p := Enc64(0x0123456789AB)
	note(r.Append(0, 1, p[:]))
	pair, ok := r.TxnBegin(1, 3, []uint16{7, 9})
	note(ok)
	note(r.Append(1, 1, p[:]))
	note(r.TxnCommit(1, 2, pair))
	r.Rewrite(0, func() bool {
		a := note(r.Append(0, 3, []uint16{1, 2}))
		b := note(r.Append(0, 2, nil))
		return a && b
	})
	note(r.Append(0, 3, []uint16{5, 6}))
	note(r.Append(1, 2, nil))
	return oks
}

// cutMixLens are cutMix's record word counts, in write order.
var cutMixLens = []int{6, 4, 6, 2, 4, 2, 4, 2}

// TestRecordGrantMatchesWordCuts: granting a record's words in one
// permit keeps the word-granular cut semantics. For every cut point n
// the banks hold the n-word prefix of the uncut stream, the cell
// counts n writes and is dead iff the cut fell inside the mix, and
// exactly the record straddling n and every later one are refused.
func TestRecordGrantMatchesWordCuts(t *testing.T) {
	rec := &recMedium{MemMedium: NewMemMedium(2)}
	uncut := NewPower()
	if oks := cutMix(NewRegion(rec, uncut, testLayout())); slices.Contains(oks, false) {
		t.Fatalf("uncut mix refused a record: %v", oks)
	}
	total := 0
	for _, l := range cutMixLens {
		total += l
	}
	if uncut.Writes() != uint64(total) {
		t.Fatalf("uncut mix wrote %d words, want %d", uncut.Writes(), total)
	}
	appends := 0
	for _, w := range rec.log {
		if !w.replace {
			appends++
		}
	}
	if want := len(cutMixLens) - 2; appends != want {
		t.Fatalf("%d medium appends, want one per unstaged record (%d)", appends, want)
	}

	for n := 0; n <= total; n++ {
		pw := NewPower()
		pw.FailAfterWrites(n)
		med := NewMemMedium(2)
		oks := cutMix(NewRegion(med, pw, testLayout()))
		want := landPrefix(rec.log, 2, n)
		for b := 0; b < 2; b++ {
			if !slices.Equal(med.Words(b), want[b]) {
				t.Fatalf("cut %d: bank %d = %v, want %v", n, b, med.Words(b), want[b])
			}
		}
		if pw.Writes() != uint64(n) || pw.Dead() != (n < total) {
			t.Fatalf("cut %d: writes %d dead %v", n, pw.Writes(), pw.Dead())
		}
		end := 0
		for i, l := range cutMixLens {
			end += l
			if oks[i] != (end <= n) {
				t.Fatalf("cut %d: record %d (words %d..%d) returned %v", n, i, end-l, end, oks[i])
			}
		}
	}
}

// TestSharedPowerConcurrentAppends: eight shard regions on one cell,
// as the collector store lays them out, append concurrently into an
// armed failure, on each medium. Exactly N words land across all
// banks, and every bank replays as whole records with at most one torn
// tail in the store.
func TestSharedPowerConcurrentAppends(t *testing.T) {
	const shards = 8
	t.Run("mem", func(t *testing.T) { concurrentAppends(t, NewMemMedium(2*shards), shards) })
	t.Run("file", func(t *testing.T) {
		med, err := OpenFileMedium(t.TempDir(), 2*shards)
		if err != nil {
			t.Fatal(err)
		}
		defer med.Close()
		concurrentAppends(t, med, shards)
	})
}

func concurrentAppends(t *testing.T, med Medium, shards int) {
	const perShard, failAt = 100, 1009
	pw := NewPower()
	pw.FailAfterWrites(failAt)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		r := NewRegionBanks(med, pw, testLayout(), 2*i, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := Enc64(int64(i))
			for k := 0; k < perShard; k++ {
				var ok bool
				switch k % 3 {
				case 0:
					ok = r.Append(k%2, 1, p[:])
				case 1:
					ok = r.Append(k%2, 2, nil)
				default:
					ok = r.Append(k%2, 3, []uint16{uint16(i), uint16(k)})
				}
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()

	landed, torn := 0, 0
	for b := 0; b < med.Banks(); b++ {
		words := med.Words(b)
		landed += len(words)
		sc := NewScanner(testLayout(), words)
		for {
			_, _, _, status := sc.Next()
			if status == ScanRecord {
				continue
			}
			if status == ScanTorn {
				torn++
			} else if status != ScanEnd {
				t.Errorf("bank %d: status %d at word %d", b, status, sc.Offset())
			}
			break
		}
	}
	if landed != failAt || pw.Writes() != failAt || !pw.Dead() {
		t.Fatalf("landed %d words, cell counted %d (dead %v), want %d", landed, pw.Writes(), pw.Dead(), failAt)
	}
	if torn > 1 {
		t.Fatalf("%d torn tails, want at most 1", torn)
	}
}
