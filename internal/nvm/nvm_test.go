package nvm

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// testLayout is a small representative dialect: tag 1 carries 4
// words, tag 2 none, tag 3 carries 2, everything else is unknown.
func testLayout() Layout {
	return Layout{Salt: 0x1234, PayloadLen: func(tag uint16) int {
		switch tag {
		case 1:
			return 4
		case 2:
			return 0
		case 3:
			return 2
		}
		return -1
	}}
}

func TestRecordRoundTrip(t *testing.T) {
	r := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	p := Enc64(-123456789)
	if !r.Append(0, 1, p[:]) || !r.Append(0, 2, nil) || !r.Append(0, 3, []uint16{7, 9}) {
		t.Fatal("append failed with live power")
	}
	sc := NewScanner(testLayout(), r.Words(0))
	tag, seq, payload, status := sc.Next()
	if status != ScanRecord || tag != 1 || seq != 0 || Dec64(payload) != -123456789 {
		t.Fatalf("record 1: tag %d seq %d status %v", tag, seq, status)
	}
	if tag, seq, _, status = sc.Next(); status != ScanRecord || tag != 2 || seq != 1 {
		t.Fatalf("record 2: tag %d seq %d status %v", tag, seq, status)
	}
	if tag, _, payload, status = sc.Next(); status != ScanRecord || tag != 3 || payload[1] != 9 {
		t.Fatalf("record 3: tag %d status %v", tag, status)
	}
	if _, _, _, status = sc.Next(); status != ScanEnd {
		t.Fatalf("end: status %v", status)
	}
}

func TestScannerStatuses(t *testing.T) {
	lay := testLayout()
	build := func() []uint16 {
		r := NewRegion(NewMemMedium(1), NewPower(), lay)
		p := Enc64(42)
		r.Append(0, 1, p[:])
		r.Append(0, 2, nil)
		return append([]uint16(nil), r.Words(0)...)
	}

	w := build()
	sc := NewScanner(lay, w[:len(w)-1]) // torn final record
	if _, _, _, status := sc.Next(); status != ScanRecord {
		t.Fatal("first record should parse")
	}
	if _, _, _, status := sc.Next(); status != ScanTorn {
		t.Fatal("truncated tail should scan torn")
	}

	w = build()
	w[0] = 0xF<<12 | w[0]&0x0FFF
	if _, _, _, status := NewScanner(lay, w).Next(); status != ScanBadTag {
		t.Fatal("unknown tag should scan bad-tag")
	}

	w = build()
	w[len(w)-1] ^= 1 // flip the final record's checksum word
	sc = NewScanner(lay, w)
	sc.Next()
	if _, _, _, status := sc.Next(); status != ScanBadSumTail {
		t.Fatal("final-record flip should scan bad-sum-tail")
	}

	w = build()
	w[2] ^= 1 // flip inside the first record's payload
	if _, _, _, status := NewScanner(lay, w).Next(); status != ScanBadSumMid {
		t.Fatal("mid-log flip should scan bad-sum-mid")
	}
}

func TestTxnPairing(t *testing.T) {
	r := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	p := Enc64(5)
	pair, ok := r.TxnBegin(0, 1, p[:])
	if !ok || pair != 0 {
		t.Fatalf("begin: pair %d ok %v", pair, ok)
	}
	if !r.Append(0, 3, []uint16{1, 2}) {
		t.Fatal("inner append failed")
	}
	if !r.TxnCommit(0, 2, pair) {
		t.Fatal("commit failed")
	}
	// Intent and commit share the pairing seq; the next record gets
	// pair+1 — the wrapping discipline both journals' replay pins on.
	sc := NewScanner(testLayout(), r.Words(0))
	_, s0, _, _ := sc.Next()
	_, s1, _, _ := sc.Next()
	_, s2, _, _ := sc.Next()
	if s0 != 0 || s1 != 1 || s2 != 0 {
		t.Fatalf("seqs %d %d %d, want 0 1 0", s0, s1, s2)
	}
	if r.Seq() != 1 {
		t.Fatalf("post-commit seq %d, want 1", r.Seq())
	}
}

func TestPowerScheduledFailure(t *testing.T) {
	pw := NewPower()
	pw.FailAfterWrites(3)
	r := NewRegion(NewMemMedium(1), pw, testLayout())
	p := Enc64(1)
	if r.Append(0, 1, p[:]) {
		t.Fatal("append should die at word 4")
	}
	if !pw.Dead() || r.Len(0) != 3 {
		t.Fatalf("dead %v len %d, want true 3", pw.Dead(), r.Len(0))
	}
	if r.Append(0, 2, nil) || r.Len(0) != 3 {
		t.Fatal("dead cell accepted a write")
	}
	pw.Revive()
	if !r.Append(0, 2, nil) {
		t.Fatal("revived cell refused a write")
	}
}

// eraseFailMedium is an in-memory medium whose Erase always fails.
type eraseFailMedium struct{ *MemMedium }

func (eraseFailMedium) Erase(int) error { return errors.New("erase failed") }

// TestEraseFailureKillsPower: a medium that cannot erase fails closed
// like one that cannot append, so nothing lands behind the words the
// erase left in place.
func TestEraseFailureKillsPower(t *testing.T) {
	pw := NewPower()
	r := NewRegion(eraseFailMedium{NewMemMedium(1)}, pw, testLayout())
	if !r.Append(0, 2, nil) {
		t.Fatal("append failed with live power")
	}
	if r.Erase(0) {
		t.Fatal("Erase reported success on a failing medium")
	}
	if !pw.Dead() {
		t.Fatal("a failed erase left the cell powered")
	}
	if r.Append(0, 2, nil) || r.Len(0) != 2 {
		t.Fatalf("a record landed after the failed erase: len %d", r.Len(0))
	}
}

func TestStats(t *testing.T) {
	r := NewRegion(NewMemMedium(2), NewPower(), testLayout())
	r.Append(0, 2, nil)
	r.Append(1, 2, nil)
	if !r.Rewrite(1, func() bool { return r.Append(1, 2, nil) }) {
		t.Fatal("rewrite failed with live power")
	}
	st := r.Stats()
	if st.Words != 4 || st.Banks != 2 || st.Writes != 6 || st.Compactions != 1 || st.FailClosed {
		t.Fatalf("stats %+v", st)
	}
}

func TestFileMediumSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []uint16{0xBEEF, 0x1234, 0xFFFF} {
		if err := med.Append(i%2, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.Erase(1); err != nil {
		t.Fatal(err)
	}
	if err := med.Append(1, 0x5678); err != nil {
		t.Fatal(err)
	}
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}

	if n := CountFileBanks(dir); n != 2 {
		t.Fatalf("CountFileBanks = %d, want 2", n)
	}
	med2, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if w := med2.Words(0); len(w) != 2 || w[0] != 0xBEEF || w[1] != 0xFFFF {
		t.Fatalf("bank 0 reopened as %v", w)
	}
	if w := med2.Words(1); len(w) != 1 || w[0] != 0x5678 {
		t.Fatalf("bank 1 reopened as %v (erase must persist)", w)
	}
}

func TestFileMediumTrimsTornWord(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	med.Append(0, 0xAAAA)
	med.Close()
	// Simulate a kill between the two bytes of the next word write.
	f, err := os.OpenFile(filepath.Join(dir, "bank-0000.nvm"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xBB})
	f.Close()
	med2, err := OpenFileMedium(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if w := med2.Words(0); len(w) != 1 || w[0] != 0xAAAA {
		t.Fatalf("torn word not trimmed: %v", w)
	}
}

// TestFileMediumRecordAppend: a multi-word Append lands as one run
// that reads back in order, live and after a reopen, and appends
// continue after it.
func TestFileMediumRecordAppend(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Append(0, 0x1111, 0x2222, 0x3333, 0x4444); err != nil {
		t.Fatal(err)
	}
	if err := med.Append(1, 0xAAAA, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	med.Close()
	med2, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w := med2.Words(0); !slices.Equal(w, []uint16{0x1111, 0x2222, 0x3333, 0x4444}) {
		t.Fatalf("bank 0 reopened as %v", w)
	}
	if err := med2.Append(0, 0x5555, 0x6666); err != nil {
		t.Fatal(err)
	}
	med2.Close()
	med3, err := OpenFileMedium(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer med3.Close()
	if w := med3.Words(0); !slices.Equal(w, []uint16{0x1111, 0x2222, 0x3333, 0x4444, 0x5555, 0x6666}) {
		t.Fatalf("bank 0 after a second run reopened as %v", w)
	}
	if w := med3.Words(1); !slices.Equal(w, []uint16{0xAAAA, 0xBBBB}) {
		t.Fatalf("bank 1 reopened as %v", w)
	}
}

// BenchmarkNVMPut is the engine's hot-path guard: one record append
// on the in-memory medium must stay allocation-free (CI greps the
// 0 allocs/op line), since both journals' charge/admission paths sit
// directly on it.
func BenchmarkNVMPut(b *testing.B) {
	r := NewRegion(NewMemMedium(1), NewPower(), testLayout())
	payload := Enc64(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Append(0, 1, payload[:]) {
			b.Fatal("append failed")
		}
		if r.Len(0) >= 1<<12 {
			r.Erase(0)
		}
	}
}

// TestFileMediumReplace: a replaced bank reads back (live and after a
// reopen) as exactly the new words, appends continue after them, and
// no scratch file is left behind.
func TestFileMediumReplace(t *testing.T) {
	dir := t.TempDir()
	med, err := OpenFileMedium(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []uint16{1, 2, 3, 4} {
		if err := med.Append(0, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.Replace(0, []uint16{0xAAAA, 0xBBBB}); err != nil {
		t.Fatal(err)
	}
	if err := med.Append(0, 0xCCCC); err != nil {
		t.Fatal(err)
	}
	if w := med.Words(0); len(w) != 3 || w[0] != 0xAAAA || w[2] != 0xCCCC {
		t.Fatalf("replaced bank reads %v", w)
	}
	med.Close()
	med2, err := OpenFileMedium(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if w := med2.Words(0); len(w) != 3 || w[0] != 0xAAAA || w[1] != 0xBBBB || w[2] != 0xCCCC {
		t.Fatalf("replaced bank reopened as %v", w)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d files after replace, want 1", len(ents))
	}
}

// TestRegionRewriteCutKeepsOldBank: a power cut anywhere inside a
// Rewrite leaves the bank's old words untouched.
func TestRegionRewriteCutKeepsOldBank(t *testing.T) {
	lay := Layout{PayloadLen: func(uint16) int { return 1 }}
	for cut := 0; cut < 6; cut++ {
		pw := NewPower()
		r := NewRegion(NewMemMedium(1), pw, lay)
		r.Append(0, 1, []uint16{7})
		r.Append(0, 1, []uint16{8})
		old := append([]uint16(nil), r.Words(0)...)
		pw.FailAfterWrites(cut)
		ok := r.Rewrite(0, func() bool { return r.Append(0, 1, []uint16{9}) && r.Append(0, 1, []uint16{10}) })
		if ok {
			t.Fatalf("cut %d: a 6-word rewrite completed", cut)
		}
		if got := r.Words(0); len(got) != len(old) || got[2] != old[2] || got[5] != old[5] {
			t.Fatalf("cut %d: bank %v, want the old %v", cut, got, old)
		}
		if c := r.Stats().Compactions; c != 0 {
			t.Fatalf("cut %d: a failed rewrite counted %d compactions", cut, c)
		}
	}
	pw := NewPower()
	r := NewRegion(NewMemMedium(1), pw, lay)
	r.Append(0, 1, []uint16{7})
	if !r.Rewrite(0, func() bool { return r.Append(0, 1, []uint16{9}) }) || r.Words(0)[1] != 9 || r.Len(0) != 3 {
		t.Fatalf("uncut rewrite left %v", r.Words(0))
	}
	if c := r.Stats().Compactions; c != 1 {
		t.Fatalf("uncut rewrite counted %d compactions, want 1", c)
	}
}

// TestEmbeddedRegion pins the in-place forms a client embeds: the zero
// Power is a live, unarmed cell; a single-bank MemMedium keeps its
// bank table inline; Reserve sizes the bank so records land without
// regrowing it; and Region.Init records without a heap buffer.
func TestEmbeddedRegion(t *testing.T) {
	var rec struct {
		r   Region
		pw  Power
		mem MemMedium
	}
	rec.mem.Init(1)
	rec.r.Init(&rec.mem, &rec.pw, testLayout(), 0, 1)
	rec.mem.Reserve(0, 64)
	payload := []uint16{1, 2, 3, 4}
	if n := testing.AllocsPerRun(5, func() {
		rec.mem.Erase(0)
		for i := 0; i < 10; i++ {
			if !rec.r.Append(0, 1, payload) {
				t.Fatal("zero Power refused a write")
			}
		}
	}); n != 0 {
		t.Fatalf("appends into a reserved bank allocate %v times", n)
	}
	if rec.r.Len(0) != 60 || rec.pw.Writes() != 6*60 {
		t.Fatalf("len %d, writes %d", rec.r.Len(0), rec.pw.Writes())
	}
	rec.pw.FailAfterWrites(3)
	if rec.r.Append(0, 1, payload) || rec.r.Len(0) != 63 || !rec.pw.Dead() {
		t.Fatalf("armed zero-value cell: len %d, dead %v", rec.r.Len(0), rec.pw.Dead())
	}
	rec.pw.Revive()
	if !rec.r.Append(0, 2, nil) {
		t.Fatal("revived cell refused a write")
	}
}
