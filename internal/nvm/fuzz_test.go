package nvm

import (
	"encoding/binary"
	"testing"
)

// fuzzWords reassembles fuzz bytes into a word stream (odd trailing
// byte = torn word, dropped). Kept local: nvmtest imports this
// package, so the fuzzer cannot import nvmtest back.
func fuzzWords(raw []byte) []uint16 {
	words := make([]uint16, len(raw)/2)
	for i := range words {
		words[i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	return words
}

// FuzzNVMRecordCodec is the shared record-codec fuzzer both journals
// used to carry separately: arbitrary word streams go through the
// Scanner and the replay must never panic, must be deterministic,
// must either parse records that re-encode bit-exactly or refuse
// (non-record status), and a fresh record appended after the valid
// prefix must scan back intact.
func FuzzNVMRecordCodec(f *testing.F) {
	lay := testLayout()
	// Corpus: a clean log, a torn one, a flipped one, junk.
	r := NewRegion(NewMemMedium(1), NewPower(), lay)
	p := Enc64(-99)
	pair, _ := r.TxnBegin(0, 1, p[:])
	r.Append(0, 3, []uint16{0xAB, 0xCD})
	r.TxnCommit(0, 2, pair)
	clean := make([]byte, 2*len(r.Words(0)))
	for i, w := range r.Words(0) {
		binary.LittleEndian.PutUint16(clean[2*i:], w)
	}
	f.Add(clean, uint16(0x1234))
	f.Add(clean[:len(clean)-3], uint16(0x1234))
	flipped := append([]byte(nil), clean...)
	flipped[5] ^= 0x80
	f.Add(flipped, uint16(0xC011))
	f.Add([]byte{}, uint16(0x5AA5))
	f.Add([]byte{0xFF, 0xFF, 0x01}, uint16(0))

	f.Fuzz(func(t *testing.T, raw []byte, salt uint16) {
		if len(raw) > 1<<16 {
			return
		}
		lay := testLayout()
		lay.Salt = salt
		words := fuzzWords(raw)

		type rec struct {
			tag, seq uint16
			payload  []uint16
		}
		var recs []rec
		sc := NewScanner(lay, words)
		for {
			tag, seq, payload, status := sc.Next()
			if status != ScanRecord {
				// Refusal branch: whatever the damage, the scanner stops
				// without panicking; the offset never passes the bad spot.
				if sc.Offset() > len(words) {
					t.Fatalf("offset %d past end %d", sc.Offset(), len(words))
				}
				break
			}
			recs = append(recs, rec{tag, seq, append([]uint16(nil), payload...)})
		}
		parsed := sc.Offset()

		// Determinism: a second scan sees the identical prefix.
		sc2 := NewScanner(lay, words)
		for i := 0; ; i++ {
			_, _, _, status := sc2.Next()
			if status != ScanRecord {
				if i != len(recs) || sc2.Offset() != parsed {
					t.Fatalf("second scan parsed %d records to %d, first %d to %d", i, sc2.Offset(), len(recs), parsed)
				}
				break
			}
		}

		// Recover exactly: re-encoding the parsed records with their
		// own seqs reproduces the parsed prefix bit-for-bit.
		re := NewRegion(NewMemMedium(1), NewPower(), lay)
		for _, rc := range recs {
			re.SetSeq(rc.seq)
			if !re.Append(0, rc.tag, rc.payload) {
				t.Fatal("re-append failed with live power")
			}
		}
		got := re.Words(0)
		if len(got) != parsed {
			t.Fatalf("re-encoded %d words, parsed prefix %d", len(got), parsed)
		}
		for i := range got {
			if got[i] != words[i] {
				t.Fatalf("re-encoded word %d = %#04x, original %#04x", i, got[i], words[i])
			}
		}

		// Still usable: appending a fresh record after the valid prefix
		// scans back intact.
		probe := NewRegion(NewMemMedium(1), NewPower(), lay)
		_ = probe.Medium().Append(0, words[:parsed]...) // MemMedium never fails
		probe.SetSeq(0x7FF)
		if !probe.Append(0, 3, []uint16{0x55, 0xAA}) {
			t.Fatal("probe append failed")
		}
		sc3 := NewScanner(lay, probe.Words(0))
		found := false
		for {
			tag, seq, payload, status := sc3.Next()
			if status != ScanRecord {
				break
			}
			if tag == 3 && seq == 0x7FF && len(payload) == 2 && payload[0] == 0x55 && payload[1] == 0xAA {
				found = true
			}
		}
		if !found {
			t.Fatal("fresh record after valid prefix lost")
		}
	})
}
