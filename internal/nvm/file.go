package nvm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// FileMedium persists each bank as one little-endian word file under
// a directory, with write-through record durability: every Append is
// issued to the file as one positional write before it is
// acknowledged, so a killed process (SIGKILL mid-run) finds every
// acknowledged word on restart — the kernel completes in-flight
// page-cache writes even when the process dies. That is the
// durability the restart-survival contract needs; it is weaker than a
// powerfail-safe disk (no fsync per record — a whole-machine power cut
// could drop the page-cache tail, which the torn-tail replay then
// rolls back, exactly like a simulated cut).
//
// A file with an odd byte length holds a torn word — the process was
// killed partway through a write, between the two bytes of one word —
// and is truncated back to the last whole word at open, the file
// analogue of a torn NVM word never reaching its cell. Whole words of
// a partly written record are the torn record tail replay already
// discards.
type FileMedium struct {
	dir    string
	files  []*os.File
	mirror [][]uint16 // in-RAM copy of each bank for zero-copy reads
	bufs   [][]byte   // Append's reused encode buffer, one per bank
}

// bankPath names bank b's backing file.
func bankPath(dir string, b int) string {
	return filepath.Join(dir, fmt.Sprintf("bank-%04d.nvm", b))
}

// OpenFileMedium opens (creating as needed) a file-backed medium with
// the given bank count under dir, loading any existing durable words.
func OpenFileMedium(dir string, banks int) (*FileMedium, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nvm: open file medium: %w", err)
	}
	m := &FileMedium{
		dir:    dir,
		files:  make([]*os.File, banks),
		mirror: make([][]uint16, banks),
		bufs:   make([][]byte, banks),
	}
	for b := 0; b < banks; b++ {
		f, err := os.OpenFile(bankPath(dir, b), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("nvm: open bank %d: %w", b, err)
		}
		m.files[b] = f
		raw, err := os.ReadFile(bankPath(dir, b))
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("nvm: read bank %d: %w", b, err)
		}
		if len(raw)%2 != 0 {
			// Torn word: the kill landed between the two bytes of one
			// word write. Drop the half-word, as NVM drops a half-
			// written cell.
			raw = raw[:len(raw)-1]
			if err := f.Truncate(int64(len(raw))); err != nil {
				m.Close()
				return nil, fmt.Errorf("nvm: trim torn word in bank %d: %w", b, err)
			}
		}
		words := make([]uint16, len(raw)/2)
		for i := range words {
			words[i] = binary.LittleEndian.Uint16(raw[2*i:])
		}
		m.mirror[b] = words
	}
	return m, nil
}

// CountFileBanks reports how many bank files an existing file-backed
// medium directory holds (0 when the directory is absent or empty) —
// how a reopening store discovers its prior geometry instead of
// trusting the caller's.
func CountFileBanks(dir string) int {
	n := 0
	for {
		if _, err := os.Stat(bankPath(dir, n)); err != nil {
			return n
		}
		n++
	}
}

// Banks returns the bank count.
func (m *FileMedium) Banks() int { return len(m.mirror) }

// Append writes words through to bank b's file with one WriteAt,
// then mirrors them. The encode buffer is per bank, so appends to
// different banks may run concurrently, as the Medium contract
// allows.
func (m *FileMedium) Append(b int, ws ...uint16) error {
	m.bufs[b] = appendWords(m.bufs[b][:0], ws)
	if _, err := m.files[b].WriteAt(m.bufs[b], int64(2*len(m.mirror[b]))); err != nil {
		return fmt.Errorf("nvm: write bank %d: %w", b, err)
	}
	m.mirror[b] = append(m.mirror[b], ws...)
	return nil
}

// Len returns bank b's word count.
func (m *FileMedium) Len(b int) int { return len(m.mirror[b]) }

// Words returns bank b's words (the in-RAM mirror).
func (m *FileMedium) Words(b int) []uint16 { return m.mirror[b] }

// Erase truncates bank b's file and clears its mirror.
func (m *FileMedium) Erase(b int) error {
	if err := m.files[b].Truncate(0); err != nil {
		return fmt.Errorf("nvm: erase bank %d: %w", b, err)
	}
	m.mirror[b] = m.mirror[b][:0]
	return nil
}

// Replace writes words to a scratch file beside bank b's and renames
// it over the bank: the rename is atomic, so a process killed at any
// point finds either the old bank file or the complete new one.
func (m *FileMedium) Replace(b int, words []uint16) error {
	path := bankPath(m.dir, b)
	tmp := path + ".new"
	if err := os.WriteFile(tmp, appendWords(nil, words), 0o644); err != nil {
		return fmt.Errorf("nvm: replace bank %d: %w", b, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("nvm: replace bank %d: %w", b, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("nvm: replace bank %d: %w", b, err)
	}
	m.files[b].Close()
	m.files[b] = f
	m.mirror[b] = append(m.mirror[b][:0], words...)
	return nil
}

// appendWords appends words to dst little-endian, the bank file
// format.
func appendWords(dst []byte, words []uint16) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint16(dst, w)
	}
	return dst
}

// Close closes every bank file.
func (m *FileMedium) Close() error {
	var first error
	for _, f := range m.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.files = nil
	return first
}
