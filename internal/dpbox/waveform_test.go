package dpbox

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ulpdp/internal/fault"
)

// vcdChange is one decoded value change of a waveform signal.
type vcdChange struct {
	time  uint64
	value uint64
}

// parseVCD decodes a VCD dump into per-signal change lists for the
// named signals (time → new value, initial dump included).
func parseVCD(t *testing.T, dump string, names ...string) map[string][]vcdChange {
	t.Helper()
	idFor := map[string]string{} // id code → signal name
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string][]vcdChange{}
	var now uint64
	for _, line := range strings.Split(dump, "\n") {
		switch {
		case strings.HasPrefix(line, "$var "):
			// $var wire <width> <id> <name> $end
			f := strings.Fields(line)
			if len(f) >= 5 && want[f[4]] {
				idFor[f[3]] = f[4]
			}
		case strings.HasPrefix(line, "#"):
			v, err := strconv.ParseUint(line[1:], 10, 64)
			if err != nil {
				t.Fatalf("bad VCD time line %q: %v", line, err)
			}
			now = v
		case strings.HasPrefix(line, "b"):
			// b<binary> <id>
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			if name, ok := idFor[f[1]]; ok {
				v, err := strconv.ParseUint(f[0][1:], 2, 64)
				if err != nil {
					t.Fatalf("bad VCD vector line %q: %v", line, err)
				}
				out[name] = append(out[name], vcdChange{now, v})
			}
		case len(line) >= 2 && (line[0] == '0' || line[0] == '1'):
			if name, ok := idFor[line[1:]]; ok {
				out[name] = append(out[name], vcdChange{now, uint64(line[0] - '0')})
			}
		}
	}
	for _, n := range names {
		if len(out[n]) == 0 {
			t.Fatalf("waveform has no %s changes", n)
		}
	}
	return out
}

// valueAt returns a signal's value at cycle c: the latest change at
// or before c (the dump only records changes).
func valueAt(cs []vcdChange, c uint64) uint64 {
	var v uint64
	for _, ch := range cs {
		if ch.time > c {
			break
		}
		v = ch.value
	}
	return v
}

// TestVCDWaveformMatchesNoiseResults is the waveform-fidelity check:
// three honest resampling transactions and one stuck-URNG transaction
// that trips the watchdog must each replay their NoiseResult on the
// persistent signals. budget_units falls by exactly Charged×16 units,
// on the output cycle only; phase reads noising on every cycle between
// the start command and the output (the resample cycles — for the
// degraded transaction the final miss is the output cycle); degraded
// rises only on the degraded transaction's output cycle.
func TestVCDWaveformMatchesNoiseResults(t *testing.T) {
	cfg, fp := faultCfg(21)
	b := bootResampling(t, cfg) // one honest transaction before tracing

	var buf bytes.Buffer
	tr, err := NewVCDTracer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b.SetTracer(tr)
	// One idle cycle puts the pre-transaction state on tape.
	if err := b.Command(CmdDoNothing, 0); err != nil {
		t.Fatal(err)
	}

	type txn struct {
		from, to uint64 // last cycle before, and output cycle
		res      NoiseResult
	}
	var txns []txn
	noise := func() {
		from := b.Cycles()
		r, err := b.NoiseValue(8)
		if err != nil {
			t.Fatal(err)
		}
		txns = append(txns, txn{from, b.Cycles(), r})
	}
	for i := 0; i < 3; i++ {
		noise()
	}
	fp.SetURNGFault(fault.StuckWord(1))
	noise()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	wave := parseVCD(t, buf.String(), "phase", "budget_units", "degraded")
	honestResamples := 0
	for i, x := range txns {
		r, degraded := x.res, i == len(txns)-1
		if r.Degraded != degraded {
			t.Fatalf("txn %d: Degraded = %v, want %v", i, r.Degraded, degraded)
		}
		if got := x.to - x.from; got != uint64(r.Cycles) {
			t.Fatalf("txn %d: spans %d cycles, NoiseResult.Cycles = %d", i, got, r.Cycles)
		}
		// The documented latency is 2 + resamples; the watchdog's
		// final miss is itself the output cycle.
		wantCycles := 2 + r.Resamples
		if degraded {
			wantCycles--
		} else {
			honestResamples += r.Resamples
		}
		if r.Cycles != wantCycles {
			t.Fatalf("txn %d: %d cycles for %d resamples, want %d", i, r.Cycles, r.Resamples, wantCycles)
		}

		wantDrop := uint64(r.Charged * 16) // exact: charges are whole sixteenth-nats
		if wantDrop == 0 {
			t.Fatalf("txn %d charged nothing", i)
		}
		for c := x.from + 1; c <= x.to; c++ {
			// The 32-bit signal wraps; compare drops modulo its width.
			drop := (valueAt(wave["budget_units"], c-1) - valueAt(wave["budget_units"], c)) & 0xFFFFFFFF
			switch {
			case c == x.to && drop != wantDrop:
				t.Fatalf("txn %d: budget_units fell %d units on the output cycle %d, charged %d", i, drop, c, wantDrop)
			case c != x.to && drop != 0:
				t.Fatalf("txn %d: budget_units moved %d units on cycle %d before the output", i, drop, c)
			}
			noising := valueAt(wave["phase"], c) == uint64(PhaseNoising)
			if want := c > x.from+1 && c < x.to; noising != want {
				t.Fatalf("txn %d: phase noising = %v on cycle %d (window %d..%d)", i, noising, c, x.from+1, x.to)
			}
			high := valueAt(wave["degraded"], c) == 1
			if want := degraded && c == x.to; high != want {
				t.Fatalf("txn %d: degraded = %v on cycle %d", i, high, c)
			}
		}
	}
	if honestResamples == 0 {
		t.Fatal("the honest transactions never resampled; the phase check saw no noising cycles")
	}
}
