package urng

import "testing"

// mustBattery runs the battery and fails the test on a sizing error.
func mustBattery(t *testing.T, src Source, n int) []BatteryResult {
	t.Helper()
	results, err := RunBattery(src, n)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestBatteryPassesGoodGenerators(t *testing.T) {
	for name, src := range map[string]Source{
		"taus88":   NewTaus88(2026),
		"splitmix": NewSplitMix64(2026),
	} {
		results := mustBattery(t, src, 1<<16)
		for _, r := range results {
			if !r.Pass {
				t.Errorf("%s failed %s: z = %g", name, r.Name, r.Statistic)
			}
		}
		if !Passed(results) {
			t.Errorf("%s battery verdict false", name)
		}
	}
}

// brokenLCG is a deliberately poor generator (small-modulus LCG whose
// low bits cycle), used to prove the battery has teeth.
type brokenLCG struct{ state uint32 }

func (b *brokenLCG) Uint32() uint32 {
	b.state = b.state*1103515245 + 12345
	// Emit only 8 meaningful bits, replicated: grossly non-uniform.
	top := b.state >> 24
	return top | top<<8 | top<<16 | top<<24
}

// stuckBit is a generator with one always-set bit.
type stuckBit struct{ inner Source }

func (s *stuckBit) Uint32() uint32 { return s.inner.Uint32() | 1 }

func TestBatteryCatchesBrokenGenerators(t *testing.T) {
	if Passed(mustBattery(t, &brokenLCG{state: 1}, 1<<14)) {
		t.Error("battery passed a replicated-byte LCG")
	}
	if Passed(mustBattery(t, &stuckBit{inner: NewTaus88(1)}, 1<<16)) {
		t.Error("battery passed a stuck-bit generator")
	}
}

func TestBatteryErrorsOnTinySample(t *testing.T) {
	if _, err := RunBattery(NewTaus88(1), 100); err == nil {
		t.Fatal("expected a sizing error")
	}
}

func TestBatteryDeterministic(t *testing.T) {
	a := mustBattery(t, NewTaus88(7), 1<<14)
	b := mustBattery(t, NewTaus88(7), 1<<14)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("battery not deterministic for a fixed seed")
		}
	}
}
