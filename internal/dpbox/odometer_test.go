package dpbox

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ulpdp/internal/obs"
)

// TestInitializeRoundsBudgetDown pins the boot-time conversion from
// nats to ledger units: it rounds down, so a box never holds more
// budget than was configured, and it refuses non-finite, negative or
// unrepresentable budgets before converting them.
func TestInitializeRoundsBudgetDown(t *testing.T) {
	for _, tc := range []struct {
		nats  float64
		units int64 // -1: Initialize must fail
	}{
		{4, 64},
		{1, 16},
		{1.0625, 17},
		{1.04, 16},
		{0.99, 15},
		{0.0625, 1},
		{0.04, -1}, // under one unit: nothing to grant
		{math.MaxInt32, math.MaxInt32 * 16},
		{-1, -1},
		{-0.01, -1},
		{math.Inf(1), -1},
		{math.Inf(-1), -1},
		{math.NaN(), -1},
		{1e300, -1}, // beyond the ledger's int64 range
	} {
		b, err := New(smallCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		err = b.Initialize(tc.nats, 0)
		if tc.units < 0 {
			if err == nil {
				t.Errorf("Initialize(%g) accepted, %d units granted", tc.nats, b.BudgetUnits())
				continue
			}
			if b.Phase() != PhaseInit {
				t.Errorf("Initialize(%g) failed (%v) but left phase %v", tc.nats, err, b.Phase())
			}
			if (tc.nats < 0 || math.IsNaN(tc.nats) || math.IsInf(tc.nats, 0)) && strings.Contains(err.Error(), "negative budget") {
				t.Errorf("Initialize(%g): got the register's error %q, want the nats check", tc.nats, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Initialize(%g): %v", tc.nats, err)
			continue
		}
		if got := b.BudgetUnits(); got != tc.units {
			t.Errorf("Initialize(%g) holds %d units, want %d", tc.nats, got, tc.units)
		}
	}

	// The Bank delegates to its first channel.
	bk, err := NewBank(Config{Bu: 12, By: 10, Mult: 2}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bk.Initialize(1.04, 0); err != nil {
		t.Fatal(err)
	}
	if got := bk.BudgetUnits(); got != 16 {
		t.Errorf("Bank.Initialize(1.04) holds %d units, want 16", got)
	}
}

// spendTracker follows one ledger's debits next to the odometer. The
// ledger saturates at zero: the charge that exhausts it is recorded in
// full by the odometer (the output was released, so the loss was
// incurred) but debits only the remaining balance. overshoot carries
// that difference, so the exact identity
//
//	Σ SpentUnits(ch) − overshoot == initial − BudgetUnits()
//
// holds after every transaction, and overshoot is 0 until exhaustion.
type spendTracker struct {
	perCh     []int64 // Σ charged units per channel
	overshoot int64
	replays   int
}

// record folds one transaction in; before is the ledger balance just
// before it.
func (s *spendTracker) record(t *testing.T, ch int, r NoiseResult, before int64) {
	t.Helper()
	if r.FromCache {
		s.replays++
		if r.Charged != 0 {
			t.Fatalf("cache replay charged %g nats", r.Charged)
		}
		return
	}
	// Charged is a whole number of units: the division is exact.
	u := int64(r.Charged / chargeUnit)
	s.perCh[ch] += u
	if u > before {
		s.overshoot += u - before
	}
}

// check asserts the odometer against the ledger and the per-channel
// charge sums, all as exact integers.
func (s *spendTracker) check(t *testing.T, odo *obs.Odometer, initial, balance int64, label string) {
	t.Helper()
	var total int64
	for ch, want := range s.perCh {
		if got := odo.SpentUnits(ch); got != want {
			t.Fatalf("%s: channel %d odometer %d units, charges sum to %d", label, ch, got, want)
		}
		total += want
	}
	if got := odo.TotalUnits(); got != total {
		t.Fatalf("%s: odometer total %d units != channel sum %d", label, got, total)
	}
	if got, want := total-s.overshoot, initial-balance; got != want {
		t.Fatalf("%s: odometer %d units (overshoot %d) != ledger spend %d units", label, total, s.overshoot, want)
	}
}

// odometerAcrossPowerLoss runs a journaled box for three reports, cuts
// the journal's power after cut more words inside the fourth, recovers
// onto the same Metrics and runs to exhaustion, checking the odometer
// against the ledger throughout. It reports whether the cut landed;
// a cut past the fourth report's record ends the sweep.
func odometerAcrossPowerLoss(t *testing.T, cut int) bool {
	t.Helper()
	m := NewMetrics(obs.NewRegistry(), 1)
	j := NewJournal()
	cfg := smallCfg(7)
	cfg.Journal = j
	cfg.Obs = m
	b := boot(t, cfg, 6)
	const initial = 6 * 16
	tr := spendTracker{perCh: make([]int64, 1)}
	for i := 0; i < 3; i++ {
		before := b.BudgetUnits()
		r, err := b.NoiseValue(int64(4 * i))
		if err != nil {
			t.Fatal(err)
		}
		tr.record(t, 0, r, before)
	}
	tr.check(t, m.Odometer, initial, b.BudgetUnits(), "before power loss")

	// Whatever the journal did not commit, neither the ledger nor the
	// odometer keeps.
	j.FailAfterWrites(cut)
	if _, err := b.NoiseValue(9); err == nil {
		return false
	} else if !errors.Is(err, ErrPowerLost) {
		t.Fatalf("cut %d: expected ErrPowerLost, got %v", cut, err)
	}
	rcfg := smallCfg(8)
	rcfg.Obs = m
	b, err := Recover(rcfg, j)
	if err != nil {
		t.Fatal(err)
	}
	tr.check(t, m.Odometer, initial, b.BudgetUnits(), "after Recover")
	if err := b.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; tr.replays < 3; i++ {
		if i > 100 {
			t.Fatal("budget never exhausted")
		}
		before := b.BudgetUnits()
		r, err := b.NoiseValue(int64(i % 17))
		if err != nil {
			t.Fatal(err)
		}
		tr.record(t, 0, r, before)
		tr.check(t, m.Odometer, initial, b.BudgetUnits(), "after recovery")
	}
	if b.BudgetUnits() != 0 {
		t.Fatalf("cache replays with %d units left", b.BudgetUnits())
	}
	if cut == 0 {
		t.Logf("exhausting charge overshot the ledger by %d units", tr.overshoot)
	}
	return true
}

// TestOdometerMatchesLedger pins the privacy odometer to the budget
// ledger at the DP-Box, in integer charge units, with no tolerance:
// for a single journaled box across a power loss and Recover onto the
// same Metrics, and for a 3-channel Bank sharing one ledger. Both run
// to exhaustion so cache replays (charged nothing) are included.
func TestOdometerMatchesLedger(t *testing.T) {
	t.Run("box", func(t *testing.T) {
		// Cut the journal's power after each word of one charge record
		// in turn, until the record fits.
		cuts := 0
		for cut := 0; odometerAcrossPowerLoss(t, cut); cut++ {
			cuts++
		}
		if cuts < 2 {
			t.Fatalf("only %d power cuts landed inside a charge record", cuts)
		}
	})

	t.Run("bank", func(t *testing.T) {
		m := NewMetrics(obs.NewRegistry(), 3)
		bk, err := NewBank(Config{Bu: 12, By: 10, Mult: 2, Multipliers: []float64{1.25, 1.5}, Obs: m}, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := bk.Initialize(8, 0); err != nil {
			t.Fatal(err)
		}
		const initial = 8 * 16
		for ch := 0; ch < bk.Channels(); ch++ {
			if err := bk.Box(ch).Configure(1, 0, 16); err != nil {
				t.Fatal(err)
			}
		}
		tr := spendTracker{perCh: make([]int64, 3)}
		for i := 0; tr.replays < 6; i++ {
			if i > 300 {
				t.Fatal("budget never exhausted")
			}
			ch := i % 3
			before := bk.BudgetUnits()
			r, err := bk.Box(ch).NoiseValue(int64(i % 17))
			if err != nil {
				t.Fatal(err)
			}
			tr.record(t, ch, r, before)
			tr.check(t, m.Odometer, initial, bk.BudgetUnits(), "bank")
		}
		t.Logf("exhausting charge overshot the ledger by %d units", tr.overshoot)
		if got := m.Odometer.Replenishes(); got != 0 {
			t.Fatalf("%d replenishes with replenishment disabled", got)
		}
	})
}
