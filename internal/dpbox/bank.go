package dpbox

import (
	"fmt"

	"ulpdp/internal/urng"
)

// Bank is a multi-sensor DP-Box: one budget ledger shared by several
// sensor channels. Section IV of the paper requires this when a node
// carries more than one sensor — an observer could otherwise combine
// readings of correlated sensors and multiply their individual
// budgets. Every channel charges the common ledger; once it is spent,
// every channel serves its own cached value until the shared
// replenishment period (driven by the Bank's clock) restores it.
//
// Concurrency: distinct channels may be driven from distinct
// goroutines (the collector ingest path does), and Tick may run
// alongside them — the shared ledger serializes every balance
// movement and the journal writes backing it internally. Each
// individual channel is still single-goroutine state: never drive the
// same Box from two goroutines. A charge that races the last units of
// budget saturates at zero exactly as it does sequentially, so
// interleaving can reorder charges but never mint budget.
type Bank struct {
	boxes  []*DPBox
	ledger *budgetLedger
	cycles uint64
}

// NewBank powers up n sensor channels sharing one budget ledger. Each
// channel gets an independently seeded Tausworthe URNG derived from
// seed (correlated noise across sensors would itself leak).
func NewBank(cfg Config, n int, seed uint64) (*Bank, error) {
	if n < 1 {
		return nil, fmt.Errorf("dpbox: bank needs at least one channel, got %d", n)
	}
	if cfg.Source != nil {
		return nil, fmt.Errorf("dpbox: bank channels must not share a noise source; leave Config.Source nil")
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("dpbox: bank channels must not share a fault plane; inject per channel")
	}
	bank := &Bank{ledger: &budgetLedger{j: cfg.Journal}}
	for i := 0; i < n; i++ {
		ci := cfg
		ci.Source = urng.NewTaus88(seed + uint64(i)*0x9E3779B9 + 1)
		// Each channel gets its own odometer channel so the shared
		// registry decomposes the shared ledger's spend per sensor.
		ci.ObsChannel = cfg.ObsChannel + i
		box, err := New(ci)
		if err != nil {
			return nil, err
		}
		// The shared ledger reports to the plane every channel booted
		// with: cfg.Obs as boot defaulted it.
		box.ledger, bank.ledger.obs = bank.ledger, box.obs
		box.ownTimer = false // the Bank's clock drives the timer
		bank.boxes = append(bank.boxes, box)
	}
	return bank, nil
}

// Channels returns the number of sensor channels.
func (bk *Bank) Channels() int { return len(bk.boxes) }

// Box returns channel i's DP-Box.
func (bk *Bank) Box(i int) *DPBox { return bk.boxes[i] }

// Initialize configures the shared budget (nats) and replenishment
// period (Bank cycles; 0 disables) and locks every channel into the
// waiting phase. Like a single box, this can happen only once per
// power cycle.
func (bk *Bank) Initialize(budgetNats float64, replenishEvery uint64) error {
	if err := bk.boxes[0].Initialize(budgetNats, replenishEvery); err != nil {
		return err
	}
	for _, box := range bk.boxes[1:] {
		// The shared ledger is configured; the remaining channels
		// only need the phase transition.
		if err := box.Command(CmdStartNoising, 0); err != nil {
			return err
		}
	}
	return nil
}

// Tick advances the Bank's clock (and with it the shared
// replenishment timer) by n cycles. If a journal-backed refill fails
// to become durable (NVM power lost) every channel fails closed.
func (bk *Bank) Tick(n uint64) {
	for i := uint64(0); i < n; i++ {
		bk.cycles++
		if !bk.ledger.tick() {
			for _, box := range bk.boxes {
				box.powerFail()
			}
			return
		}
	}
}

// BudgetUnits returns the shared unspent budget in budget units
// (sixteenths of a nat).
func (bk *Bank) BudgetUnits() int64 { return bk.ledger.balance() }

// BudgetRemaining returns the shared unspent budget in nats.
func (bk *Bank) BudgetRemaining() float64 { return float64(bk.BudgetUnits()) * chargeUnit }

// Cycles returns the Bank clock.
func (bk *Bank) Cycles() uint64 { return bk.cycles }
