package nvm

import "sync/atomic"

// Power is the supply cell shared by every bank of a region: a crash
// takes the whole region down between two word writes, so the fail
// countdown is global, not per bank. Clients journal concurrently
// (the collector's shards share one cell and are drained on many
// goroutines at once), so the cell is lock-free, and permits are
// granted a record at a time: with no failure armed (the steady
// state) one record costs one load and one relaxed counter bump,
// never a shared mutex. Granting a run of
// words at once does not move the cut point — a scheduled failure
// still lands between the same two words it would word by word.
//
// The zero Power is a live cell with no scheduled failure, so a client
// can embed its cell instead of allocating one.
type Power struct {
	failAfter atomic.Int64 // 1 + remaining allowed word writes; 0 = no scheduled failure
	dead      atomic.Bool
	writes    atomic.Uint64 // total durable words across every bank
}

// NewPower returns a live cell with no scheduled failure.
func NewPower() *Power { return &Power{} }

// Allow asks for k word-write permits (one record's words) and returns
// the number granted, g ≤ k, honouring a scheduled failure: only the
// first g words may be written. g < k means the supply died after the
// g-th word — the cell is dead from then on and the region fails
// closed, exactly as if the words had been asked for one at a time.
// A dead cell grants nothing.
func (p *Power) Allow(k int) int {
	if k <= 0 || p.dead.Load() {
		return 0
	}
	for {
		n := p.failAfter.Load()
		if n == 0 {
			p.writes.Add(uint64(k))
			return k
		}
		g := min(n-1, int64(k))
		if p.failAfter.CompareAndSwap(n, n-g) {
			p.writes.Add(uint64(g))
			if g < int64(k) {
				p.dead.Store(true)
			}
			return int(g)
		}
	}
}

// FailAfterWrites schedules a power failure after n more successful
// word writes (n = 0 kills the next write). Pass a negative n to
// disarm.
func (p *Power) FailAfterWrites(n int) {
	if n < 0 {
		p.failAfter.Store(0)
		return
	}
	p.failAfter.Store(int64(n) + 1)
}

// Kill drops power immediately; all further writes fail.
func (p *Power) Kill() { p.dead.Store(true) }

// Dead reports whether the cell has lost power.
func (p *Power) Dead() bool { return p.dead.Load() }

// Revive restores power (secure boot) and disarms any scheduled
// failure.
func (p *Power) Revive() {
	p.dead.Store(false)
	p.failAfter.Store(0)
}

// Writes returns the cumulative successful word writes — the
// crash-sweep axis ("fail after the w-th word write").
func (p *Power) Writes() uint64 { return p.writes.Load() }
