//go:build race

package fleet

// raceEnabled reports a -race build: the detector adds allocations of
// its own, so allocation budgets do not apply.
const raceEnabled = true
