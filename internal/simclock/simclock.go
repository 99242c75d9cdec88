// Package simclock is the time source of the fleet's report path: a
// clock with Now and a timer.
//
// Two implementations share the interface. Wall is real time, the
// default wherever no clock is injected: a Timer is time.AfterFunc.
// Virtual is simulated time for deterministic fleet runs. It has one
// owner, the goroutine that calls its Wait, and it advances only
// there: Wait jumps straight to the earlier of its deadline and the
// earliest armed timer, and runs that timer on the owner. Idle time
// between reports then costs no wall time at all, and a run's event
// order depends only on its seeds.
//
// Timers sharing one deadline fire as a group, and every timer due at
// or before the owner's deadline runs before its wait fires, so a
// collector's idle tick always runs before the owner wakes at the same
// instant: a fleet's event loop orders its own work there (crash poll
// first, then node steps in node order) and steps it only after the
// tick has run.
package simclock

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Never is a deadline that does not fire: a Wait on it ends only by
// Signal.
const Never = time.Duration(math.MaxInt64)

// Clock is a source of time plus timers.
type Clock interface {
	// Now is the time elapsed since the clock's epoch.
	Now() time.Duration
	// NewTimer returns a stopped timer that calls fn once each time the
	// clock reaches the deadline it was last Reset to.
	NewTimer(func()) Timer
}

// Timer calls a function at a deadline. On the wall clock fn runs on a
// goroutine of its own, as with time.AfterFunc. On a virtual clock it
// runs on the owner, inside the Wait that reached the deadline, so a
// timer is a clock event that costs no goroutine and no hand-off. fn
// may Signal the owner and Reset its own timer, but must not Wait.
type Timer interface {
	// Reset arms the timer for deadline, replacing any earlier arming.
	Reset(deadline time.Duration)
	// Stop disarms the timer. A call of fn that is already running is
	// not recalled.
	Stop()
}

// Or returns c, or Wall when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

// --- wall clock ---

// Wall is real time.
var Wall Clock = wallClock{}

var wallEpoch = time.Now()

type wallClock struct{}

func (wallClock) Now() time.Duration { return time.Since(wallEpoch) }

func (wallClock) NewTimer(fn func()) Timer {
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return wallTimer{t}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Reset(deadline time.Duration) { w.t.Reset(deadline - Wall.Now()) }
func (w wallTimer) Stop()                        { w.t.Stop() }

// --- virtual clock ---

// Virtual is simulated time with one owner. Its zero value is not
// usable; build one with NewVirtual. Now, Signal and the timers' Reset
// and Stop may be called from any goroutine; Wait only by the owner.
type Virtual struct {
	now       atomic.Int64
	signalled atomic.Bool
	res       int64 // deadlines round up to a multiple of this

	mu sync.Mutex
	q  timerHeap // armed timers, earliest deadline first
}

// NewVirtual returns a virtual clock at time zero. Deadlines round up
// to a multiple of resolution (exact when resolution ≤ 1ns), so events
// due within one step fire together.
func NewVirtual(resolution time.Duration) *Virtual {
	if resolution < 1 {
		resolution = 1
	}
	return &Virtual{res: int64(resolution)}
}

// Now returns the current simulated time.
func (c *Virtual) Now() time.Duration { return time.Duration(c.now.Load()) }

// NewTimer returns a stopped timer.
func (c *Virtual) NewTimer(fn func()) Timer {
	return &vtimer{c: c, fn: fn, idx: -1}
}

// Signal ends the owner's current Wait unfired once the timer group it
// is running returns, or makes its next Wait return at once.
func (c *Virtual) Signal() { c.signalled.Store(true) }

// Wait advances the clock for its owner until deadline or a Signal. It
// repeatedly jumps to the earlier of deadline and the earliest armed
// group of timers sharing a deadline, and runs that group on the
// calling goroutine; timers tied with deadline run first. It returns false as
// soon as a Signal has arrived, checked before each group and after
// it, and true once the clock reaches deadline. A Wait on Never with
// no timer armed could never end: it panics.
func (c *Virtual) Wait(deadline time.Duration) (fired bool) {
	d := int64(deadline)
	if deadline != Never {
		d = c.round(deadline)
	}
	for !c.signalled.Swap(false) {
		c.mu.Lock()
		if len(c.q) == 0 || c.q[0].deadline > d {
			c.mu.Unlock()
			if deadline == Never {
				panic("simclock: Wait on Never with no timer armed would never return")
			}
			c.advance(d)
			return true
		}
		at := c.q[0].deadline
		c.advance(at)
		for len(c.q) > 0 && c.q[0].deadline == at {
			t := heap.Pop(&c.q).(*vtimer)
			c.mu.Unlock()
			t.fn()
			c.mu.Lock()
		}
		c.mu.Unlock()
	}
	return false
}

// advance moves the clock forward to d; it never moves back.
func (c *Virtual) advance(d int64) {
	if d > c.now.Load() {
		c.now.Store(d)
	}
}

// round rounds a deadline up to the clock's resolution.
func (c *Virtual) round(deadline time.Duration) int64 {
	d := int64(deadline)
	if r := d % c.res; r > 0 {
		d += c.res - r
	} else if r < 0 {
		d -= r
	}
	return d
}

// vtimer is a virtual timer: an entry in its clock's heap while armed.
type vtimer struct {
	c  *Virtual
	fn func()

	// Guarded by c.mu.
	deadline int64
	idx      int // heap index; -1 when not armed
}

// Reset arms a timer for deadline.
func (t *vtimer) Reset(deadline time.Duration) {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.idx >= 0 {
		heap.Remove(&c.q, t.idx)
	}
	t.deadline = c.round(deadline)
	heap.Push(&c.q, t)
}

// Stop disarms a timer.
func (t *vtimer) Stop() {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.idx >= 0 {
		heap.Remove(&c.q, t.idx)
	}
}

// timerHeap orders armed timers by deadline.
type timerHeap []*vtimer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	t.idx = -1
	*h = old[:len(old)-1]
	return t
}
