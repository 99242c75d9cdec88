// Package simclock is the time source of the fleet's report path: a
// clock with Now plus a reusable, cancellable deadline wait.
//
// Two implementations share the interface. Wall is real time, the
// default wherever no clock is injected: a Waiter is one reused
// time.Timer plus a doorbell. Virtual is simulated time for
// deterministic fleet runs: it never advances while any participant
// is running, and when the last one parks it jumps straight to the
// earliest armed deadline. Idle time between reports then costs no
// wall time at all, and a run's event order depends only on its
// seeds.
//
// The virtual clock counts outstanding work in one atomic counter. A
// participant is a goroutine that waits on the clock: it is counted
// from Join (called by whoever starts it) until it parks in a Wait or
// calls Leave. Whoever wakes a parked participant — a Signal for an
// arriving frame or ACK, a shutdown — counts it back in before
// the wake is delivered, so handed-over work is never invisible to
// the counter. Whoever brings the count to zero fires the earliest
// group of waiters sharing one (deadline, class); the clock fires the
// next group only once the count has returned to zero. Classes break
// deadline ties in a fixed order (Tick, then Supervisor, then Agent),
// so a collector's idle tick always runs before the fleet's control
// loop polls, recovers or quiesces at the same instant, and both run
// before an agent's timeout set for it.
package simclock

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Never is a deadline that does not fire: a Wait on it ends only by
// Signal (or the done channel).
const Never = time.Duration(math.MaxInt64)

// Class orders waiters whose deadlines coincide on the virtual clock.
type Class uint8

const (
	// Tick is the collector's idle ticker, the one goroutine a
	// collector runs; its shards are drained on the goroutines that
	// send to them.
	Tick Class = iota
	// Supervisor is the fleet run's control loop: it waits out the
	// node workers, polls a crash-scheduled collector store and
	// recovers a dead collector, then quiesces the fleet.
	Supervisor
	// Agent is a node agent's ACK wait or backoff pause.
	Agent
)

// Clock is a source of time plus deadline waits.
type Clock interface {
	// Now is the time elapsed since the clock's epoch.
	Now() time.Duration
	// NewWaiter returns a reusable wait for one participant.
	NewWaiter(Class) Waiter
	// Join counts one more running participant. Call it before the
	// participant's goroutine starts.
	Join()
	// Leave retires a running participant for good.
	Leave()
}

// Waiter is one participant's reusable deadline wait. Wait is called
// by its owner only; Signal may be called from any goroutine.
type Waiter interface {
	// Wait blocks until the clock reaches deadline, the waiter is
	// signalled, or done closes (nil: never). It reports whether the
	// deadline fired. A signal that arrives while the owner is not
	// waiting makes the next Wait return at once, so callers re-check
	// their condition after every return.
	Wait(deadline time.Duration, done <-chan struct{}) (fired bool)
	// Signal wakes the waiter, or arms its next Wait to return at once.
	Signal()
}

// Or returns c, or Wall when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

// --- wall clock ---

// Wall is real time. Join and Leave are no-ops.
var Wall Clock = wallClock{}

var wallEpoch = time.Now()

type wallClock struct{}

func (wallClock) Now() time.Duration { return time.Since(wallEpoch) }
func (wallClock) Join()              {}
func (wallClock) Leave()             {}

func (wallClock) NewWaiter(Class) Waiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &wallWaiter{bell: make(chan struct{}, 1), t: t}
}

// wallWaiter reuses one timer for every Wait. Stop-then-drain before
// Reset keeps a stale expiry out of the channel under both the old and
// the Go 1.23 timer semantics, and neither allocates.
type wallWaiter struct {
	bell chan struct{}
	t    *time.Timer
}

func (w *wallWaiter) Signal() {
	select {
	case w.bell <- struct{}{}:
	default:
	}
}

func (w *wallWaiter) Wait(deadline time.Duration, done <-chan struct{}) bool {
	select {
	case <-w.bell:
		return false
	default:
	}
	var expiry <-chan time.Time
	if deadline != Never {
		d := deadline - Wall.Now()
		if d <= 0 {
			return true
		}
		w.t.Reset(d)
		expiry = w.t.C
	}
	select {
	case <-w.bell:
	case <-expiry:
		return true
	case <-done:
	}
	if expiry != nil && !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	return false
}

// --- virtual clock ---

// Waiter states. A waiter moves running → parked under the clock's
// lock; every parked → running transition sends exactly one token on
// the waiter's channel, which the owner's Wait consumes.
const (
	running int32 = iota
	signalled
	parked
)

// Virtual is simulated time. Its zero value is not usable; build one
// with NewVirtual. The goroutine that creates it should Join first if
// it will itself wait on the clock.
type Virtual struct {
	busy atomic.Int64
	now  atomic.Int64
	res  int64 // deadlines round up to a multiple of this

	mu   sync.Mutex
	q    waitHeap // armed waiters, earliest (deadline, class) first
	shut bool
}

// NewVirtual returns a virtual clock at time zero with no
// participants. Deadlines round up to a multiple of resolution (exact
// when resolution ≤ 1ns), so waits due within one step fire as one
// group and run in parallel instead of each freezing the rest of the
// fleet in turn.
func NewVirtual(resolution time.Duration) *Virtual {
	if resolution < 1 {
		resolution = 1
	}
	return &Virtual{res: int64(resolution)}
}

// Now returns the current simulated time.
func (c *Virtual) Now() time.Duration { return time.Duration(c.now.Load()) }

// Join counts one more running participant.
func (c *Virtual) Join() { c.busy.Add(1) }

// Leave retires a running participant; if it was the last one running,
// the earliest waiting group fires.
func (c *Virtual) Leave() {
	if c.busy.Add(-1) > 0 {
		return
	}
	c.mu.Lock()
	c.fireLocked()
	c.mu.Unlock()
}

// Busy returns the number of participants currently counted as
// running.
func (c *Virtual) Busy() int64 { return c.busy.Load() }

// Armed returns the number of waiters parked with a deadline.
func (c *Virtual) Armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.q)
}

// Shutdown fires every waiter parked on a deadline and turns every
// later Wait into a short real-time pause: the liveness backstop for a
// run whose wall-clock deadline expired. Waits on Never still end only
// by Signal or done. Counting stops mattering once it is called.
func (c *Virtual) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shut = true
	for len(c.q) > 0 {
		c.wakeLocked(heap.Pop(&c.q).(*vwaiter), true)
	}
}

// NewWaiter returns a waiter of the given class.
func (c *Virtual) NewWaiter(cl Class) Waiter {
	return &vwaiter{c: c, class: cl, ch: make(chan struct{}, 1), idx: -1}
}

// fireLocked fires the earliest (deadline, class) group if nothing is
// running. Callers hold c.mu.
func (c *Virtual) fireLocked() {
	n := c.busy.Load()
	if n < 0 {
		panic("simclock: more waits and leaves than participants")
	}
	if n != 0 || len(c.q) == 0 {
		return
	}
	d, cl := c.q[0].deadline, c.q[0].class
	if d > c.now.Load() {
		c.now.Store(d)
	}
	for len(c.q) > 0 && c.q[0].deadline == d && c.q[0].class == cl {
		c.wakeLocked(heap.Pop(&c.q).(*vwaiter), true)
	}
}

// wakeLocked counts a parked waiter back in and hands it its token.
// The waiter must already be out of the heap. Callers hold c.mu.
func (c *Virtual) wakeLocked(w *vwaiter, fired bool) {
	w.fired = fired
	w.state.Store(running)
	c.busy.Add(1)
	w.ch <- struct{}{}
}

// unparkLocked wakes a parked waiter early (a signal or its done
// channel). Callers hold c.mu.
func (c *Virtual) unparkLocked(w *vwaiter) {
	if w.idx >= 0 {
		heap.Remove(&c.q, w.idx)
	}
	c.wakeLocked(w, false)
}

type vwaiter struct {
	c     *Virtual
	class Class
	ch    chan struct{}
	state atomic.Int32

	// Guarded by c.mu.
	deadline int64
	idx      int // heap index; -1 when not armed
	fired    bool
}

func (w *vwaiter) Wait(deadline time.Duration, done <-chan struct{}) bool {
	if w.state.CompareAndSwap(signalled, running) {
		return false
	}
	c := w.c
	c.mu.Lock()
	if c.shut {
		c.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		return !w.state.CompareAndSwap(signalled, running)
	}
	if !w.state.CompareAndSwap(running, parked) {
		// Signalled between the fast path and the lock.
		w.state.Store(running)
		c.mu.Unlock()
		return false
	}
	if deadline != Never {
		d := int64(deadline)
		if r := d % c.res; r > 0 {
			d += c.res - r
		} else if r < 0 {
			d -= r
		}
		w.deadline = d
		heap.Push(&c.q, w)
	}
	c.busy.Add(-1)
	c.fireLocked()
	c.mu.Unlock()

	select {
	case <-w.ch:
	case <-done:
		c.mu.Lock()
		if w.state.Load() == parked {
			c.unparkLocked(w)
		}
		c.mu.Unlock()
		<-w.ch
	}
	// The token's send happened under c.mu after fired was written.
	return w.fired
}

func (w *vwaiter) Signal() {
	for {
		switch w.state.Load() {
		case signalled:
			return
		case running:
			if w.state.CompareAndSwap(running, signalled) {
				return
			}
		case parked:
			c := w.c
			c.mu.Lock()
			if w.state.Load() == parked {
				c.unparkLocked(w)
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
		}
	}
}

// waitHeap orders armed waiters by (deadline, class).
type waitHeap []*vwaiter

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].class < h[j].class
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *waitHeap) Push(x any) {
	w := x.(*vwaiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waitHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.idx = -1
	*h = old[:len(old)-1]
	return w
}
