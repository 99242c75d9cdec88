// Package simclock is the time source of the fleet's report path: a
// clock with Now, a reusable, cancellable deadline wait and a timer.
//
// Two implementations share the interface. Wall is real time, the
// default wherever no clock is injected: a Waiter is one reused
// time.Timer plus a doorbell, and a Timer is time.AfterFunc. Virtual
// is simulated time for deterministic fleet runs: it never advances
// while any participant is running, and when the last one parks it
// jumps straight to the earliest armed deadline. Idle time between
// reports then costs no wall time at all, and a run's event order
// depends only on its seeds.
//
// The virtual clock counts outstanding work in one atomic counter. A
// participant is a goroutine that waits on the clock: it is counted
// from Join (called by whoever starts it) until it parks in a Wait or
// calls Leave. Whoever wakes a parked participant — a Signal for an
// arriving frame or ACK, a shutdown — counts it back in before
// the wake is delivered, so handed-over work is never invisible to
// the counter. Whoever brings the count to zero fires the earliest
// group of waiters sharing one (deadline, class); the clock fires the
// next group only once the count has returned to zero. A virtual timer
// in a fired group is no goroutine: it runs on the participant that
// fired the group, counted as running until it returns. Classes break
// deadline ties in a fixed order (Tick, then Agent), so a collector's
// idle tick always runs before anything else due at the same instant:
// a fleet's event loop orders its own work there (crash poll first,
// then node steps in node order) and steps it only after the tick has
// run.
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
	// Tick is the collector's idle tick, a timer; its shards are
	// drained on the goroutines that send to them.
	Tick Class = iota
	// Agent is everything else: a blocking agent's ACK wait or
	// backoff pause, or a fleet run's event loop, which steps every
	// node's agent from one goroutine.
	Agent
)

// Clock is a source of time plus deadline waits.
type Clock interface {
	// Now is the time elapsed since the clock's epoch.
	Now() time.Duration
	// NewWaiter returns a reusable wait for one participant.
	NewWaiter(Class) Waiter
	// NewTimer returns a stopped timer that calls fn once each time the
	// clock reaches the deadline it was last Reset to.
	NewTimer(Class, func()) Timer
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

// Timer calls a function at a deadline. On the wall clock fn runs on a
// goroutine of its own, as with time.AfterFunc. On a virtual clock it
// runs on the participant whose park or Leave let the clock reach the
// deadline, counted as running until fn returns, so a timer is a clock
// event that costs no goroutine and no hand-off. fn may Signal waiters
// and Reset its own timer, but must not Wait on the clock.
type Timer interface {
	// Reset arms the timer for deadline, replacing any earlier arming.
	Reset(deadline time.Duration)
	// Stop disarms the timer. A call of fn that is already due or
	// running is not recalled.
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

// Wall is real time. Join and Leave are no-ops.
var Wall Clock = wallClock{}

var wallEpoch = time.Now()

type wallClock struct{}

func (wallClock) Now() time.Duration { return time.Since(wallEpoch) }
func (wallClock) Join()              {}
func (wallClock) Leave()             {}

func (wallClock) NewTimer(_ Class, fn func()) Timer {
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return wallTimer{t}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Reset(deadline time.Duration) { w.t.Reset(deadline - Wall.Now()) }
func (w wallTimer) Stop()                        { w.t.Stop() }

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
	q    waitHeap   // armed waiters and timers, earliest (deadline, class) first
	due  []*vwaiter // fired timers, in firing order
	shut bool
	// runningDue is set while a goroutine runs the due timers.
	runningDue bool
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
	c.runDueLocked()
	c.mu.Unlock()
}

// Busy returns the number of participants currently counted as
// running.
func (c *Virtual) Busy() int64 { return c.busy.Load() }

// Armed returns the number of waiters parked with a deadline, plus
// the armed timers.
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
		if w := heap.Pop(&c.q).(*vwaiter); w.fn == nil {
			c.wakeLocked(w, true)
		}
	}
}

// NewWaiter returns a waiter of the given class.
func (c *Virtual) NewWaiter(cl Class) Waiter {
	return &vwaiter{c: c, class: cl, ch: make(chan struct{}, 1), idx: -1}
}

// NewTimer returns a stopped timer of the given class. Timers left
// armed after Shutdown never fire.
func (c *Virtual) NewTimer(cl Class, fn func()) Timer {
	return &vwaiter{c: c, class: cl, fn: fn, idx: -1}
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
		w := heap.Pop(&c.q).(*vwaiter)
		if w.fn != nil {
			c.busy.Add(1)
			c.due = append(c.due, w)
			continue
		}
		c.wakeLocked(w, true)
	}
}

// runDueLocked runs the fired timers, and any that firing after them
// makes due, on the calling goroutine, unless another goroutine is
// already running them. Each timer is counted running until its
// callback returns, which runs without c.mu; when the count then
// reaches zero the next group fires. Callers hold c.mu.
func (c *Virtual) runDueLocked() {
	if c.runningDue {
		return
	}
	c.runningDue = true
	for i := 0; i < len(c.due); i++ {
		t := c.due[i]
		c.due[i] = nil
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
		if c.busy.Add(-1) == 0 {
			c.fireLocked()
		}
	}
	c.due = c.due[:0]
	c.runningDue = false
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

// vwaiter is a virtual waiter, or with fn set a virtual timer.
type vwaiter struct {
	c     *Virtual
	class Class
	ch    chan struct{}
	state atomic.Int32
	fn    func()

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
		w.deadline = c.round(deadline)
		heap.Push(&c.q, w)
	}
	c.busy.Add(-1)
	c.fireLocked()
	// Timers this park made due run here, while the owner is parked: a
	// Signal from one counts it back in and leaves its token.
	c.runDueLocked()
	c.mu.Unlock()

	if done == nil {
		// A plain receive: cheaper than a select, and the common case
		// of a token the park itself (or a timer it ran) already sent.
		<-w.ch
	} else {
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
	}
	// The token's send happened under c.mu after fired was written.
	return w.fired
}

// Reset arms a timer for deadline.
func (w *vwaiter) Reset(deadline time.Duration) {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut {
		return
	}
	if w.idx >= 0 {
		heap.Remove(&c.q, w.idx)
	}
	w.deadline = c.round(deadline)
	heap.Push(&c.q, w)
}

// Stop disarms a timer.
func (w *vwaiter) Stop() {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.idx >= 0 {
		heap.Remove(&c.q, w.idx)
	}
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
