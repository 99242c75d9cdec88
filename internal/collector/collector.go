// Package collector is the server side of the fleet protocol: it
// ingests noised reports from N concurrent nodes over lossy links,
// deduplicates them idempotently by (node, seq), ACKs what it has
// durably recorded, and degrades gracefully when a node goes bad.
//
// The ingest plane is sharded and event-driven. Every attached node
// is owned by exactly one shard, chosen by hash(NodeID) % Shards; a
// shard holds its nodes' dedup maps, breaker state, and stats under
// its own lock, so shards never contend with each other. A collector
// runs no goroutine and starts no timer: its owner calls Tick once per
// Period, and each link endpoint registers a readiness hook
// (transport.Endpoint.SetNotify) that fires on the goroutine that
// landed a frame (usually the node's own sender): under the shard
// lock it pulls that one link dry with TryRecv, applies dedup +
// circuit-breaker policy, and sends the link's ACKs back before
// releasing the lock, so on a lossless link a node's ACK is queued
// before its Send returns. Idle links cost nothing — no goroutine, no
// poll, no lock traffic.
//
// Because the ACK is sent only after the report is recorded, "the
// agent saw an ACK" implies "the collector counted the value":
// at-least-once delivery composes with idempotent dedup into
// exactly-once accounting. Backpressure is the shard lock — a sender
// into a busy shard waits for it — and the link's own bounded receive
// queue: frames that overflow there look exactly like packet loss, and
// the node's retry loop recovers them.
//
// Node state is confined to its shard and every per-node decision
// depends only on that node's own report stream, so any shard count
// produces bit-identical per-node values, stats, and breaker
// transitions (see TestShardEquivalenceProperty).
//
// Per-node circuit breakers trip after consecutive failures (idle
// ticks of silence or reports flagged URNG-unhealthy), discard
// traffic while open, then half-open and probe: the next healthy
// report closes the breaker, an unhealthy one re-opens it. While a
// breaker is open — or a node reports its privacy budget exhausted —
// queries for that node serve the last-ACKed cached value, marked
// degraded, instead of failing.
package collector

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ulpdp/internal/nvm"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
)

// BreakerState is a per-node circuit breaker state.
type BreakerState uint8

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen discards traffic while the node cools off.
	BreakerOpen
	// BreakerHalfOpen admits the next report as a probe.
	BreakerHalfOpen
)

// openTicks is how many idle ticks an open breaker waits before
// half-opening to probe.
const openTicks = 4

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// Config parameterizes a Collector. The zero value gets
// simulation-friendly defaults.
type Config struct {
	// PollTimeout is the idle-tick period (default 2ms): the collector's
	// owner calls Tick once per period (see Period). A tick in which a
	// node delivered nothing is one breaker failure tick for that node —
	// the event-driven equivalent of the old per-node empty 2ms poll.
	PollTimeout time.Duration
	// Shards is the number of independent ingest shards (default 8,
	// clamped to [1, 1024]). Each shard owns the dedup/breaker/stats
	// state of the nodes hashed to it and is drained by at most one
	// goroutine at a time. Per-node results are bit-identical for any
	// shard count.
	Shards int
	// BreakerThreshold is the consecutive-failure count that trips a
	// node's breaker (default 8).
	BreakerThreshold int
	// CompactEvery is how many journaled admissions a shard absorbs
	// before compacting its checkpoint into a fresh snapshot (default
	// 4096; only meaningful with a durable Store attached via
	// NewDurable or Recover).
	CompactEvery int
	// Obs is an optional telemetry plane. Nil detaches it: every
	// instrument call is then a nil-receiver no-op.
	Obs *Metrics

	// procDelay stalls a drain per report, in real time, while it holds
	// the shard lock; tests use it to force slow-consumer backpressure
	// (senders into the shard wait on the lock).
	procDelay time.Duration
}

// Stats counts collector events; read a snapshot with Collector.Stats.
// Counters are lock-striped per shard and summed on read.
type Stats struct {
	// Accepted counts first-time (node, seq) reports recorded.
	Accepted uint64
	// Duplicates counts re-deliveries of an already-recorded
	// (node, seq); they are re-ACKed but change nothing.
	Duplicates uint64
	// BreakerDrops counts reports discarded by an open breaker.
	BreakerDrops uint64
	// Timeouts counts per-node idle ticks (a node delivering nothing
	// between two Ticks).
	Timeouts uint64
	// FailClosed counts reports dropped unACKed because the shard's
	// checkpoint journal lost power: with no way to make an admission
	// durable, the shard stops ACKing entirely (the fail-closed rule
	// inherited from the DP-Box budget ledger) and the nodes' retry
	// loops carry the reports across the restart.
	FailClosed uint64
}

func (s *Stats) add(o Stats) {
	s.Accepted += o.Accepted
	s.Duplicates += o.Duplicates
	s.BreakerDrops += o.BreakerDrops
	s.Timeouts += o.Timeouts
	s.FailClosed += o.FailClosed
}

// denseLimit bounds the flat per-node value slice: sequence numbers
// below it index the slice directly; anything at or above spills to a
// map, so one hostile far-future seq cannot force a huge allocation.
const denseLimit = 1 << 20

// valueStore holds one node's distinct recorded (seq, value) pairs.
// Agents number reports densely from zero, so the hot path is a flat
// slice indexed by seq plus a seen-bitmap (reorder gaps are just
// unset bits) — no hashing, no per-insert bucket churn, amortized
// zero allocations. Far-out seqs fall back to a spill map.
type valueStore struct {
	vals  []int64
	seen  []uint64 // bitmap over vals: bit seq set once recorded
	seen0 [1]uint64
	far   map[uint64]int64
	n     int // distinct seqs recorded
}

// has reports whether seq was already recorded.
func (vs *valueStore) has(seq uint64) bool {
	if seq < uint64(len(vs.vals)) {
		return vs.seen[seq>>6]&(1<<(seq&63)) != 0
	}
	_, ok := vs.far[seq]
	return ok
}

// get returns the recorded value for seq (zero if absent; callers
// check has first).
func (vs *valueStore) get(seq uint64) int64 {
	if seq < uint64(len(vs.vals)) {
		return vs.vals[seq]
	}
	return vs.far[seq]
}

// minDense is the dense window's first capacity, so a node's first
// few reports cost one slice allocation, not one per append.
const minDense = 8

// put records a first-time seq. Callers guarantee !has(seq).
func (vs *valueStore) put(seq uint64, v int64) {
	if seq < denseLimit {
		if n := int(seq) + 1; n > len(vs.vals) {
			if n > cap(vs.vals) {
				// Double from a small floor: amortized O(1) allocations
				// per node however its seqs arrive.
				grown := make([]int64, n, max(n, min(2*cap(vs.vals), denseLimit), minDense))
				copy(grown, vs.vals)
				vs.vals = grown
			}
			vs.vals = vs.vals[:n]
		}
		if vs.seen == nil {
			// The first 64 seqs' bits live inline.
			vs.seen = vs.seen0[:1]
		}
		for len(vs.seen)*64 < len(vs.vals) {
			vs.seen = append(vs.seen, 0)
		}
		vs.vals[seq] = v
		vs.seen[seq>>6] |= 1 << (seq & 63)
	} else {
		if vs.far == nil {
			vs.far = make(map[uint64]int64)
		}
		vs.far[seq] = v
	}
	vs.n++
}

// forEach visits every recorded (seq, value) pair: the dense window
// in ascending seq, then the far spill in map order.
func (vs *valueStore) forEach(f func(seq uint64, v int64)) {
	vs.forEachDense(f)
	for s, v := range vs.far {
		f(s, v)
	}
}

// forEachDense visits the dense window's pairs in ascending seq.
func (vs *valueStore) forEachDense(f func(seq uint64, v int64)) {
	for w, word := range vs.seen {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			seq := uint64(w*64 + t)
			f(seq, vs.vals[seq])
			word &^= 1 << t
		}
	}
}

// nodeState is everything the collector knows about one node.
// Guarded by its owning shard's mu.
type nodeState struct {
	id  transport.NodeID
	end *transport.Endpoint

	store valueStore // dedup + distinct recorded values

	haveAck   bool
	lastSeq   uint64 // highest ACKed seq
	lastValue int64  // its value — the graceful-degradation cache
	exhausted bool   // latest report carried FlagFromCache

	breaker    BreakerState
	consecFail int
	openLeft   int
	sawReport  bool // any frame since the last idle tick
}

// fail counts one failure against ns's breaker: an unhealthy report,
// or a silent tick while closed. A closed breaker opens at
// BreakerThreshold consecutive failures, a failed half-open probe
// reopens it at once, and opening arms the cooldown: the breaker
// half-opens after openTicks silent ticks. fail reports whether it
// opened the breaker.
func (ns *nodeState) fail(cfg *Config) bool {
	if ns.breaker == BreakerClosed {
		ns.consecFail++
		if ns.consecFail < cfg.BreakerThreshold {
			return false
		}
	}
	cfg.Obs.transition(ns.breaker, BreakerOpen)
	ns.breaker = BreakerOpen
	ns.openLeft = openTicks
	return true
}

// nodeFor returns id's record in nodes, creating it on first sight.
func nodeFor(nodes map[transport.NodeID]*nodeState, id transport.NodeID) *nodeState {
	ns := nodes[id]
	if ns == nil {
		ns = &nodeState{id: id}
		nodes[id] = ns
	}
	return ns
}

// byID orders node records by node id.
func byID(a, b *nodeState) int { return cmp.Compare(a.id, b.id) }

// ack folds an ACKed seq (already recorded) into the last-ACK cache:
// the highest seq ACKed so far wins, and the cache remembers whether
// that report announced an exhausted budget. Live ingest and
// checkpoint replay both go through it, so a recovered cache is
// bit-exact.
func (ns *nodeState) ack(seq uint64, fromCache bool) {
	if !ns.haveAck || seq >= ns.lastSeq {
		ns.haveAck = true
		ns.lastSeq = seq
		ns.lastValue = ns.store.get(seq)
		ns.exhausted = fromCache
	}
}

// NodeView is a query snapshot for one node.
type NodeView struct {
	// Value is the freshest ACKed value (the cache while degraded).
	Value int64
	// Seq is the highest ACKed sequence number.
	Seq uint64
	// Have reports whether any report was ever ACKed.
	Have bool
	// Degraded reports that Value is served from the last-ACKed
	// cache: the breaker is not closed, or the node announced its
	// budget exhausted.
	Degraded bool
	// Breaker is the node's current breaker state.
	Breaker BreakerState
	// Reports counts distinct recorded sequence numbers.
	Reports int
}

// Aggregate is the fleet-wide rollup over distinct (node, seq)
// reports. It is order-independent, so any delivery schedule that
// gets every report through yields the identical aggregate.
type Aggregate struct {
	// Nodes counts attached nodes.
	Nodes int
	// Reports counts distinct (node, seq) pairs recorded.
	Reports int
	// Sum is the sum of all distinct recorded values.
	Sum int64
	// Degraded counts nodes currently served from cache.
	Degraded int
}

// shard owns a hash partition of the fleet: its nodes' dedup and
// breaker state and a stripe of the stats, all under mu. It has no
// goroutine of its own: whoever lands a frame on one of its links
// drains that link under mu, and another goroutine landing frames in
// the same shard waits for mu, then drains its own link.
type shard struct {
	c *Collector

	mu    sync.Mutex
	nodes map[transport.NodeID]*nodeState
	// order holds the records of nodes in node-id order. The idle tick
	// walks it, not the map, so the order in which one tick flushes
	// (and so wakes) silent links is fixed by the node ids: Go
	// randomizes map iteration.
	order []*nodeState
	stats Stats

	// acks collects one drain's ACKs; reused so the steady-state
	// per-report path allocates nothing.
	acks []transport.Packet

	// j is the shard's durable checkpoint journal (nil = volatile
	// collector). dead latches once a journal write fails: the shard
	// then drops all traffic unACKed, fail closed, because it can no
	// longer promise an ACKed report survives a restart. sinceCompact
	// counts admissions journaled since the last snapshot.
	j            *Journal
	dead         bool
	sinceCompact int
}

// Collector ingests, dedups, ACKs, and aggregates fleet reports.
type Collector struct {
	cfg     Config
	store   *Store
	shards  []*shard
	stopped atomic.Bool
	silent  []*transport.Endpoint // one tick's silent links; reused
}

// New starts a volatile collector: dedup state lives purely in memory
// and dies with the process. Use NewDurable to add crash-consistent
// checkpointing, and Recover to rebuild from a store after a crash.
func New(cfg Config) *Collector { return build(cfg, nil, nil) }

// NewDurable starts a collector whose shards journal every admission
// to the store before ACKing it. The store must be fresh (never
// written); a store holding prior state is a crashed collector's and
// must go through Recover — silently reseeding it would erase ACKed
// reports.
func NewDurable(cfg Config, store *Store) (*Collector, error) {
	if store == nil {
		return nil, errors.New("collector: NewDurable requires a store")
	}
	if !store.Empty() {
		return nil, errors.New("collector: store holds prior state; use Recover")
	}
	for i, j := range store.shards {
		if !j.seed() {
			return nil, fmt.Errorf("collector: seeding shard %d checkpoint: store power lost", i)
		}
	}
	return build(cfg, store, nil), nil
}

// build assembles a collector, optionally durable (store non-nil) and
// optionally from replayed node tables (rec non-nil, indexed by shard,
// each installed as its shard's table as is; recovered nodes start
// with no endpoint until Attach binds one).
func build(cfg Config, store *Store, rec []map[transport.NodeID]*nodeState) *Collector {
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 2 * time.Millisecond
	}
	cfg.Shards = clampShards(cfg.Shards)
	if store != nil {
		// The node→shard hash depends on the shard count, and each
		// shard's journal holds exactly its own nodes: the store's
		// geometry wins.
		cfg.Shards = store.Shards()
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 8
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4096
	}
	if cfg.Obs == nil {
		cfg.Obs = &noMetrics
	}
	c := &Collector{
		cfg:    cfg,
		store:  store,
		shards: make([]*shard, cfg.Shards),
	}
	for i := range c.shards {
		sh := &shard{c: c, nodes: make(map[transport.NodeID]*nodeState)}
		if store != nil {
			sh.j = store.Shard(i)
		}
		if rec != nil {
			sh.nodes = rec[i]
			for _, ns := range sh.nodes {
				sh.order = append(sh.order, ns)
			}
			slices.SortFunc(sh.order, byID)
		}
		c.shards[i] = sh
	}
	return c
}

// Recover is the collector's secure-boot path after a crash: it
// revives the store, replays every shard's checkpoint journal into
// that shard's node table, compacts each into a fresh snapshot, and
// starts a collector that adopts the tables as is, so its dedup state
// is exactly what it had ACKed before the crash. Node endpoints are
// not durable — re-Attach each node's link, after which
// retransmissions of already-admitted reports are absorbed as
// duplicates and re-ACKed bit-exactly. Any shard whose journal is
// corrupt (beyond an ordinary torn tail) refuses recovery entirely:
// fail closed, never admit a duplicate.
func Recover(cfg Config, store *Store) (*Collector, error) {
	if store == nil {
		return nil, errors.New("collector: recovery requires a store")
	}
	store.Revive()
	rec := make([]map[transport.NodeID]*nodeState, store.Shards())
	replayed := 0
	for i, j := range store.shards {
		nodes, n, err := j.replay()
		if err != nil {
			return nil, fmt.Errorf("collector: shard %d: %w", i, err)
		}
		rec[i] = nodes
		replayed += n
		if !j.compact(nodes) {
			return nil, fmt.Errorf("collector: shard %d: compaction failed (store power lost)", i)
		}
	}
	c := build(cfg, store, rec)
	c.cfg.Obs.RecoverShards.Add(uint64(store.Shards()))
	c.cfg.Obs.RecoverReplayed.Add(uint64(replayed))
	return c, nil
}

// shardFor maps a node to its owning shard: hash(NodeID) % Shards.
func (c *Collector) shardFor(id transport.NodeID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15 // Fibonacci hashing spreads dense IDs
	return c.shards[(h>>32)%uint64(len(c.shards))]
}

// Attach registers a node's link endpoint with its owning shard and
// installs the readiness hook. Attaching the same ID twice is an
// error — except onto a crash-recovered node, which exists with its
// dedup state but no endpoint until Attach binds one.
func (c *Collector) Attach(id transport.NodeID, end *transport.Endpoint) error {
	sh := c.shardFor(id)
	sh.mu.Lock()
	ns := sh.nodes[id]
	if ns == nil {
		ns = nodeFor(sh.nodes, id)
		i, _ := slices.BinarySearchFunc(sh.order, ns, byID)
		sh.order = slices.Insert(sh.order, i, ns)
	}
	if ns.end != nil {
		sh.mu.Unlock()
		return fmt.Errorf("collector: node %d already attached", id)
	}
	ns.end = end
	sh.mu.Unlock()

	end.SetNotify(func() { sh.drain(id, ns) })
	// Frames may have landed before the hook existed: drain them now.
	sh.drain(id, ns)
	return nil
}

// Close stops the collector: a later Tick changes nothing, and Close
// is a barrier for drains, which run on senders' goroutines: a drain
// checks stopped under its shard lock, so once Close has taken every
// shard lock once no drain touches shard state, a link or the
// checkpoint store again. Frames that land afterwards stay queued on
// their links.
func (c *Collector) Close() {
	c.stopped.Store(true)
	for _, sh := range c.shards {
		sh.mu.Lock() // waits out a drain already past its stopped check
		sh.mu.Unlock()
	}
}

// Period is the idle-tick period: the collector's owner calls Tick
// once per Period, the first one Period after building or recovering
// the collector.
func (c *Collector) Period() time.Duration { return c.cfg.PollTimeout }

// Tick is the collector's idle tick, one for every shard. It first
// accounts silence on every shard, then flushes the silent links'
// holdbacks: no frame a flush releases, and no ACK it provokes, can
// reach a shard before that shard's silence was counted, so the tick's
// outcome does not depend on which shard drains first. A Tick after
// Close does nothing. Ticks must not overlap each other or Close.
func (c *Collector) Tick() {
	if c.stopped.Load() {
		return
	}
	for _, sh := range c.shards {
		c.silent = sh.countSilence(c.silent)
	}
	for i, e := range c.silent {
		e.FlushHeld()
		c.silent[i] = nil
	}
	c.silent = c.silent[:0]
}

// drain pulls one node's link dry with TryRecv and applies breaker +
// dedup policy to each report under the shard lock, then sends the
// link's ACKs as one SendBatch before releasing it. Every ACK follows
// its report's recording (after the commit word on a durable shard),
// so "ACKed implies counted" holds, and one batch per drain keeps the
// link's fate order a function of the protocol: the node cannot react
// to its first ACK while later ones are still drawing their fates.
// Because the ACKs go out under the shard lock, a node end must never
// carry a notify hook that re-enters the collector. On a closed
// collector drain leaves every frame on its link.
func (sh *shard) drain(id transport.NodeID, ns *nodeState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.c.stopped.Load() {
		return
	}
	batch := 0
	for {
		pkt, ok := ns.end.TryRecv()
		if !ok {
			break
		}
		if pkt.Kind != transport.KindReport || pkt.Node != id {
			continue // stray or echoed frame; the checksum already passed, but it is not ours
		}
		if d := sh.c.cfg.procDelay; d > 0 {
			time.Sleep(d)
		}
		sh.handleLocked(id, ns, pkt)
		batch++
	}
	// Queue-depth telemetry is sampled once per drain (the frames this
	// pass pulled off the link) instead of on every enqueue and dequeue.
	if batch > 0 {
		sh.c.cfg.Obs.QueueDepth.Set(int64(batch))
	}
	if len(sh.acks) > 0 {
		ns.end.SendBatch(sh.acks)
		sh.acks = sh.acks[:0]
	}
}

// handleLocked applies breaker policy and dedup for one report and
// queues its ACK. On a durable collector the admission is journaled
// (intent → record → commit) before the in-memory record and the ACK,
// so an ACK always implies a crash-survivable admission. Callers hold
// sh.mu.
func (sh *shard) handleLocked(id transport.NodeID, ns *nodeState, pkt transport.Packet) {
	m := sh.c.cfg.Obs
	if sh.dead {
		// The checkpoint journal lost power: nothing this shard admits
		// can be made durable, so nothing is ACKed — not even
		// duplicates, whose re-ACK costs nothing but would keep nodes
		// trusting a collector that can no longer keep its promise.
		sh.stats.FailClosed++
		m.FailClosed.Inc()
		return
	}
	ns.sawReport = true
	unhealthy := pkt.Flags&transport.FlagUnhealthy != 0
	if ns.breaker == BreakerOpen || unhealthy && ns.fail(&sh.c.cfg) {
		// Cooling off, or this report opened the breaker: traffic is
		// discarded unACKed; the node's retries will land once the
		// breaker half-opens.
		sh.stats.BreakerDrops++
		m.BreakerDrops.Inc()
		return
	}
	if !unhealthy {
		if ns.breaker == BreakerHalfOpen {
			ns.breaker = BreakerClosed
			m.transition(BreakerHalfOpen, BreakerClosed)
		}
		ns.consecFail = 0
	}

	if ns.store.has(pkt.Seq) {
		sh.stats.Duplicates++
		m.Duplicates.Inc()
	} else {
		// The shard has decided to admit: stamp before the durable
		// append so the admit→checkpoint transition is attributable.
		m.Flight.Record(int64(id), pkt.Seq, obs.StageAdmit)
		if sh.j != nil {
			var aflags uint16
			if pkt.Flags&transport.FlagFromCache != 0 {
				aflags |= admFlagFromCache
			}
			if !sh.j.appendAdmission(uint16(id), pkt.Seq, pkt.Value, aflags) {
				// Torn admission: the commit never landed, so replay
				// rolls it back — drop unACKed and latch fail-closed.
				sh.dead = true
				sh.stats.FailClosed++
				m.FailClosed.Inc()
				return
			}
			sh.sinceCompact++
			m.CheckpointBytes.Add(2 * admissionWords)
			m.Flight.Record(int64(id), pkt.Seq, obs.StageCheckpoint)
		}
		ns.store.put(pkt.Seq, pkt.Value)
		sh.stats.Accepted++
		m.Accepted.Inc()
	}
	ns.ack(pkt.Seq, pkt.Flags&transport.FlagFromCache != 0)
	// Compact only after the last-ACK cache absorbed this admission,
	// so the snapshot never trails the state it claims to capture.
	if sh.j != nil && sh.sinceCompact >= sh.c.cfg.CompactEvery {
		sh.compactLocked()
	}

	// ACK after recording (including duplicate re-ACKs: the node may
	// have missed the first ACK).
	sh.acks = append(sh.acks, transport.Packet{Kind: transport.KindAck, Node: id, Seq: pkt.Seq})
}

// compactLocked rewrites the shard's checkpoint as a fresh snapshot
// of its node table — every node's dedup store, last-ACK cache, and
// breaker state — swapped in whole so a crash mid-compaction loses
// nothing. A compaction that cannot complete (store power lost)
// latches the shard dead. Callers hold sh.mu.
func (sh *shard) compactLocked() {
	if !sh.j.compact(sh.nodes) {
		sh.dead = true
		return
	}
	sh.sinceCompact = 0
	sh.c.cfg.Obs.Compactions.Inc()
	sh.c.cfg.Obs.CheckpointBytes.Add(uint64(2 * sh.j.bankLen()))
}

// countSilence feeds one silent tick into the breaker of every node
// that delivered nothing since the last tick, walking only this
// shard's nodes, in node-id order, under this shard's lock. It appends
// each silent link to silent for the caller to flush its reorder
// holdbacks (the old per-node Recv deadline did this), so a delayed
// frame on a drained direction is late, never lost.
func (sh *shard) countSilence(silent []*transport.Endpoint) []*transport.Endpoint {
	m := sh.c.cfg.Obs
	sh.mu.Lock()
	for _, ns := range sh.order {
		if ns.end == nil {
			continue // recovered, not yet re-attached: no link to tick
		}
		if ns.sawReport {
			ns.sawReport = false
			continue
		}
		silent = append(silent, ns.end)
		sh.stats.Timeouts++
		m.Timeouts.Inc()
		switch ns.breaker {
		case BreakerClosed:
			ns.fail(&sh.c.cfg)
		case BreakerOpen:
			ns.openLeft--
			if ns.openLeft <= 0 {
				ns.breaker = BreakerHalfOpen
				m.transition(BreakerOpen, BreakerHalfOpen)
			}
		case BreakerHalfOpen:
			// Still silent; keep waiting for the probe.
		}
	}
	sh.mu.Unlock()
	return silent
}

// Stats returns a snapshot of the collector counters, summed across
// the shard stripes.
func (c *Collector) Stats() Stats {
	var total Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		total.add(sh.stats)
		sh.mu.Unlock()
	}
	return total
}

// NVMStats aggregates the checkpoint store's engine statistics under
// the shard locks, so it is safe while senders are draining shards. A
// volatile collector returns the zero Stats.
func (c *Collector) NVMStats() nvm.Stats {
	if c.store == nil {
		return nvm.Stats{}
	}
	agg := nvm.Stats{
		Banks:      c.store.med.Banks(),
		Writes:     c.store.Writes(),
		FailClosed: c.store.Dead(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := sh.j.r.Stats()
		sh.mu.Unlock()
		agg.Words += st.Words
		agg.Compactions += st.Compactions
	}
	return agg
}

// Node returns the query view for one node: the freshest value, or
// the last-ACKed cache marked degraded when the breaker is not
// closed or the node's budget is exhausted.
func (c *Collector) Node(id transport.NodeID) (NodeView, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ns := sh.nodes[id]
	if ns == nil {
		return NodeView{}, false
	}
	return NodeView{
		Value:    ns.lastValue,
		Seq:      ns.lastSeq,
		Have:     ns.haveAck,
		Degraded: ns.breaker != BreakerClosed || ns.exhausted,
		Breaker:  ns.breaker,
		Reports:  ns.store.n,
	}, true
}

// Values returns a copy of a node's distinct recorded (seq, value)
// pairs.
func (c *Collector) Values(id transport.NodeID) map[uint64]int64 {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ns := sh.nodes[id]
	if ns == nil {
		return nil
	}
	out := make(map[uint64]int64, ns.store.n)
	ns.store.forEach(func(s uint64, v int64) {
		out[s] = v
	})
	return out
}

// Aggregate rolls up every node's distinct reports. Shards are
// visited in turn, so the rollup is a consistent snapshot per shard
// (and exact whenever the fleet is quiescent, which is when the
// harness reads it).
func (c *Collector) Aggregate() Aggregate {
	var a Aggregate
	for _, sh := range c.shards {
		sh.mu.Lock()
		a.Nodes += len(sh.nodes)
		for _, ns := range sh.nodes {
			a.Reports += ns.store.n
			ns.store.forEach(func(_ uint64, v int64) {
				a.Sum += v
			})
			if ns.breaker != BreakerClosed || ns.exhausted {
				a.Degraded++
			}
		}
		sh.mu.Unlock()
	}
	return a
}
