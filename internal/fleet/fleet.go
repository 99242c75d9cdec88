// Package fleet is the chaos harness: it stands up N complete nodes
// (journaled DP-Box + ReportAgent) talking to one collector over
// independently seeded lossy links, optionally crash-recovering each
// node on a deterministic schedule, and then checks the two fleet
// invariants end to end:
//
//  1. Exactly-once noising: the set of distinct noised values the
//     collector recorded for a node is bit-identical to the set the
//     node's journal charged — no double-noise, no uncharged release.
//  2. Chaos-transparency: a run under any link chaos profile
//     converges to the same per-node values and the same aggregate
//     as the lossless run with the same seeds, because retransmits
//     replay journaled values and the collector dedups by (node, seq).
//
// Everything is derived from one master seed — URNG streams, link
// schedules, backoff jitter, post-crash reseeds — so a failing grid
// point reproduces exactly.
package fleet

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/core"
	"ulpdp/internal/dpbox"
	"ulpdp/internal/fault"
	"ulpdp/internal/node"
	"ulpdp/internal/obs"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// nodeBudget is each node's privacy budget in nats.
const nodeBudget = 1e6

// Config parameterizes one fleet run.
type Config struct {
	// Nodes is the fleet size (default 4).
	Nodes int
	// Reports is the reports each node delivers (default 4).
	Reports int
	// Link is the chaos profile applied to every link (zero value =
	// lossless).
	Link fault.LinkProfile
	// Seed is the master seed; every other stream derives from it.
	Seed uint64
	// CrashEvery crash-recovers each node after every k-th report
	// (0 = never). The crash lands after noising — possibly mid-
	// retry, before the ACK — so recovery must replay, not redraw.
	CrashEvery int
	// Deadline bounds the whole run (default 2 minutes).
	Deadline time.Duration
	// BreakerThreshold overrides the collector's breaker threshold
	// (default 64: chaos stalls shouldn't wedge a healthy node, and
	// if a breaker does trip, retries ride out the open window).
	BreakerThreshold int
	// Workers is the number of lifecycle slots: how many nodes are
	// booted and reporting at once (default 8×GOMAXPROCS, capped at
	// Nodes). A slot is a record that Run's event loop steps, not a
	// goroutine; a node queued behind the slots boots when one frees
	// up. Node lifecycles are mutually independent and individually
	// deterministic, so the slot count shifts timing counts
	// (retransmits, idle ticks), never values.
	Workers int
	// Shards overrides the collector's ingest shard count (0 = the
	// collector default). Per-node accounting is bit-identical for
	// any value.
	Shards int
	// Durable runs the collector on a durable checkpoint store
	// (collector.NewDurable), journaling every admission before its
	// ACK. Implied by a non-empty CollectorCrashes schedule or NVMDir.
	Durable bool
	// NVMDir, when non-empty, backs every durable region with the
	// file-backed NVM medium under this directory: the collector's
	// checkpoint store at NVMDir/collector and node i's budget journal
	// at NVMDir/node-<i>. Implies Durable. A run that finds prior
	// state there recovers it — budget ledgers, release windows,
	// collector checkpoints — and each node continues its report loop
	// where the dead process stopped (Result.Resumed), re-delivering
	// its last un-ACKed release first.
	NVMDir string
	// CollectorCrashes schedules store-wide collector crashes: each
	// ascending entry is a cumulative count of checkpoint words
	// written after startup at which the store's NVM power dies.
	// After each crash the harness closes the collector, rebuilds it
	// with collector.Recover, and re-attaches every node's link;
	// un-ACKed reports ride the nodes' retry loops across the restart
	// and land as fresh admissions or absorbed duplicates.
	CollectorCrashes []int
	// CompactEvery overrides the durable collector's checkpoint
	// snapshot cadence (0 = the collector default).
	CompactEvery int
	// Obs, when non-nil, threads one telemetry registry through every
	// layer of the run: each node's DP-Box charges odometer channel i,
	// and the run checks — live, after every report — that the fleet's
	// cumulative spend stays under the certified n·ε envelope.
	Obs *obs.Registry
	// Flight, when non-nil (requires Obs), attaches the per-report
	// flight recorder to every layer: each report's causal span —
	// noised → journal commit → tx attempts → link rx → shard admit →
	// checkpoint commit → ack — is stamped as it happens, keyed by
	// (node, seq). Purely observational: results stay bit-exact.
	Flight *obs.FlightRecorder
	// Burn, when non-nil (requires Obs), attaches the privacy
	// burn-rate alerter to the odometer's charge stream; its latched
	// status surfaces as Result.BurnAlert.
	Burn *obs.BurnAlerter
}

// NodeResult is the per-node evidence the invariants are checked
// against.
type NodeResult struct {
	// Recorded is the collector's distinct (seq, value) map.
	Recorded map[uint64]int64
	// Released is the node journal's (seq, release) map.
	Released map[uint64]dpbox.Release
	// SpendNats is the budget actually consumed.
	SpendNats float64
	// ExpectedSpendNats sums the charges reported at first noising.
	ExpectedSpendNats float64
	// Crashes counts crash-recovery cycles.
	Crashes int
	// Redeliveries counts Resume calls forced by exhausted retry
	// budgets (the at-least-once loop above the agent's own loop).
	Redeliveries int
}

// Result is one completed fleet run.
type Result struct {
	// Nodes holds per-node evidence, indexed by NodeID.
	Nodes []NodeResult
	// Aggregate is the collector's final rollup.
	Aggregate collector.Aggregate
	// Collector is the collector's event counters.
	Collector collector.Stats
	// Link sums every link's event counters.
	Link transport.Stats
	// Violations lists every invariant-1 breach detected in-run.
	Violations []string
	// CollectorRecoveries counts collector crash/recover cycles the
	// run survived.
	CollectorRecoveries int
	// CheckpointWords counts durable checkpoint words written after
	// startup (0 for a volatile collector) — the length of the
	// collector crash schedule's word-write axis.
	CheckpointWords uint64
	// Obs is the final telemetry snapshot (nil unless Config.Obs was
	// set).
	Obs *obs.Snapshot
	// Flight is the flight recorder's final snapshot (nil unless
	// Config.Flight was set), taken after the run quiesced so every
	// ACKed report's span chain is complete.
	Flight *obs.FlightSnapshot
	// Burn is the burn-rate alerter's final state (nil unless
	// Config.Burn was set).
	Burn *obs.BurnSnapshot
	// BurnAlert reports that the burn-rate alerter tripped at any
	// point during the run (latched; false without Config.Burn).
	BurnAlert bool
	// Resumed reports that prior durable state was found under
	// Config.NVMDir and recovered — the collector's checkpoint store
	// or at least one node journal — instead of starting fresh. A
	// resumed run's spends and violations cover only the reports this
	// process delivered; seed-for-seed comparison against a fresh run
	// is meaningless.
	Resumed bool
}

// simResolution is the fleet clock's step: node steps due within one
// step run together, so nodes whose jittered backoffs end a few
// microseconds apart retransmit in parallel rather than one by one.
// It is half the default backoff base, so jitter still spreads
// retransmits over several steps.
const simResolution = 100 * time.Microsecond

// splitmix64 derives independent sub-seeds from the master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// subSeed derives the seed for stream (kind, node, epoch).
func subSeed(master uint64, kind, nodeID, epoch int) uint64 {
	s := splitmix64(master ^ uint64(kind)<<48 ^ uint64(nodeID)<<16 ^ uint64(epoch))
	if s == 0 {
		s = 1
	}
	return s
}

const (
	seedURNG = iota + 1
	seedLink
	seedJitter
)

// pollEvery is the event loop's crash poll period on a
// crash-scheduled store.
const pollEvery = 200 * time.Microsecond

// colSupervisor owns the collector across its crash/recover
// lifecycle: it arms the scheduled store power failures and, when
// Run's event loop finds the store dead, closes the dead collector,
// runs collector.Recover, and re-binds every node's link endpoint to
// the recovered instance. Nodes go through attach so the endpoint
// registry survives the swap; un-ACKed reports simply keep retrying
// and land on the recovered dedup state. Nodes booted in parallel
// attach concurrently, so the registry sits under mu.
type colSupervisor struct {
	cfg     collector.Config
	store   *collector.Store // nil for a volatile collector
	violate func(string, ...any)

	mu         sync.Mutex
	col        *collector.Collector
	ends       map[transport.NodeID]*transport.Endpoint
	schedule   []int
	next       int
	base       uint64 // store words already written at startup (seeding)
	recoveries int
	broken     bool // recovery failed; stop supervising
}

func newColSupervisor(cfg collector.Config, store *collector.Store, col *collector.Collector, schedule []int, violate func(string, ...any)) *colSupervisor {
	s := &colSupervisor{
		cfg:     cfg,
		store:   store,
		violate: violate,
		col:     col,
		ends:    make(map[transport.NodeID]*transport.Endpoint),
	}
	if store != nil {
		s.schedule = schedule
		s.base = store.Writes()
		s.arm()
	}
	return s
}

// arm schedules the next crash point as a countdown from the store's
// current write cursor. A point the write stream already passed (the
// recovery's own compaction may overshoot it) fires on the very next
// word instead of silently never.
func (s *colSupervisor) arm() {
	if s.store == nil || s.next >= len(s.schedule) {
		return
	}
	target := s.base + uint64(s.schedule[s.next])
	delta := 0
	if w := s.store.Writes(); target > w {
		delta = int(target - w)
	}
	s.store.FailAfterWrites(delta)
}

// check replaces a dead collector with one rebuilt from the
// checkpoint store and re-attaches every registered endpoint, and
// reports whether it did. The store dies between two word writes at
// the armed point; the control loop notices within a poll period.
// Detection latency only widens the fail-closed window — it never
// changes what was ACKed, so results stay exact.
func (s *colSupervisor) check() bool {
	if s.store == nil || !s.store.Dead() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return false
	}
	s.col.Close()
	c, err := collector.Recover(s.cfg, s.store)
	if err != nil {
		// A pure power crash can never corrupt the checkpoint, so this
		// is itself an invariant breach. The closed collector stays for
		// the final in-memory reads.
		s.violate("collector recovery %d: %v", s.recoveries+1, err)
		s.broken = true
		return false
	}
	for id, end := range s.ends {
		if aerr := c.Attach(id, end); aerr != nil {
			s.violate("collector recovery: re-attach node %d: %v", id, aerr)
		}
	}
	s.col = c
	s.recoveries++
	s.next++
	s.arm()
	return true
}

// attach registers a node's endpoint for the lifetime of the run,
// across collector restarts.
func (s *colSupervisor) attach(id transport.NodeID, end *transport.Endpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ends[id] = end
	return s.col.Attach(id, end)
}

func (s *colSupervisor) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.col.Close()
}

// PerReportCapUnits is the certified worst-case charge of a single
// report under the fleet's box shape, in ledger charge units
// (core.ChargeUnit): Configure(1, 0, 16) sets ε = 2⁻¹ = 0.5 nat and
// Mult = 2 caps any one transaction (degraded or not) at Mult·ε =
// 1 nat = 16 units. After k reports a node's odometer can therefore
// never exceed min(budget, k·PerReportCapUnits). Callers size
// burn-rate envelopes with it against Config.Nodes·Reports.
const PerReportCapUnits = 16

// boxMultipliers are the fleet boxes' charging bands, shared by every
// node's config (the box only reads them).
var boxMultipliers = []float64{1.25, 1.5}

// boxConfig is the fleet's common DP-Box shape. All nodes share one
// metrics plane; node i charges odometer channel ch = i so the shared
// registry still decomposes spend per node.
func boxConfig(src *urng.Taus88, j *dpbox.Journal, m *dpbox.Metrics, ch int) dpbox.Config {
	return dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: boxMultipliers,
		Source:      src,
		Journal:     j,
		Obs:         m,
		ObsChannel:  ch,
	}
}

// reading is the deterministic sensor trace: node i's r-th reading.
func reading(i, r int) int64 { return int64((3*i + 5*r) % 17) }

// Run executes one fleet run and gathers the evidence.
//
// The run is one event loop on the calling goroutine, over simulated
// time that only the loop advances. Each of the Workers lifecycle
// slots boots a node, steps its agent through the node's reports,
// crash schedule and redeliveries, and when the node is done claims
// the next one. A slot waiting on its agent sits in the loop's queue
// under the step's deadline, rounded up to simResolution. The
// collector's idle tick and a crash-scheduled store's poll sit there
// too: at one instant the tick runs first, then the poll, then node
// steps in node order. The loop jumps straight to the head of the
// queue, and an ACK that a tick or a recovery lands on a node waiting
// in its ACK window steps that node at that instant.
func Run(cfg Config) (Result, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Reports <= 0 {
		cfg.Reports = 4
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 64
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
	defer cancel()

	// The whole run lives on simulated time: ACK waits, backoff and
	// idle ticks advance it only when the event loop jumps to its next
	// entry, so they cost no wall time and a run's event order depends
	// only on its seeds. The wall-clock deadline, checked on every pass
	// of the loop, stays a liveness backstop.
	f := &fleetRun{cfg: cfg, res: Result{Nodes: make([]NodeResult, cfg.Nodes)}}
	res := &f.res

	// One telemetry plane per layer, all over the same registry. The
	// box plane's odometer has one channel per node.
	var (
		linkM *transport.Metrics
		colM  *collector.Metrics
	)
	if cfg.Obs != nil {
		f.boxM = dpbox.NewMetrics(cfg.Obs, cfg.Nodes)
		linkM = transport.NewMetrics(cfg.Obs)
		f.nodeM = node.NewMetrics(cfg.Obs)
		colM = collector.NewMetrics(cfg.Obs)
		// The flight/burn instrument names are part of the fleet metric
		// schema whether or not a recorder/alerter is attached, so the
		// golden schema test pins them unconditionally.
		flightM := obs.NewFlightMetrics(cfg.Obs)
		burnM := obs.NewBurnMetrics(cfg.Obs)
		if cfg.Flight != nil {
			cfg.Flight.SetMetrics(flightM)
			f.boxM.Flight = cfg.Flight
			linkM.Flight = cfg.Flight
			f.nodeM.Flight = cfg.Flight
			colM.Flight = cfg.Flight
		}
		if cfg.Burn != nil {
			cfg.Burn.Bind(burnM)
			f.boxM.Odometer.SetBurn(cfg.Burn)
		}
	}

	colCfg := collector.Config{
		BreakerThreshold: cfg.BreakerThreshold,
		Shards:           cfg.Shards,
		CompactEvery:     cfg.CompactEvery,
		Obs:              colM,
	}
	if cfg.NVMDir != "" || cfg.Durable || len(cfg.CollectorCrashes) > 0 {
		var (
			store *collector.Store
			err   error
		)
		if cfg.NVMDir != "" {
			store, err = collector.OpenStore(filepath.Join(cfg.NVMDir, "collector"), cfg.Shards)
		} else {
			store = collector.NewStore(cfg.Shards)
		}
		if err != nil {
			return Result{}, err
		}
		defer store.Close()
		var c *collector.Collector
		if store.Empty() {
			c, err = collector.NewDurable(colCfg, store)
		} else {
			// A prior process's checkpoints survive on disk: this run
			// is a restart, not a fresh fleet.
			res.Resumed = true
			c, err = collector.Recover(colCfg, store)
		}
		if err != nil {
			return Result{}, err
		}
		f.sup = newColSupervisor(colCfg, store, c, cfg.CollectorCrashes, f.violate)
	} else {
		f.sup = newColSupervisor(colCfg, nil, collector.New(colCfg), nil, f.violate)
	}
	sup := f.sup
	defer sup.close()

	// A lossless profile never perturbs a frame, so its links get no
	// fault plane at all; chaos planes are one slice for the fleet.
	f.links = make([]*transport.Link, cfg.Nodes)
	var planes []fault.Plane
	if cfg.Link != (fault.LinkProfile{}) {
		planes = make([]fault.Plane, cfg.Nodes)
	}
	for i := range f.links {
		lc := transport.LinkConfig{Obs: linkM}
		if planes != nil {
			lc.Plane = &planes[i]
			lc.Plane.SetLossyLink(subSeed(cfg.Seed, seedLink, i, 0), cfg.Link)
		}
		f.links[i] = transport.NewLink(lc)
	}
	// Each node's URNG is reseeded in place at every boot, so its
	// crashes cost no generator.
	f.urngs = make([]urng.Taus88, cfg.Nodes)

	slots := cfg.Workers
	if slots <= 0 {
		slots = 8 * runtime.GOMAXPROCS(0)
	}
	if slots > cfg.Nodes {
		slots = cfg.Nodes
	}
	// Every collector of the run is built from colCfg, so one period
	// times the tick across recoveries.
	period := sup.col.Period()
	f.tick = lifecycle{at: period, class: classTick}
	heap.Push(&f.q, &f.tick)
	if sup.store != nil && len(sup.schedule) > 0 {
		f.poll = lifecycle{at: pollEvery, class: classPoll}
		heap.Push(&f.q, &f.poll)
	}
	// Every slot boots its first node at time zero.
	f.slots = make([]*lifecycle, slots)
	for s := range f.slots {
		f.slots[s] = &lifecycle{class: classNode, node: -1, idx: -1}
	}
	f.active = slots
	f.runBatch(f.slots, 0)
	batch := make([]*lifecycle, 0, slots)

	// Quiesce before the final recovery check and reads: every report
	// is ACKed, but stale duplicate frames can still be in flight (or
	// held back for reordering), and processing them after the final
	// snapshot would make recover/replay counters and span chains
	// timing-dependent. Once the last node is done, the loop checks at
	// rest, after every entry due there has run, that no uplink holds a
	// frame: none is queued, since a drain runs on the goroutine that
	// sent or flushed its frames, and none is held back. The idle tick
	// flushes holdbacks, so while any remain rest moves to the next
	// tick. Afterwards nothing advances simulated time, which freezes it
	// for the final reads.
	const never = time.Duration(math.MaxInt64)
	now, rest := time.Duration(0), never
	for ctx.Err() == nil {
		f.wakeAll(now)
		if f.active == 0 && rest == never {
			rest = now
		}
		// The tick entry keeps the queue non-empty.
		if top := f.q[0]; top.at <= rest {
			now = top.at
			batch = batch[:0]
			for len(f.q) > 0 && f.q[0].at == top.at && f.q[0].class == top.class {
				batch = append(batch, heap.Pop(&f.q).(*lifecycle))
			}
			switch top.class {
			case classTick:
				sup.col.Tick()
				f.tick.at = now + period
				heap.Push(&f.q, &f.tick)
			case classPoll:
				if sup.check() {
					// A recovered collector ticks one period after it was built.
					f.tick.at = now + period
					heap.Fix(&f.q, f.tick.idx)
				}
				f.poll.at = now + pollEvery
				heap.Push(&f.q, &f.poll)
			default:
				f.runBatch(batch, now)
			}
			continue
		}
		now = rest
		held := 0
		for _, l := range f.links {
			held += l.CollectorEnd().Pending()
		}
		if held == 0 {
			break
		}
		rest = now + period
	}
	if ctx.Err() != nil {
		f.abort()
	}

	// Aggregate odometer bound: the whole fleet's spend must sit under
	// Σ min(budget, Reports·cap) over the nodes — the paper's
	// Σ charges ≤ n·ε envelope, checked on the telemetry plane rather
	// than the ledgers.
	if f.boxM != nil {
		if tot, fleetCap := f.boxM.Odometer.TotalUnits(), f.capUnits.Load(); tot > fleetCap {
			res.Violations = append(res.Violations, fmt.Sprintf("fleet: aggregate odometer %d units exceeds certified n·ε bound %d", tot, fleetCap))
		}
	}

	// A crash can still fire during quiescence (inside a trailing
	// compaction, say): absorb it, so the final reads see the live
	// collector. It may be the n-th recovered instance, and its
	// recovered state must carry everything any of its predecessors
	// ever ACKed.
	sup.check()
	col := sup.col
	res.CollectorRecoveries = sup.recoveries
	if sup.store != nil {
		res.CheckpointWords = sup.store.Writes() - sup.base
	}
	res.Aggregate = col.Aggregate()
	res.Collector = col.Stats()
	for _, l := range f.links {
		s := l.Stats()
		res.Link.Sent += s.Sent
		res.Link.Delivered += s.Delivered
		res.Link.Dropped += s.Dropped
		res.Link.Duplicated += s.Duplicated
		res.Link.Reordered += s.Reordered
		res.Link.CorruptedInFlight += s.CorruptedInFlight
		res.Link.Overflow += s.Overflow
		res.Link.RejectedCorrupt += s.RejectedCorrupt
	}
	for i := 0; i < cfg.Nodes; i++ {
		res.Nodes[i].Recorded = col.Values(transport.NodeID(i))
	}
	res.Violations = append(res.Violations, CheckExactlyOnce(cfg, *res)...)
	if cfg.Obs != nil {
		// Storage-engine introspection rides the same schema whether or
		// not the collector is durable (all-zero gauges when volatile),
		// so the golden metric names stay run-shape independent.
		nst := col.NVMStats()
		cfg.Obs.Gauge("nvm.durable_words").Set(int64(nst.Words))
		cfg.Obs.Gauge("nvm.banks").Set(int64(nst.Banks))
		cfg.Obs.Gauge("nvm.compactions").Set(int64(nst.Compactions))
		snap := cfg.Obs.Snapshot()
		res.Obs = &snap
	}
	res.Flight = cfg.Flight.Snapshot()
	if cfg.Burn != nil {
		res.Burn = cfg.Burn.Snapshot()
		res.BurnAlert = res.Burn.Tripped
	}
	return *res, nil
}

// fleetRun is one run's shared state: the run-wide records every node
// lifecycle reads, and the event loop that steps them.
type fleetRun struct {
	cfg   Config
	sup   *colSupervisor
	links []*transport.Link
	urngs []urng.Taus88
	boxM  *dpbox.Metrics
	nodeM *node.Metrics

	// mu guards res.Violations and res.Resumed, which lifecycles
	// stepped in parallel append to; each lifecycle writes only its
	// own res.Nodes entry. capUnits sums each node's certified spend
	// ceiling for the aggregate odometer bound (telemetry runs only).
	mu       sync.Mutex
	res      Result
	capUnits atomic.Int64
	nextNode atomic.Int64

	// The event loop, all of it Run's goroutine's: a batch's helpers
	// touch only the slots they step. Downlink hooks fire on it too
	// (see wake), queueing the slots they wake on woken.
	q      entryQueue
	tick   lifecycle
	poll   lifecycle
	slots  []*lifecycle
	active int // slots with a node left to step
	woken  []*lifecycle
	boots  []*lifecycle
}

func (f *fleetRun) violate(format string, args ...any) {
	f.mu.Lock()
	f.res.Violations = append(f.res.Violations, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

// fanOutMin is the largest batch of same-instant steps the loop runs
// inline on its own goroutine; a larger one is shared with
// GOMAXPROCS-1 short-lived helpers. Measured on a 2-CPU host, 12
// interleaved 1 s rounds of 256×4 chaos and 256×16 durable fleets per
// value, paired against 8: 2, 4 and 32 ran chaos 5%, 3% and 3% slower;
// on durable 4 ran 9% faster and 32 6% slower. Chaos, nearly all of
// whose batches are one to four steps, decides. Booting a node and
// running it until it first waits costs many steps (a lossless node
// runs its whole life), so two or more boots due at one instant always
// fan out: run inline, the lifecycles after a fleet-durable collector
// crash all ran on one goroutine, which cost that workload about a
// quarter of its ops/s.
const fanOutMin = 8

// runBatch steps every lifecycle in batch to now, then queues each
// under its next deadline. A small batch runs inline in node-id order;
// the slots whose nodes finished then boot their next nodes, fanned
// out when there are two or more. A large batch fans out at once.
func (f *fleetRun) runBatch(batch []*lifecycle, now time.Duration) {
	if len(batch) > fanOutMin {
		f.fanOut(batch, now)
	} else {
		boots := f.boots[:0]
		for _, n := range batch {
			if !f.step(n, now, false) {
				boots = append(boots, n)
			}
		}
		f.fanOut(boots, now)
		f.boots = boots[:0]
	}
	for _, n := range batch {
		f.park(n)
	}
}

// fanOut steps every lifecycle in batch to now, booting further nodes
// as slots free up, over min(GOMAXPROCS, len(batch)) goroutines: this
// one and short-lived helpers that exit when the batch is done.
func (f *fleetRun) fanOut(batch []*lifecycle, now time.Duration) {
	p := min(runtime.GOMAXPROCS(0), len(batch))
	if p <= 1 {
		for _, n := range batch {
			f.step(n, now, true)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		for k := next.Add(1) - 1; k < int64(len(batch)); k = next.Add(1) - 1 {
			f.step(batch[k], now, true)
		}
	}
	wg.Add(p - 1)
	for h := 1; h < p; h++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// wakeAll steps, at now, every node whose ACK window a downlink frame
// woke.
func (f *fleetRun) wakeAll(now time.Duration) {
	for _, n := range f.woken {
		heap.Remove(&f.q, n.idx)
		f.step(n, now, true)
		f.park(n)
	}
	f.woken = f.woken[:0]
}

// wake is node i's downlink hook, installed by the slot n that hosts
// it. While i waits for an ACK, only the collector's idle tick or a
// recovery's re-attach lands frames on its downlink, and both run on
// the loop's goroutine, as queue entries of their own. A node's own
// sends trigger the hook from whichever goroutine steps it, but only
// while it is not waiting. The hook runs under a collector shard lock,
// so it only queues the slot on woken, which the loop steps before it
// moves on.
func (f *fleetRun) wake(n *lifecycle, i int) {
	if n.node != i || !n.waiting {
		return
	}
	n.waiting = false
	f.woken = append(f.woken, n)
}

// park queues a stepped slot under its next deadline, or retires it
// when no node is left. A node in an ACK window becomes wakeable: its
// last step drained its downlink, and no frame lands there before the
// loop waits again.
func (f *fleetRun) park(n *lifecycle) {
	if n.node < 0 {
		f.active--
		return
	}
	heap.Push(&f.q, n)
	if !n.agent.AwaitingAck() {
		return
	}
	if i := n.node; !n.hooked {
		// Installed at the node's first ACK wait, so a node that never
		// waits for one (every node on a lossless link) costs no hook.
		f.links[i].NodeEnd().SetNotify(func() { f.wake(n, i) })
		n.hooked = true
	}
	n.waiting = true
}

// abort ends the run at its wall-clock deadline: every node still
// booted or never started is reported undelivered.
func (f *fleetRun) abort() {
	for _, n := range f.slots {
		if n.node >= 0 {
			f.violate("node %d seq %d: undelivered at deadline", n.node, n.r)
			f.end(n)
		}
	}
	for i := int(f.nextNode.Load()); i < f.cfg.Nodes; i++ {
		f.violate("node %d: not started by the deadline", i)
	}
}

// Entry classes order the loop's queue at one instant: the idle tick
// runs first, then the crash poll, then node steps.
const (
	classTick uint8 = iota
	classPoll
	classNode
)

// lifecycle is one slot's node lifecycle: boot (or recover), resume
// the last journaled release, then each report with its crash schedule
// and redeliveries, then the end-of-node cross-checks. The slot then
// boots the next unclaimed node. It is also the event loop's queue
// entry; the idle tick and the crash poll are entries of their own
// classes.
type lifecycle struct {
	at    time.Duration // next step's deadline, rounded to simResolution
	class uint8
	node  int // -1 between nodes
	idx   int // queue index; -1 when not queued

	hooked  bool // the node's downlink hook is installed
	waiting bool // the node is queued in an ACK window: its hook wakes it

	stage  stage
	r      int // the report being delivered
	nr     NodeResult
	j      *dpbox.Journal
	box    *dpbox.DPBox
	agent  *node.ReportAgent
	units0 int64
	// replayed is the end-of-node journal replay's map, kept with the
	// slot and emptied for each node it cross-checks.
	replayed map[uint64]dpbox.Release
}

// stage is which delivery a lifecycle's agent is stepping.
type stage uint8

const (
	// resuming: the last release a prior process journaled.
	resuming stage = iota
	// reporting: report r's first delivery.
	reporting
	// redelivering: report r again, after a delivery was abandoned.
	redelivering
)

// step advances n to now: it steps its node's agent and, whenever a
// delivery ends, the lifecycle around it; when the node is done it
// boots the next one if boot is set. It stops at the first step that
// must wait, leaving the rounded deadline in n.at, or with n.node = -1
// once no node is left to boot. It reports false if it stopped only
// because boot was not set.
func (f *fleetRun) step(n *lifecycle, now time.Duration, boot bool) bool {
	n.waiting = false
	for {
		if n.node < 0 {
			if !boot {
				return int(f.nextNode.Load()) >= f.cfg.Nodes
			}
			i := int(f.nextNode.Add(1) - 1)
			if i >= f.cfg.Nodes {
				return true
			}
			if !f.boot(n, i) {
				f.end(n)
				continue
			}
		}
		at, ok := f.advance(n, now)
		if ok {
			// Round up to simResolution, so steps due within one
			// resolution step run as one batch.
			if r := at % simResolution; r > 0 {
				at += simResolution - r
			}
			n.at = at
			return true
		}
		f.end(n)
	}
}

// boot brings node i up in slot n — a fresh box, or one recovered
// from a prior process's journal — and arms its first delivery. It
// reports false, with the violation recorded, if the node cannot run.
func (f *fleetRun) boot(n *lifecycle, i int) bool {
	cfg := f.cfg
	*n = lifecycle{class: classNode, node: i, idx: -1, replayed: n.replayed}
	// Attach lazily, as the lifecycle starts, so nodes queued behind
	// the slots don't sit on the collector accruing idle breaker ticks
	// before their first report. The supervisor keeps the binding
	// across collector restarts.
	end := f.links[i].NodeEnd()
	if err := f.sup.attach(transport.NodeID(i), f.links[i].CollectorEnd()); err != nil {
		f.violate("node %d: %v", i, err)
		return false
	}

	var err error
	if cfg.NVMDir != "" {
		n.j, err = dpbox.OpenJournal(filepath.Join(cfg.NVMDir, fmt.Sprintf("node-%04d", i)))
		if err != nil {
			f.violate("node %d: %v", i, err)
			return false
		}
	} else {
		n.j = dpbox.NewJournal()
		n.j.Reserve(cfg.Reports)
	}
	src := &f.urngs[i]
	src.Seed(subSeed(cfg.Seed, seedURNG, i, 0))
	if n.j.Writes() > 0 {
		// The journal holds a prior process's ledger: recover it and
		// continue the numbering instead of re-initializing (which
		// would re-noise already-charged sequence numbers).
		f.mu.Lock()
		f.res.Resumed = true
		f.mu.Unlock()
		n.box, err = dpbox.Recover(boxConfig(src, nil, f.boxM, i), n.j)
		if err != nil {
			f.violate("node %d: recover from %s: %v", i, cfg.NVMDir, err)
			return false
		}
	} else {
		n.box, err = dpbox.New(boxConfig(src, n.j, f.boxM, i))
		if err != nil {
			f.violate("node %d: %v", i, err)
			return false
		}
		if err := n.box.Initialize(nodeBudget, 0); err != nil {
			f.violate("node %d: %v", i, err)
			return false
		}
	}
	if err := n.box.Configure(1, 0, 16); err != nil {
		f.violate("node %d: %v", i, err)
		return false
	}
	// Spend is accounted from this process's baseline: on a fresh run
	// that is nodeBudget; on a resumed run the prior spend is already
	// durable and belongs to the dead process's run.
	n.units0 = n.box.BudgetUnits()
	if f.boxM != nil {
		f.capUnits.Add(min(n.units0, int64(cfg.Reports)*PerReportCapUnits))
	}
	n.agent = node.NewReportAgent(n.box, end, node.AgentConfig{
		ID:          transport.NodeID(i),
		MaxAttempts: 64,
		JitterSeed:  subSeed(cfg.Seed, seedJitter, i, 0),
		Obs:         f.nodeM,
	})

	n.r = int(n.agent.NextSeq())
	if n.r > 0 {
		// The last journaled release may have died un-ACKed;
		// re-deliver it before new reports. Re-ACKing an already
		// recorded sequence is harmless (collector dedups), and a
		// recovered collector re-ACKs it bit-exactly.
		n.stage = resuming
		if err := n.agent.BeginResume(); err != nil {
			f.violate("node %d seq %d: %v", i, n.r-1, err)
			return false
		}
		return true
	}
	return f.beginReport(n)
}

// beginReport noises report n.r and arms its delivery. It reports
// false once the node has nothing left to report, or, with the
// violation recorded, when the noising itself failed.
func (f *fleetRun) beginReport(n *lifecycle) bool {
	if n.r >= f.cfg.Reports {
		return false
	}
	n.stage = reporting
	if err := n.agent.Begin(reading(n.node, n.r)); err != nil {
		f.violate("node %d seq %d: %v", n.node, n.r, err)
		return false
	}
	return true
}

// advance steps n's agent to now and carries the lifecycle across
// every delivery that ends. It returns the deadline the agent waits
// for, or false once the node's lifecycle is over.
func (f *fleetRun) advance(n *lifecycle, now time.Duration) (time.Duration, bool) {
	cfg, i := f.cfg, n.node
	for {
		at, done := n.agent.Step(now)
		if !done {
			return at, true
		}
		out, err := n.agent.Outcome()
		if n.stage == reporting {
			if out.Replayed {
				f.violate("node %d seq %d: first noising was a replay", i, out.Seq)
			}
			n.nr.ExpectedSpendNats += out.Charged
			// Live odometer bound: after r+1 reports, node i's cumulative
			// spend must sit under the certified per-report envelope
			// (crash replays and cache serves charge nothing, so the bound
			// holds across chaos).
			if f.boxM != nil {
				certified := min(n.units0, int64(n.r+1)*PerReportCapUnits)
				if spent := f.boxM.Odometer.SpentUnits(i); spent > certified {
					f.violate("node %d: odometer %d units after %d reports exceeds certified %d", i, spent, n.r+1, certified)
				}
			}
			// Deterministic crash schedule: after noising report r
			// (delivered or not), so recovery sometimes lands mid-retry
			// with an un-ACKed journaled release.
			if cfg.CrashEvery > 0 && (n.r+1)%cfg.CrashEvery == 0 && !f.crash(n) {
				return 0, false
			}
		}
		if err != nil {
			// Mid-retry abandonment: the (seq, value) binding is
			// durable, so delivery resumes, possibly on the post-crash
			// recovered box.
			n.nr.Redeliveries++
			if n.stage == reporting {
				n.stage = redelivering
			}
			if berr := n.agent.BeginResume(); berr != nil {
				f.violate("node %d seq %d: %v", i, out.Seq, berr)
				return 0, false
			}
			continue
		}
		if n.stage != resuming {
			n.r++
		}
		if !f.beginReport(n) {
			return 0, false
		}
	}
}

// crash kills node n's journal and reboots it in place: its box,
// journal, URNG, agent and link all carry over, reset as if new. It
// reports false, with the violation recorded, if the reboot failed.
func (f *fleetRun) crash(n *lifecycle) bool {
	i := n.node
	n.j.Kill()
	n.nr.Crashes++
	src := &f.urngs[i]
	src.Seed(subSeed(f.cfg.Seed, seedURNG, i, n.nr.Crashes))
	if err := n.box.Reboot(boxConfig(src, nil, f.boxM, i), n.j); err != nil {
		f.violate("node %d crash %d: %v", i, n.nr.Crashes, err)
		return false
	}
	if err := n.box.Configure(1, 0, 16); err != nil {
		f.violate("node %d crash %d: %v", i, n.nr.Crashes, err)
		return false
	}
	n.agent.Rebind(n.box)
	if n.agent.NextSeq() != uint64(n.r)+1 {
		f.violate("node %d crash %d: NextSeq %d, want %d", i, n.nr.Crashes, n.agent.NextSeq(), n.r+1)
	}
	return true
}

// end closes node n's lifecycle: on a node that reported to the end it
// cross-checks the journal and the odometer against the live ledger,
// then it records the node's evidence and frees the slot. The box is
// dead after end, so its release map becomes the evidence as is.
func (f *fleetRun) end(n *lifecycle) {
	i := n.node
	if n.box != nil && n.r >= f.cfg.Reports {
		n.nr.Released = n.box.Releases()
		spentUnits := n.units0 - n.box.BudgetUnits()
		n.nr.SpendNats = float64(spentUnits) * core.ChargeUnit
		var err error
		if n.replayed, err = checkJournal(n.j, n.box, n.replayed); err != nil {
			f.violate("node %d: %v", i, err)
		}
		// Odometer-vs-ledger cross-check: both count the same charges
		// in the same integer unit, so they must be equal.
		if f.boxM != nil {
			if got := f.boxM.Odometer.SpentUnits(i); got != spentUnits {
				f.violate("node %d: odometer %d units != ledger spend %d units", i, got, spentUnits)
			}
		}
	}
	if n.j != nil && f.cfg.NVMDir != "" {
		n.j.Close()
	}
	f.res.Nodes[i] = n.nr
	n.node = -1
}

// checkJournal is the end-of-node crash-consistency cross-check:
// replaying j must agree with the live box on the remaining units and
// on every release the replay holds. (The box may hold more: a
// recovery keeps every release it replayed, the compacted journal only
// the retransmission window.) It replays into scratch, emptied first,
// and returns the map to reuse for the next node.
func checkJournal(j *dpbox.Journal, box *dpbox.DPBox, scratch map[uint64]dpbox.Release) (map[uint64]dpbox.Release, error) {
	clear(scratch)
	st, err := j.Replay(scratch)
	if st.Releases != nil {
		scratch = st.Releases
	}
	if err != nil {
		return scratch, fmt.Errorf("journal replay: %w", err)
	}
	if live := box.BudgetUnits(); st.Units != live {
		return scratch, fmt.Errorf("journal units %d != live units %d", st.Units, live)
	}
	// Report the lowest mismatching seq, so the violation does not
	// depend on map order.
	bad, found := uint64(0), false
	for seq, rel := range st.Releases {
		if live, ok := box.ReleaseFor(seq); (!ok || live != rel) && (!found || seq < bad) {
			bad, found = seq, true
		}
	}
	if found {
		live, _ := box.ReleaseFor(bad)
		return scratch, fmt.Errorf("journal release seq %d %+v != live %+v", bad, st.Releases[bad], live)
	}
	return scratch, nil
}

// entryQueue orders the loop's entries by (deadline, class, node).
type entryQueue []*lifecycle

func (q entryQueue) Len() int { return len(q) }
func (q entryQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	if q[a].class != q[b].class {
		return q[a].class < q[b].class
	}
	return q[a].node < q[b].node
}
func (q entryQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].idx = a
	q[b].idx = b
}
func (q *entryQueue) Push(x any) {
	n := x.(*lifecycle)
	n.idx = len(*q)
	*q = append(*q, n)
}
func (q *entryQueue) Pop() any {
	old := *q
	n := old[len(old)-1]
	old[len(old)-1] = nil
	n.idx = -1
	*q = old[:len(old)-1]
	return n
}

// CheckExactlyOnce verifies invariant 1 on a completed run: per node,
// the collector's distinct values are exactly the journal's charged
// releases, one per sequence number, with spend matching the charges.
func CheckExactlyOnce(cfg Config, res Result) []string {
	var v []string
	for i, nr := range res.Nodes {
		if len(nr.Recorded) != cfg.Reports {
			v = append(v, fmt.Sprintf("node %d: collector recorded %d distinct reports, want %d", i, len(nr.Recorded), cfg.Reports))
		}
		if len(nr.Released) != cfg.Reports {
			v = append(v, fmt.Sprintf("node %d: journal holds %d releases, want %d", i, len(nr.Released), cfg.Reports))
		}
		for seq, val := range nr.Recorded {
			rel, ok := nr.Released[seq]
			if !ok {
				v = append(v, fmt.Sprintf("node %d seq %d: collector has a value the journal never charged", i, seq))
				continue
			}
			if rel.Value != val {
				v = append(v, fmt.Sprintf("node %d seq %d: collector %d != journal %d", i, seq, val, rel.Value))
			}
		}
		if nr.SpendNats != nr.ExpectedSpendNats {
			v = append(v, fmt.Sprintf("node %d: spent %g nats, first-noising charges sum to %g", i, nr.SpendNats, nr.ExpectedSpendNats))
		}
	}
	return v
}

// CompareRuns verifies invariant 2: two runs (chaos vs lossless, or
// any two profiles) with the same master seed must agree bit-exactly
// on every node's journaled releases, the collector's recorded
// values, and the aggregate.
func CompareRuns(a, b Result) []string {
	var v []string
	if len(a.Nodes) != len(b.Nodes) {
		return []string{fmt.Sprintf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))}
	}
	for i := range a.Nodes {
		an, bn := a.Nodes[i], b.Nodes[i]
		if len(an.Released) != len(bn.Released) {
			v = append(v, fmt.Sprintf("node %d: release counts differ: %d vs %d", i, len(an.Released), len(bn.Released)))
		}
		for seq, ar := range an.Released {
			if br, ok := bn.Released[seq]; !ok || ar.Value != br.Value {
				v = append(v, fmt.Sprintf("node %d seq %d: journaled values differ", i, seq))
			}
		}
		if len(an.Recorded) != len(bn.Recorded) {
			v = append(v, fmt.Sprintf("node %d: recorded counts differ: %d vs %d", i, len(an.Recorded), len(bn.Recorded)))
		}
		for seq, av := range an.Recorded {
			if bv, ok := bn.Recorded[seq]; !ok || av != bv {
				v = append(v, fmt.Sprintf("node %d seq %d: recorded values differ", i, seq))
			}
		}
		if an.SpendNats != bn.SpendNats {
			v = append(v, fmt.Sprintf("node %d: spends differ: %g vs %g nats", i, an.SpendNats, bn.SpendNats))
		}
	}
	if a.Aggregate.Reports != b.Aggregate.Reports || a.Aggregate.Sum != b.Aggregate.Sum {
		v = append(v, fmt.Sprintf("aggregates differ: %+v vs %+v", a.Aggregate, b.Aggregate))
	}
	return v
}
