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
	"context"
	"fmt"
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
	"ulpdp/internal/simclock"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// Config parameterizes one fleet run.
type Config struct {
	// Nodes is the fleet size (default 4).
	Nodes int
	// Reports is the reports each node delivers (default 4).
	Reports int
	// Budget is each node's privacy budget in nats (default 1e6).
	Budget float64
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
	// Workers bounds the concurrent node lifecycles (default
	// 8×GOMAXPROCS, capped at Nodes). Node lifecycles are mutually
	// independent and individually deterministic, so the pool size
	// changes scheduling, never results — it is what lets a 10k-node
	// fleet run under the race detector's goroutine budget.
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

// simResolution is the fleet clock's step: waits due within one step
// fire together, so nodes whose jittered backoffs end a few
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

// colSupervisor owns the collector across its crash/recover
// lifecycle: it arms the scheduled store power failures, watches for
// the store to die, and on each death closes the dead collector, runs
// collector.Recover, and re-binds every node's link endpoint to the
// recovered instance. Nodes go through attach so the endpoint registry
// survives the swap; un-ACKed reports simply keep retrying and land on
// the recovered dedup state.
type colSupervisor struct {
	cfg     collector.Config
	clk     simclock.Clock
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

	wake    simclock.Waiter // the watcher's poll deadline; signalled to stop
	stopped atomic.Bool
	done    chan struct{}
}

func newColSupervisor(cfg collector.Config, store *collector.Store, col *collector.Collector, schedule []int, violate func(string, ...any)) *colSupervisor {
	s := &colSupervisor{
		cfg:     cfg,
		clk:     simclock.Or(cfg.Clock),
		store:   store,
		violate: violate,
		col:     col,
		ends:    make(map[transport.NodeID]*transport.Endpoint),
		done:    make(chan struct{}),
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

// watch starts the crash watcher. The store dies between two word
// writes at the armed point; the watcher notices within a poll period
// of the supervisor's clock and runs the recovery, counted as running
// work throughout. Detection latency only widens the fail-closed
// window — it never changes what was ACKed, so results stay exact.
func (s *colSupervisor) watch() {
	if s.store == nil || len(s.schedule) == 0 {
		close(s.done)
		return
	}
	s.wake = s.clk.NewWaiter(simclock.Supervisor)
	s.clk.Join()
	go func() {
		defer close(s.done)
		defer s.clk.Leave()
		for {
			fired := s.wake.Wait(s.clk.Now()+200*time.Microsecond, nil)
			if s.stopped.Load() {
				return
			}
			if fired && s.store.Dead() {
				s.recover()
			}
		}
	}()
}

// recover replaces the dead collector with one rebuilt from the
// checkpoint store and re-attaches every registered endpoint.
func (s *colSupervisor) recover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return
	}
	s.col.Close()
	c, err := collector.Recover(s.cfg, s.store)
	if err != nil {
		// A pure power crash can never corrupt the checkpoint, so this
		// is itself an invariant breach. The closed collector stays for
		// the final in-memory reads.
		s.violate("collector recovery %d: %v", s.recoveries+1, err)
		s.broken = true
		return
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
}

// attach registers a node's endpoint for the lifetime of the run,
// across collector restarts.
func (s *colSupervisor) attach(id transport.NodeID, end *transport.Endpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ends[id] = end
	return s.col.Attach(id, end)
}

// finish stops the watcher, absorbs a crash that fired during final
// quiescence (e.g. inside a trailing compaction), and hands back the
// live collector for the end-of-run reads.
func (s *colSupervisor) finish() (*collector.Collector, int) {
	s.stopped.Store(true)
	if s.wake != nil {
		s.wake.Signal()
	}
	<-s.done
	if s.store != nil && s.store.Dead() {
		s.recover()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.col, s.recoveries
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
func Run(cfg Config) (Result, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Reports <= 0 {
		cfg.Reports = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 1e6
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
	// idle ticks advance it only when every participant is parked, so
	// they cost no wall time and a run's event order depends only on
	// its seeds. This goroutine is a participant until the run ends;
	// the wall-clock deadline stays a liveness backstop.
	clk := simclock.NewVirtual(simResolution)
	clk.Join()
	context.AfterFunc(ctx, clk.Shutdown)

	// One telemetry plane per layer, all over the same registry. The
	// box plane's odometer has one channel per node.
	var (
		boxM  *dpbox.Metrics
		linkM *transport.Metrics
		nodeM *node.Metrics
		colM  *collector.Metrics
	)
	if cfg.Obs != nil {
		boxM = dpbox.NewMetrics(cfg.Obs, cfg.Nodes)
		linkM = transport.NewMetrics(cfg.Obs)
		nodeM = node.NewMetrics(cfg.Obs)
		colM = collector.NewMetrics(cfg.Obs)
		// The flight/burn instrument names are part of the fleet metric
		// schema whether or not a recorder/alerter is attached, so the
		// golden schema test pins them unconditionally.
		flightM := obs.NewFlightMetrics(cfg.Obs)
		burnM := obs.NewBurnMetrics(cfg.Obs)
		if cfg.Flight != nil {
			cfg.Flight.SetMetrics(flightM)
			boxM.Flight = cfg.Flight
			linkM.Flight = cfg.Flight
			nodeM.Flight = cfg.Flight
			colM.Flight = cfg.Flight
		}
		if cfg.Burn != nil {
			cfg.Burn.Bind(burnM)
			boxM.Odometer.SetBurn(cfg.Burn)
		}
	}

	res := Result{Nodes: make([]NodeResult, cfg.Nodes)}
	// shared is the node workers' common state, one record: mu guards
	// res.Violations and res.Resumed (see runNode); capUnits sums each
	// node's certified spend ceiling for the aggregate odometer bound
	// (telemetry runs only).
	var shared struct {
		mu       sync.Mutex
		capUnits atomic.Int64
	}
	violate := func(format string, args ...any) {
		shared.mu.Lock()
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		shared.mu.Unlock()
	}
	markResumed := func() {
		shared.mu.Lock()
		res.Resumed = true
		shared.mu.Unlock()
	}

	colCfg := collector.Config{
		BreakerThreshold: cfg.BreakerThreshold,
		Shards:           cfg.Shards,
		CompactEvery:     cfg.CompactEvery,
		Obs:              colM,
		Clock:            clk,
	}
	var sup *colSupervisor
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
		sup = newColSupervisor(colCfg, store, c, cfg.CollectorCrashes, violate)
	} else {
		sup = newColSupervisor(colCfg, nil, collector.New(colCfg), nil, violate)
	}
	defer sup.close()
	sup.watch()

	// A lossless profile never perturbs a frame, so its links get no
	// fault plane at all; chaos planes are one slice for the fleet.
	links := make([]*transport.Link, cfg.Nodes)
	var planes []fault.Plane
	if cfg.Link != (fault.LinkProfile{}) {
		planes = make([]fault.Plane, cfg.Nodes)
	}
	for i := range links {
		lc := transport.LinkConfig{Obs: linkM, Clock: clk}
		if planes != nil {
			lc.Plane = &planes[i]
			lc.Plane.SetLossyLink(subSeed(cfg.Seed, seedLink, i, 0), cfg.Link)
		}
		links[i] = transport.NewLink(lc)
	}
	// Each node's URNG is reseeded in place at every boot, so its
	// crashes cost no generator.
	urngs := make([]urng.Taus88, cfg.Nodes)

	runNode := func(i int) {
		nr := &NodeResult{}
		// Each lifecycle writes its own distinct slice index, so no
		// mutex is needed here — only the shared Violations append is.
		defer func() { res.Nodes[i] = *nr }()

		// Attach lazily, as the lifecycle starts, so nodes queued
		// behind the worker pool don't sit on the collector accruing
		// idle breaker ticks before their first report. The supervisor
		// keeps the binding across collector restarts.
		if err := sup.attach(transport.NodeID(i), links[i].CollectorEnd()); err != nil {
			violate("node %d: %v", i, err)
			return
		}

		var (
			j   *dpbox.Journal
			box *dpbox.DPBox
			err error
		)
		if cfg.NVMDir != "" {
			j, err = dpbox.OpenJournal(filepath.Join(cfg.NVMDir, fmt.Sprintf("node-%04d", i)))
			if err != nil {
				violate("node %d: %v", i, err)
				return
			}
			defer j.Close()
		} else {
			j = dpbox.NewJournal()
			j.Reserve(cfg.Reports)
		}
		src := &urngs[i]
		src.Seed(subSeed(cfg.Seed, seedURNG, i, 0))
		if j.Writes() > 0 {
			// The journal holds a prior process's ledger: recover it
			// and continue the numbering instead of re-initializing
			// (which would re-noise already-charged sequence numbers).
			markResumed()
			box, err = dpbox.Recover(boxConfig(src, nil, boxM, i), j)
			if err != nil {
				violate("node %d: recover from %s: %v", i, cfg.NVMDir, err)
				return
			}
		} else {
			box, err = dpbox.New(boxConfig(src, j, boxM, i))
			if err != nil {
				violate("node %d: %v", i, err)
				return
			}
			if err := box.Initialize(cfg.Budget, 0); err != nil {
				violate("node %d: %v", i, err)
				return
			}
		}
		if err := box.Configure(1, 0, 16); err != nil {
			violate("node %d: %v", i, err)
			return
		}
		// Spend is accounted from this process's baseline: on a fresh
		// run that is cfg.Budget; on a resumed run the prior spend is
		// already durable and belongs to the dead process's run.
		units0 := box.BudgetUnits()
		if boxM != nil {
			shared.capUnits.Add(min(units0, int64(cfg.Reports)*PerReportCapUnits))
		}
		agentCfg := node.AgentConfig{
			ID:          transport.NodeID(i),
			MaxAttempts: 64,
			JitterSeed:  subSeed(cfg.Seed, seedJitter, i, 0),
			Obs:         nodeM,
		}
		agent := node.NewReportAgent(box, links[i].NodeEnd(), agentCfg)

		start := int(agent.NextSeq())
		if start > 0 {
			// The last journaled release may have died un-ACKed;
			// re-deliver it before new reports. Re-ACKing an already
			// recorded sequence is harmless (collector dedups), and a
			// recovered collector re-ACKs it bit-exactly.
			for agent.Resume(ctx) != nil {
				if ctx.Err() != nil {
					violate("node %d seq %d: resumed release undelivered at deadline", i, start-1)
					return
				}
				nr.Redeliveries++
			}
		}

		for r := start; r < cfg.Reports; r++ {
			out, err := agent.Report(ctx, reading(i, r))
			if err != nil {
				if ctx.Err() != nil {
					violate("node %d seq %d: %v", i, r, err)
					return
				}
				if _, ok := box.ReleaseFor(uint64(r)); !ok {
					// Nothing journaled: the noising itself (not
					// just delivery) failed.
					violate("node %d seq %d: %v", i, r, err)
					return
				}
				// Mid-retry abandonment: the (seq, value) binding
				// is durable; delivery resumes below, possibly on
				// the post-crash recovered box.
			}
			if out.Replayed {
				violate("node %d seq %d: first noising was a replay", i, out.Seq)
			}
			nr.ExpectedSpendNats += out.Charged
			delivered := err == nil

			// Live odometer bound: after r+1 reports, node i's
			// cumulative spend must sit under the certified
			// per-report envelope (crash replays and cache serves
			// charge nothing, so the bound holds across chaos).
			if boxM != nil {
				certified := min(units0, int64(r+1)*PerReportCapUnits)
				if spent := boxM.Odometer.SpentUnits(i); spent > certified {
					violate("node %d: odometer %d units after %d reports exceeds certified %d", i, spent, r+1, certified)
				}
			}

			// Deterministic crash schedule: after noising report
			// r (delivered or not), so recovery sometimes lands
			// mid-retry with an un-ACKed journaled release.
			if cfg.CrashEvery > 0 && (r+1)%cfg.CrashEvery == 0 {
				j.Kill()
				nr.Crashes++
				// The node reboots in place: its box, journal, URNG,
				// agent and link all carry over, reset as if new.
				src.Seed(subSeed(cfg.Seed, seedURNG, i, nr.Crashes))
				if rerr := box.Reboot(boxConfig(src, nil, boxM, i), j); rerr != nil {
					violate("node %d crash %d: %v", i, nr.Crashes, rerr)
					return
				}
				if cerr := box.Configure(1, 0, 16); cerr != nil {
					violate("node %d crash %d: %v", i, nr.Crashes, cerr)
					return
				}
				agent.Rebind(box)
				if agent.NextSeq() != uint64(r)+1 {
					violate("node %d crash %d: NextSeq %d, want %d", i, nr.Crashes, agent.NextSeq(), r+1)
				}
			}

			for !delivered {
				if ctx.Err() != nil {
					violate("node %d seq %d: undelivered at deadline", i, r)
					return
				}
				nr.Redeliveries++
				if err := agent.Resume(ctx); err == nil {
					delivered = true
				}
			}
		}

		nr.Released = box.Releases()
		spentUnits := units0 - box.BudgetUnits()
		nr.SpendNats = float64(spentUnits) * core.ChargeUnit

		// Crash-consistency cross-check: replaying the journal
		// must agree with the live ledger.
		st, err := j.Replay()
		if err != nil {
			violate("node %d: journal replay: %v", i, err)
			return
		}
		if live := box.BudgetUnits(); st.Units != live {
			violate("node %d: journal units %d != live units %d", i, st.Units, live)
		}

		// Odometer-vs-ledger cross-check: both count the same
		// charges in the same integer unit, so they must be equal.
		if boxM != nil {
			if got := boxM.Odometer.SpentUnits(i); got != spentUnits {
				violate("node %d: odometer %d units != ledger spend %d units", i, got, spentUnits)
			}
		}
	}

	// Bounded worker pool: goroutine-per-node tops out around the race
	// detector's goroutine budget (and thrashes the scheduler) long
	// before the collector saturates; a fixed pool runs 10k-node
	// fleets with a few dozen goroutines.
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8 * runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Nodes {
		workers = cfg.Nodes
	}
	// Workers claim node indices in order and stay counted as running
	// between lifecycles, so handing a worker its next node never
	// looks like an idle fleet. The last one out wakes this goroutine
	// before it leaves the clock.
	var nextNode, live atomic.Int64
	live.Store(int64(workers))
	allDone := clk.NewWaiter(simclock.Agent)
	for w := 0; w < workers; w++ {
		clk.Join()
		go func() {
			defer func() {
				if live.Add(-1) == 0 {
					allDone.Signal()
				}
				clk.Leave()
			}()
			for {
				i := int(nextNode.Add(1) - 1)
				if i >= cfg.Nodes {
					return
				}
				runNode(i)
			}
		}()
	}
	for live.Load() > 0 {
		allDone.Wait(simclock.Never, nil)
	}

	// Aggregate odometer bound: the whole fleet's spend must sit under
	// Σ min(budget, Reports·cap) over the nodes — the paper's
	// Σ charges ≤ n·ε envelope, checked on the telemetry plane rather
	// than the ledgers.
	if boxM != nil {
		if tot, fleetCap := boxM.Odometer.TotalUnits(), shared.capUnits.Load(); tot > fleetCap {
			res.Violations = append(res.Violations, fmt.Sprintf("fleet: aggregate odometer %d units exceeds certified n·ε bound %d", tot, fleetCap))
		}
	}

	// Quiesce before the final recovery check and reads: every report
	// is ACKed, but stale duplicate frames can still be in flight (or
	// held back for reordering), and processing them after the final
	// snapshot would make recover/replay counters and span chains
	// timing-dependent.
	quiesce(ctx, clk, links)

	// Final reads go through the supervisor: the collector in place now
	// may be the n-th recovered instance, and its recovered state must
	// carry everything any of its predecessors ever ACKed.
	col, recoveries := sup.finish()
	res.CollectorRecoveries = recoveries
	if sup.store != nil {
		res.CheckpointWords = sup.store.Writes() - sup.base
	}
	res.Aggregate = col.Aggregate()
	res.Collector = col.Stats()
	for _, l := range links {
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
	res.Violations = append(res.Violations, CheckExactlyOnce(cfg, res)...)
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
	return res, nil
}

// quiesce returns once the fleet is at rest — every agent, the
// collector's idle ticker and the supervisor parked on the clock, so
// no shard drain is running (a drain runs on the goroutine that sent
// or flushed the frames) and no frame is queued — and no uplink holds
// a reorder holdback. Holdbacks are
// flushed by the collector's idle tick, so while any remain the clock
// advances to the next tick. The caller stays a running participant
// afterwards, which freezes simulated time for the final reads.
func quiesce(ctx context.Context, clk simclock.Clock, links []*transport.Link) {
	w := clk.NewWaiter(simclock.Agent)
	deadline := clk.Now() // fires as soon as everything else is parked
	for ctx.Err() == nil {
		w.Wait(deadline, nil)
		held := 0
		for _, l := range links {
			held += l.CollectorEnd().Pending()
		}
		if held == 0 {
			return
		}
		deadline = clk.Now() + collector.DefaultPollTimeout
	}
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
