package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"ulpdp/internal/core"
	"ulpdp/internal/fault"
	"ulpdp/internal/fleet"
	"ulpdp/internal/obs"
)

// workload is one benchmark input set. Fleet workloads are closed
// loops: every node sends its next report only after the collector
// ACKed the previous one. BENCHMARK.json and README.md record why each
// was chosen.
type workload struct {
	name string
	// fleet is the run configuration (Seed set per run); Nodes == 0
	// marks the audit workload.
	fleet fleet.Config
	// refs is how many seeds, derived from the run's seed, the timed
	// phase cycles through. Each gets a same-seed reference in set-up.
	// A pass through all of them is the timed phase's unit of work.
	refs int
}

var workloads = []workload{
	// The compute path with almost no wait: CPU spent in dpbox,
	// journal, transport and collector shows directly.
	{
		name:  "fleet-lossless",
		fleet: fleet.Config{Nodes: 1024, Reports: 16, BreakerThreshold: 1 << 20},
		refs:  2,
	},
	// The same layers, but ACK waits and backoff dominate: a
	// compute-only gain should not move it. The drop pattern sets a
	// run's length, so the timed phase samples many patterns.
	{
		name: "fleet-chaos",
		fleet: fleet.Config{Nodes: 256, Reports: 4, BreakerThreshold: 1 << 20,
			Link: fault.LinkProfile{Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, MaxDelay: 2}},
		refs: 32,
	},
	// The durable collector on in-memory NVM: checkpoint words on every
	// admission, node journal replays, two collector recoveries per run.
	{
		name: "fleet-durable",
		fleet: fleet.Config{Nodes: 256, Reports: 16, BreakerThreshold: 1 << 20,
			Durable: true, CrashEvery: 4, CollectorCrashes: []int{20000, 60000}},
		refs: 4,
	},
	// The analyzer does almost all the work here and almost none in
	// the fleet workloads.
	{name: "audit"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
	// minSamples gives p90 at least ten samples beyond it.
	minSamples = 100
	// maxTimed caps a timed phase that minSamples or a slow pass would
	// stretch.
	maxTimed = 90 * time.Second
)

// outcome is one benchmark run's result.
type outcome struct {
	attempted, failed uint64
	samples           int
	fingerprint       uint64
	notes             []string // first failures, for the operator
	metrics           []metric // the result line's metrics: BENCHMARK.json's for this mode
	detail            []metric // rows only the detail line carries
}

func (o *outcome) fail(ops uint64, format string, args ...any) {
	o.failed += ops
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// sampleStats accumulates timed samples.
type sampleStats struct {
	ms             []float64
	ops            uint64
	busy           time.Duration
	mallocs, bytes uint64
	ms0, ms1       runtime.MemStats
	started        time.Time
	timedFor       time.Duration
}

func newSampleStats(d time.Duration) *sampleStats {
	return &sampleStats{started: time.Now(), timedFor: d}
}

// time runs fn as one sample of ops operations.
func (s *sampleStats) time(ops uint64, fn func()) {
	runtime.ReadMemStats(&s.ms0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&s.ms1)
	s.ms = append(s.ms, msOf(d.Nanoseconds()))
	s.ops += ops
	s.busy += d
	s.mallocs += s.ms1.Mallocs - s.ms0.Mallocs
	s.bytes += s.ms1.TotalAlloc - s.ms0.TotalAlloc
}

// done reports whether the timed phase has run long enough. Callers
// ask only at pass boundaries, so every run weighs each input of the
// pass equally, whatever the host's speed.
func (s *sampleStats) done() bool {
	el := time.Since(s.started)
	return el >= maxTimed || (el >= s.timedFor && len(s.ms) >= minSamples)
}

// endToEnd returns the end-to-end metrics of a timed phase.
func (s *sampleStats) endToEnd(setup []float64) []metric {
	n := float64(s.ops)
	return []metric{
		{"ops_per_s", "1/s", n / s.busy.Seconds()},
		{"sample_ms_p50", "ms", quantile(s.ms, 0.5)},
		{"sample_ms_p90", "ms", quantile(s.ms, 0.9)},
		{"allocs_per_op", "count", float64(s.mallocs) / n},
		{"bytes_per_op", "B", float64(s.bytes) / n},
		{"setup_s", "s", median(setup)},
	}
}

// runWorkload runs one workload for about d: the timed phase with
// tracing off, or (traced) the floor suite and the traced phase.
func runWorkload(w workload, seed uint64, d time.Duration, traced bool) (*outcome, error) {
	if w.fleet.Nodes == 0 {
		return runAuditWorkload(seed, d, traced)
	}
	return runFleetWorkload(w, seed, d, traced)
}

// --- fleet workloads ---

type fleetBench struct {
	w     workload
	seeds []uint64
	refs  []fleet.Result
}

func (b *fleetBench) config(k int) fleet.Config {
	c := b.w.fleet
	c.Seed = b.seeds[k]
	return c
}

// refConfig is fleetsim's same-seed baseline: a lossless link and no
// collector crashes, with node crashes and durability kept (node crash
// recovery reseeds the URNG, so it changes the values).
func (b *fleetBench) refConfig(k int) fleet.Config {
	c := b.config(k)
	c.Link = fault.LinkProfile{}
	c.CollectorCrashes = nil
	return c
}

func (b *fleetBench) reports() uint64 { return uint64(b.w.fleet.Nodes * b.w.fleet.Reports) }

// check returns why res is wrong, or "" when it has no violations and
// matches its same-seed reference bit for bit.
func (b *fleetBench) check(k int, res fleet.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(res.Violations) > 0 {
		return fmt.Sprintf("%d violations, first: %s", len(res.Violations), res.Violations[0])
	}
	if diff := fleet.CompareRuns(b.refs[k], res); len(diff) > 0 {
		return fmt.Sprintf("differs from its same-seed reference: %s", diff[0])
	}
	return ""
}

// setup runs the references and one warm-up run; later passes must
// reproduce the first pass's references exactly.
func (b *fleetBench) setup() (float64, error) {
	t0 := time.Now()
	refs := make([]fleet.Result, len(b.seeds))
	for k := range refs {
		res, err := fleet.Run(b.refConfig(k))
		if err != nil {
			return 0, fmt.Errorf("reference %d: %w", k, err)
		}
		if len(res.Violations) > 0 {
			return 0, fmt.Errorf("reference %d: %s", k, res.Violations[0])
		}
		if b.refs != nil {
			if diff := fleet.CompareRuns(b.refs[k], res); len(diff) > 0 {
				return 0, fmt.Errorf("reference %d not reproducible: %s", k, diff[0])
			}
		}
		refs[k] = res
	}
	if b.refs == nil {
		b.refs = refs
	}
	res, err := fleet.Run(b.config(0))
	if msg := b.check(0, res, err); msg != "" {
		return 0, fmt.Errorf("warm-up run: %s", msg)
	}
	return time.Since(t0).Seconds(), nil
}

func runFleetWorkload(w workload, seed uint64, d time.Duration, traced bool) (*outcome, error) {
	b := &fleetBench{w: w, seeds: make([]uint64, w.refs)}
	for k := range b.seeds {
		b.seeds[k] = deriveSeed(seed, k)
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var setup []float64
	for i := 0; i < reps; i++ {
		s, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setup = append(setup, s)
	}
	o := &outcome{}
	h := fnv.New64a()
	for _, r := range b.refs {
		writeU64(h, fleetFingerprint(r))
	}
	o.fingerprint = h.Sum64()

	if traced {
		return o, b.traced(o, seed)
	}
	st := newSampleStats(d)
	for i := 0; ; i++ {
		k := i % len(b.seeds)
		if k == 0 && i > 0 && st.done() {
			break
		}
		var (
			res fleet.Result
			err error
		)
		st.time(b.reports(), func() { res, err = fleet.Run(b.config(k)) })
		o.attempted += b.reports()
		if msg := b.check(k, res, err); msg != "" {
			o.fail(b.reports(), "sample %d (seed %d): %s", i, b.seeds[k], msg)
		}
	}
	o.samples = len(st.ms)
	o.metrics = st.endToEnd(setup)
	return o, nil
}

// tracedRuns is how many traced fleet runs pool their spans.
const tracedRuns = 3

// traced runs the floor suite, the analyzer pass, and tracedRuns
// traced fleet runs, each paired with an untraced run of the same seed
// so the tracing overhead is measured alongside.
func (b *fleetBench) traced(o *outcome, seed uint64) error {
	floors, err := runFloors()
	if err != nil {
		return err
	}
	calls := auditTracedPass(auditPool(seed)[:auditBlock], o)

	var (
		spans          []obs.SpanView
		counters       = map[string]uint64{}
		plain, tracedT []float64
		dropped        uint64
	)
	for i := 0; i < tracedRuns; i++ {
		k := i % len(b.seeds)
		cfg := b.config(k)
		t0 := time.Now()
		res, err := fleet.Run(cfg)
		plain = append(plain, msOf(time.Since(t0).Nanoseconds()))
		o.attempted += b.reports()
		if msg := b.check(k, res, err); msg != "" {
			o.fail(b.reports(), "untraced run %d: %s", i, msg)
		}

		cfg.Obs = obs.NewRegistry()
		cfg.Flight = obs.NewFlightRecorder(2 * int(b.reports()))
		t0 = time.Now()
		res, err = fleet.Run(cfg)
		tracedT = append(tracedT, msOf(time.Since(t0).Nanoseconds()))
		o.attempted += b.reports()
		msg := b.check(k, res, err)
		if msg == "" {
			dropped += res.Flight.Dropped
			if v := obs.ValidateFlight(res.Flight, true, cfg.Durable); len(v) > 0 {
				msg = v[0]
			} else if res.Flight.Dropped > 0 {
				msg = fmt.Sprintf("flight recorder dropped %d spans", res.Flight.Dropped)
			}
		}
		if msg != "" {
			o.fail(b.reports(), "traced run %d: %s", i, msg)
			continue
		}
		spans = append(spans, res.Flight.Spans...)
		for name, v := range res.Obs.Counters {
			counters[name] += v
		}
	}

	o.metrics = append(floors.metrics, callMetrics(calls)...)
	pm, tm := median(plain), median(tracedT)
	o.detail = append(floors.detail, metric{"trace.overhead_pct", "%", 100 * (tm - pm) / pm})

	stages := stageMetrics(spans)
	o.detail = append(o.detail, stages...)
	p50 := map[string]float64{}
	for _, m := range stages {
		p50[m.Name] = m.Value
	}
	// wait = observed stage p50 − the floor of the call that stage
	// performs. A stage the workload never stamps has no wait row.
	waits := []struct {
		from, to obs.Stage
		floorNs  float64
	}{
		{obs.StageNoised, obs.StageJournal, floors.ns("dpbox.noise_journaled")},
		{obs.StageTx, obs.StageLinkRx, floors.ns("transport.link_hop")},
		{obs.StageLinkRx, obs.StageAdmit, floors.ns("collector.ingest")},
		{obs.StageAdmit, obs.StageCheckpoint, floors.ns("collector.ingest_durable") - floors.ns("collector.ingest")},
	}
	for _, wt := range waits {
		pair := wt.from.String() + "." + wt.to.String()
		if v, ok := p50["stage."+pair+".p50_us"]; ok {
			o.detail = append(o.detail, metric{"wait." + pair + "_us", "us", v - wt.floorNs/1e3})
		}
	}
	reports := float64(b.reports()) * tracedRuns
	per := func(name, counter string, scale float64) metric {
		return metric{name, "count", float64(counters[counter]) * scale / reports}
	}
	o.detail = append(o.detail,
		per("node.retransmits_per_report", "node.retransmits", 1),
		metric{"node.backoff_us_per_report", "us", float64(counters["node.backoff_ns"]) / 1e3 / reports},
		per("collector.duplicates_per_report", "collector.duplicates", 1),
		per("transport.frames_per_report", "transport.sent", 1),
		per("nvm.words_per_report", "collector.checkpoint_bytes", 0.5),
		per("dpbox.resamples_per_report", "dpbox.resamples", 1),
		metric{"collector.timeouts_per_run", "count", float64(counters["collector.timeouts"]) / tracedRuns},
		metric{"flight.dropped", "count", float64(dropped)},
	)
	o.samples = tracedRuns
	return nil
}

// chain is the flight recorder's happy-path causal order.
var chain = []obs.Stage{obs.StageNoised, obs.StageJournal, obs.StageTx, obs.StageLinkRx, obs.StageAdmit, obs.StageCheckpoint, obs.StageAck}

// stageMetrics computes exact p50/p99 of every consecutive stamped
// stage pair of ACKed spans, plus noised → ack. A stage a workload
// never stamps (checkpoint-commit on a volatile collector) is skipped,
// so its neighbours pair up directly.
func stageMetrics(spans []obs.SpanView) []metric {
	type pair struct{ from, to obs.Stage }
	lat := map[pair][]float64{}
	for _, v := range spans {
		if !v.Acked() {
			continue
		}
		prev := -1
		for i, st := range chain {
			if v.StampNs[st] == 0 {
				continue
			}
			if prev >= 0 {
				p := pair{chain[prev], st}
				lat[p] = append(lat[p], float64(v.StampNs[st]-v.StampNs[chain[prev]])/1e3)
			}
			prev = i
		}
		p := pair{obs.StageNoised, obs.StageAck}
		lat[p] = append(lat[p], float64(v.StampNs[obs.StageAck]-v.StampNs[obs.StageNoised])/1e3)
	}
	keys := make([]pair, 0, len(lat))
	for p := range lat {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var out []metric
	for _, p := range keys {
		name := "stage." + p.from.String() + "." + p.to.String()
		out = append(out,
			metric{name + ".p50_us", "us", quantile(lat[p], 0.5)},
			metric{name + ".p99_us", "us", quantile(lat[p], 0.99)})
	}
	return out
}

// fleetFingerprint is FNV-1a over every node's sorted (seq, recorded
// value, released value), its spend, and the aggregate — the fields
// fleet.CompareRuns compares.
func fleetFingerprint(res fleet.Result) uint64 {
	h := fnv.New64a()
	for i, nr := range res.Nodes {
		seqs := make([]uint64, 0, len(nr.Recorded))
		for s := range nr.Recorded {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
		for _, s := range seqs {
			writeU64(h, uint64(i), s, uint64(nr.Recorded[s]), uint64(nr.Released[s].Value))
		}
		writeU64(h, math.Float64bits(nr.SpendNats))
	}
	writeU64(h, uint64(res.Aggregate.Reports), uint64(res.Aggregate.Sum))
	return h.Sum64()
}

func writeU64(h interface{ Write([]byte) (int, error) }, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// deriveSeed is splitmix64 of (seed, k): independent per-sample seeds
// from the run's seed.
func deriveSeed(seed uint64, k int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(k+1)*0xD1B54A32D192ED03
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// --- audit workload ---

type auditBench struct {
	pool     []core.Params
	expected []uint64 // per pool index; 0 until first audited
}

// check compares an audit against the first audit of the same config.
func (b *auditBench) check(i int, res auditResult, err error) string {
	if err != nil {
		return err.Error()
	}
	fp := res.fingerprint()
	switch b.expected[i] {
	case 0:
		b.expected[i] = fp
	case fp:
	default:
		return fmt.Sprintf("config %d %+v: result differs from its first audit", i, b.pool[i])
	}
	return ""
}

// setup audits the first block cold; every pass must agree with the
// first.
func (b *auditBench) setup() (float64, error) {
	t0 := time.Now()
	for i := 0; i < auditBlock; i++ {
		res, err := runAudit(b.pool[i], nil)
		if msg := b.check(i, res, err); msg != "" {
			return 0, fmt.Errorf("audit set-up: %s", msg)
		}
	}
	return time.Since(t0).Seconds(), nil
}

func runAuditWorkload(seed uint64, d time.Duration, traced bool) (*outcome, error) {
	b := &auditBench{pool: auditPool(seed)}
	b.expected = make([]uint64, len(b.pool))
	for _, par := range b.pool {
		if err := par.Validate(); err != nil {
			return nil, fmt.Errorf("audit pool: %w", err)
		}
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var setup []float64
	for i := 0; i < reps; i++ {
		s, err := b.setup()
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	o := &outcome{}
	if traced {
		if err := b.traced(o); err != nil {
			return nil, err
		}
	} else {
		st := newSampleStats(d)
		for i := 0; ; i++ {
			k := i % len(b.pool)
			if k == 0 && i > 0 && st.done() {
				break
			}
			var (
				res auditResult
				err error
			)
			st.time(1, func() { res, err = runAudit(b.pool[k], nil) })
			o.attempted++
			if msg := b.check(k, res, err); msg != "" {
				o.fail(1, "audit %d: %s", i, msg)
			}
		}
		o.samples = len(st.ms)
		o.metrics = st.endToEnd(setup)
	}
	h := fnv.New64a()
	for _, fp := range b.expected[:auditBlock] {
		writeU64(h, fp)
	}
	o.fingerprint = h.Sum64()
	return o, nil
}

// tracedAuditBlocks is how much of the pool the traced phase audits.
const tracedAuditBlocks = 2

// traced runs the floor suite, then audits the first blocks twice per
// config — untraced, then with every step timed — for the per-step
// percentiles and the tracing overhead.
func (b *auditBench) traced(o *outcome) error {
	floors, err := runFloors()
	if err != nil {
		return err
	}
	calls := make([][]float64, len(auditCallNames))
	var plain, traced time.Duration
	pool := b.pool[:tracedAuditBlocks*auditBlock]
	for i, par := range pool {
		t0 := time.Now()
		res, err := runAudit(par, nil)
		plain += time.Since(t0)
		o.attempted++
		if msg := b.check(i, res, err); msg != "" {
			o.fail(1, "untraced audit %d: %s", i, msg)
		}
		res, d, err := tracedAudit(par, calls)
		traced += d
		o.attempted++
		if msg := b.check(i, res, err); msg != "" {
			o.fail(1, "traced audit %d: %s", i, msg)
		}
	}
	o.metrics = append(floors.metrics, callMetrics(calls)...)
	o.detail = append(floors.detail, metric{"trace.overhead_pct", "%", 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds()})
	o.samples = len(pool)
	return nil
}

// auditTracedPass is the analyzer pass of a fleet workload's traced
// run: the first block of the seed's sweep, every step timed.
func auditTracedPass(pool []core.Params, o *outcome) [][]float64 {
	calls := make([][]float64, len(auditCallNames))
	for i, par := range pool {
		_, _, err := tracedAudit(par, calls)
		o.attempted++
		if err != nil {
			o.fail(1, "analyzer pass config %d: %v", i, err)
		}
	}
	return calls
}
