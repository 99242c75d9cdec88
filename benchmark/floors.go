package main

import (
	"fmt"
	"runtime"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/cordic"
	"ulpdp/internal/core"
	"ulpdp/internal/dpbox"
	"ulpdp/internal/fleet"
	"ulpdp/internal/laplace"
	"ulpdp/internal/nvm"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// The layer floors time each public call of the report path in
// isolation: no contention, no timers, no chaos. A floor is the least
// time a stage of the traced fleet run can take, so "observed stage
// time − floor" is the time the report spent waiting.

// fleetPar is the fleet's DP-Box geometry in analyzer terms:
// Configure(1, 0, 16) on a Bu 12 / By 10 box is ε = 0.5 over a
// 16-step range with Δ = 1.
var fleetPar = core.Params{Lo: 0, Hi: 16, Eps: 0.5, Bu: 12, By: 10, Delta: 1}

// pmfPar is the analyzer's default micro-benchmark geometry, where
// the exact PMF is large enough to time.
var pmfPar = core.Params{Lo: 0, Hi: 10, Eps: 0.5, Bu: 17, By: 12, Delta: 10.0 / 32}

// sink keeps timed results live so the compiler cannot drop the calls.
var sink int64

// floorResult is one timed floor.
type floorResult struct {
	Name        string
	NsPerOp     float64 // median over batches
	AllocsPerOp float64
}

// floor is one named floor: prepare (untimed) readies a batch of n
// operations, run performs them.
type floor struct {
	name string
	maxN int // batch cap (bounds memory for floors that accumulate state)
	// fixedN, when set, is the batch size, so the work a floor counts
	// (not only times) is the same on every run.
	fixedN  int
	prepare func(n int)
	run     func(n int)
}

const (
	floorBatches     = 11
	floorBatchTarget = 4 * time.Millisecond
)

// measure calibrates a batch size that takes about floorBatchTarget,
// then times floorBatches batches and reports the median ns/op and the
// mean allocations per op over every timed batch.
func (f floor) measure() floorResult {
	n := f.fixedN
	if n == 0 {
		n = f.calibrate()
	}
	var (
		per      []float64
		mallocs  uint64
		ms0, ms1 runtime.MemStats
	)
	for i := 0; i < floorBatches; i++ {
		d := f.batch(n, func(before bool) {
			if before {
				runtime.ReadMemStats(&ms0)
			} else {
				runtime.ReadMemStats(&ms1)
			}
		})
		mallocs += ms1.Mallocs - ms0.Mallocs
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return floorResult{
		Name:        f.name,
		NsPerOp:     median(per),
		AllocsPerOp: float64(mallocs) / float64(n*floorBatches),
	}
}

// calibrate grows the batch until one takes floorBatchTarget or hits
// maxN.
func (f floor) calibrate() int {
	n := 1
	for {
		d := f.batch(n, nil)
		if d >= floorBatchTarget || n >= f.maxN {
			return n
		}
		grow := 2 * n
		if d > 0 {
			grow = int(float64(n) * float64(floorBatchTarget) / float64(d) * 1.1)
		}
		n = min(max(grow, n+1), f.maxN)
	}
}

// batch runs one untimed prepare and one timed run of n operations.
// mem, when non-nil, brackets the timed region with memory snapshots.
func (f floor) batch(n int, mem func(before bool)) time.Duration {
	if f.prepare != nil {
		f.prepare(n)
	}
	if mem != nil {
		mem(true)
	}
	t0 := time.Now()
	f.run(n)
	d := time.Since(t0)
	if mem != nil {
		mem(false)
	}
	return d
}

// floorSuite is the result of the named floor suite. Allocation rows
// go to detail: most are 0 by design, and the rest are what an
// allocation change drives to 0.
type floorSuite struct {
	results []floorResult
	metrics []metric
	detail  []metric
}

// ns returns a floor's median ns/op by name.
func (s *floorSuite) ns(name string) float64 {
	for _, r := range s.results {
		if r.Name == name {
			return r.NsPerOp
		}
	}
	panic("benchmark: unknown floor " + name)
}

// runFloors times every layer floor and derives the per-report counts
// the floors observe along the way.
func runFloors() (*floorSuite, error) {
	s := &floorSuite{}
	add := func(f floor, layerOp string) {
		r := f.measure()
		s.results = append(s.results, r)
		s.metrics = append(s.metrics, metric{layerOp + "_ns", "ns", r.NsPerOp})
		s.detail = append(s.detail, metric{layerOp + ".allocs", "count", r.AllocsPerOp})
	}

	src := urng.NewTaus88(1)
	add(floor{name: "urng.draw", maxN: 1 << 24, run: func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(urng.Bits(src, fleetPar.Bu))
		}
	}}, "urng.draw")

	lg := cordic.New(cordic.DefaultConfig)
	add(floor{name: "cordic.log", maxN: 1 << 24, run: func(n int) {
		for i := 0; i < n; i++ {
			sink += lg.LnUnit(uint64(i&(1<<fleetPar.Bu-1))+1, fleetPar.Bu)
		}
	}}, "cordic.log")

	sampler, err := laplace.NewHWSampler(fleetPar.FxP(), nil, urng.NewTaus88(2))
	if err != nil {
		return nil, fmt.Errorf("laplace sampler: %w", err)
	}
	add(floor{name: "laplace.sample", maxN: 1 << 24, run: func(n int) {
		for i := 0; i < n; i++ {
			sink += sampler.SampleK()
		}
	}}, "laplace.sample")

	thT, err := core.ThresholdingThreshold(fleetPar, 2)
	if err != nil {
		return nil, err
	}
	thR, err := core.ResamplingThreshold(fleetPar, 2)
	if err != nil {
		return nil, err
	}
	mT, err := core.NewThresholding(fleetPar, thT, nil, urng.NewTaus88(3))
	if err != nil {
		return nil, err
	}
	mR, err := core.NewResampling(fleetPar, thR, nil, urng.NewTaus88(4))
	if err != nil {
		return nil, err
	}
	add(floor{name: "core.noise_thresholding", maxN: 1 << 24, run: func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(mT.Noise(5).Value)
		}
	}}, "core.noise_thresholding")
	add(floor{name: "core.noise_resampling", maxN: 1 << 24, run: func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(mR.Noise(5).Value)
		}
	}}, "core.noise_resampling")

	box, err := newFleetBox(5, nil)
	if err != nil {
		return nil, err
	}
	var boxErr error
	add(floor{name: "dpbox.noise", maxN: 1 << 22, run: func(n int) {
		for i := 0; i < n; i++ {
			r, err := box.NoiseValue(int64(i % 17))
			if err != nil {
				boxErr = err
				return
			}
			sink += r.Value
		}
	}}, "dpbox.noise")

	// The journaled floor is the fleet's per-report call: a fresh
	// journaled box per batch keeps the journal (which compacts only at
	// recovery) from growing without bound.
	var (
		jbox                  *dpbox.DPBox
		journal               *dpbox.Journal
		jWrites, jOps, cycles uint64
	)
	add(floor{name: "dpbox.noise_journaled", maxN: 4096,
		prepare: func(int) {
			journal = dpbox.NewJournal()
			var err error
			if jbox, err = newFleetBox(6, journal); err != nil {
				boxErr = err
			}
		},
		run: func(n int) {
			if jbox == nil {
				return
			}
			w0 := journal.Stats().Writes
			for i := 0; i < n; i++ {
				r, err := jbox.NoiseValueSeq(uint64(i), int64(i%17))
				if err != nil {
					boxErr = err
					return
				}
				sink += r.Value
				cycles += uint64(r.Cycles)
			}
			jWrites += journal.Stats().Writes - w0
			jOps += uint64(n)
		}}, "dpbox.noise_journaled")
	if boxErr != nil || jOps == 0 {
		return nil, fmt.Errorf("dpbox floor: %v", boxErr)
	}
	s.metrics = append(s.metrics,
		metric{"dpbox.journal_words_per_report", "count", float64(jWrites) / float64(jOps)},
		metric{"dpbox.cycles_per_report", "count", float64(cycles) / float64(jOps)})

	lay := nvm.Layout{Salt: nvm.SaltBudget, PayloadLen: func(tag uint16) int {
		switch tag {
		case 1:
			return 4
		case 2:
			return 0
		}
		return -1
	}}
	payload := nvm.Enc64(1 << 40)
	var nvmFailed bool
	region := nvm.NewRegion(nvm.NewMemMedium(1), nvm.NewPower(), lay)
	add(floor{name: "nvm.put", maxN: 1 << 22, run: func(n int) {
		for i := 0; i < n; i++ {
			if !region.Append(0, 1, payload[:]) {
				nvmFailed = true
			}
			if region.Len(0) >= 1<<12 {
				region.Erase(0)
			}
		}
	}}, "nvm.put")
	add(floor{name: "nvm.txn", maxN: 1 << 22, run: func(n int) {
		for i := 0; i < n; i++ {
			pair, ok := region.TxnBegin(0, 1, payload[:])
			if !ok || !region.TxnCommit(0, 2, pair) {
				nvmFailed = true
			}
			if region.Len(0) >= 1<<12 {
				region.Erase(0)
			}
		}
	}}, "nvm.txn")
	if nvmFailed {
		return nil, fmt.Errorf("nvm floor: append refused with live power")
	}

	pkt := transport.Packet{Kind: transport.KindReport, Node: 7, Seq: 1 << 20, Value: -42}
	var codecErr error
	add(floor{name: "transport.frame_codec", maxN: 1 << 22, run: func(n int) {
		for i := 0; i < n; i++ {
			p, err := transport.Unmarshal(transport.Marshal(pkt))
			if err != nil {
				codecErr = err
			}
			sink += p.Value
		}
	}}, "transport.frame_codec")
	if codecErr != nil {
		return nil, fmt.Errorf("frame codec floor: %w", codecErr)
	}
	link := transport.NewLink(transport.LinkConfig{QueueCap: 256})
	nodeEnd, colEnd := link.NodeEnd(), link.CollectorEnd()
	var lost bool
	add(floor{name: "transport.link_hop", maxN: 1 << 22, run: func(n int) {
		for i := 0; i < n; i++ {
			nodeEnd.Send(pkt)
			p, ok := colEnd.TryRecv()
			if !ok {
				lost = true
			}
			sink += p.Value
		}
	}}, "transport.link_hop")
	if lost {
		return nil, fmt.Errorf("link floor: lossless link lost a frame")
	}

	for _, durable := range []bool{false, true} {
		in, err := newIngestFloor(durable)
		if err != nil {
			return nil, err
		}
		name := "collector.ingest"
		if durable {
			name = "collector.ingest_durable"
		}
		add(floor{name: name, fixedN: 8192, run: in.run}, name)
		words := in.words()
		if err := in.close(); err != nil {
			return nil, fmt.Errorf("%s floor: %w", name, err)
		}
		if durable {
			s.metrics = append(s.metrics, metric{"collector.checkpoint_words_per_admit", "count", words})
		}
	}

	runFloor, err := fleetRunFloor()
	if err != nil {
		return nil, err
	}
	s.metrics = append(s.metrics, metric{"fleet.run_floor_ms", "ms", runFloor})

	pmfTimes := make([]float64, 0, 51)
	for i := 0; i < cap(pmfTimes); i++ {
		t0 := time.Now()
		pmf, _ := laplace.NewDist(pmfPar.FxP()).PMF()
		pmfTimes = append(pmfTimes, msOf(time.Since(t0).Nanoseconds()))
		sink += int64(len(pmf))
	}
	s.metrics = append(s.metrics, metric{"laplace.exact_pmf_ms", "ms", median(pmfTimes)})
	return s, nil
}

// newFleetBox powers up a DP-Box in the fleet's shape with a budget
// no floor can exhaust.
func newFleetBox(seed uint64, j *dpbox.Journal) (*dpbox.DPBox, error) {
	box, err := dpbox.New(dpbox.Config{
		Bu: fleetPar.Bu, By: fleetPar.By, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(seed),
		Journal:     j,
	})
	if err != nil {
		return nil, err
	}
	if err := box.Initialize(1e12, 0); err != nil {
		return nil, err
	}
	return box, box.Configure(1, 0, 16)
}

// ingestFloor drives reports round-robin into a collector over 1024
// lossless links, keeping at most ingestWindow reports un-admitted so
// the bounded link queues never overflow (the fleet's ACK clocking).
type ingestFloor struct {
	col   *collector.Collector
	store *collector.Store
	ends  []*transport.Endpoint
	seqs  []uint64
	sent  uint64
	w0    uint64
}

const (
	ingestNodes  = 1024
	ingestWindow = 4096
)

func newIngestFloor(durable bool) (*ingestFloor, error) {
	cfg := collector.Config{BreakerThreshold: 1 << 30, PollTimeout: time.Hour}
	in := &ingestFloor{ends: make([]*transport.Endpoint, ingestNodes), seqs: make([]uint64, ingestNodes)}
	if durable {
		in.store = collector.NewStore(0)
		col, err := collector.NewDurable(cfg, in.store)
		if err != nil {
			return nil, err
		}
		in.col = col
		in.w0 = in.store.Writes()
	} else {
		in.col = collector.New(cfg)
	}
	for i := range in.ends {
		link := transport.NewLink(transport.LinkConfig{QueueCap: 256})
		if err := in.col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			in.col.Close()
			return nil, err
		}
		in.ends[i] = link.NodeEnd()
	}
	return in, nil
}

func (in *ingestFloor) run(n int) {
	for i := 0; i < n; i++ {
		k := int(in.sent % ingestNodes)
		in.ends[k].Send(transport.Packet{
			Kind: transport.KindReport, Node: transport.NodeID(k),
			Seq: in.seqs[k], Value: int64(i),
		})
		in.seqs[k]++
		in.sent++
		for {
			if _, ok := in.ends[k].TryRecv(); !ok {
				break
			}
		}
		if in.sent%ingestWindow == 0 {
			for in.col.Stats().Accepted+ingestWindow < in.sent {
				runtime.Gosched()
			}
		}
	}
	for in.col.Stats().Accepted < in.sent {
		runtime.Gosched()
	}
}

// words returns the checkpoint words written per admission so far.
func (in *ingestFloor) words() float64 {
	if in.store == nil {
		return 0
	}
	return float64(in.store.Writes()-in.w0) / float64(in.sent)
}

// close stops the collector and checks that every report was admitted
// exactly once.
func (in *ingestFloor) close() error {
	st := in.col.Stats()
	in.col.Close()
	if st.Accepted != in.sent || st.Duplicates != 0 {
		return fmt.Errorf("accounting drifted: %+v for %d sends", st, in.sent)
	}
	return nil
}

// fleetRunFloor is the median wall time of a 1-node × 1-report fleet
// run: the fixed cost every fleet sample pays (set-up, quiesce sleeps,
// teardown) before any report-path work.
func fleetRunFloor() (float64, error) {
	times := make([]float64, 0, 25)
	for i := 0; i < cap(times); i++ {
		t0 := time.Now()
		res, err := fleet.Run(fleet.Config{Nodes: 1, Reports: 1, Seed: uint64(i + 1)})
		times = append(times, msOf(time.Since(t0).Nanoseconds()))
		if err != nil {
			return 0, fmt.Errorf("fleet floor: %w", err)
		}
		if len(res.Violations) > 0 {
			return 0, fmt.Errorf("fleet floor: %s", res.Violations[0])
		}
	}
	return median(times), nil
}
