package collector

import (
	"sync"
	"testing"
	"time"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/node"
	"ulpdp/internal/transport"
	"ulpdp/internal/urng"
)

// newFleetBox builds a journaled DP-Box for one simulated node.
func newFleetBox(t *testing.T, seed uint64, budget float64) *dpbox.DPBox {
	t.Helper()
	box, err := dpbox.New(dpbox.Config{
		Bu: 12, By: 10, Mult: 2,
		Multipliers: []float64{1.25, 1.5},
		Source:      urng.NewTaus88(seed),
		Journal:     dpbox.NewJournal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Initialize(budget, 0); err != nil {
		t.Fatal(err)
	}
	if err := box.Configure(1, 0, 16); err != nil {
		t.Fatal(err)
	}
	return box
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// report noises x through a and steps its delivery to done on the
// wall clock: it sleeps until each deadline Step names, so an ACK that
// lands meanwhile is taken at the deadline.
func report(a *node.ReportAgent, x int64) (node.ReportOutcome, error) {
	if err := a.Begin(x); err != nil {
		return a.Outcome()
	}
	start := time.Now()
	for {
		now := time.Since(start)
		next, done := a.Step(now)
		if done {
			return a.Outcome()
		}
		time.Sleep(next - now)
	}
}

// TestConcurrentFleetIngest is the ISSUE's concurrency gate: 64 nodes
// reporting concurrently through real agents, under -race, with
// exactly-once accounting at the end.
func TestConcurrentFleetIngest(t *testing.T) {
	const (
		nodes   = 64
		reports = 5
	)
	col := New(Config{
		// The breaker is not under test here; a tight threshold plus
		// race-detector scheduling jitter would only add noise.
		BreakerThreshold: 1 << 20,
	})
	defer col.Close()

	boxes := make([]*dpbox.DPBox, nodes)
	links := make([]*transport.Link, nodes)
	for i := 0; i < nodes; i++ {
		boxes[i] = newFleetBox(t, uint64(i)+1, 1e6)
		links[i] = transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(transport.NodeID(i), links[i].CollectorEnd()); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agent := node.NewReportAgent(boxes[i], links[i].NodeEnd(), node.AgentConfig{
				ID: transport.NodeID(i), MaxAttempts: 64,
			})
			for r := 0; r < reports; r++ {
				if _, err := report(agent, int64(r%16)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	agg := col.Aggregate()
	if agg.Nodes != nodes || agg.Reports != nodes*reports {
		t.Fatalf("aggregate %+v, want %d nodes x %d reports", agg, nodes, reports)
	}
	// Exactly-once accounting: the collector's recorded values are
	// precisely each node's journaled releases.
	for i := 0; i < nodes; i++ {
		got := col.Values(transport.NodeID(i))
		want := boxes[i].Releases()
		if len(got) != len(want) {
			t.Fatalf("node %d: %d recorded vs %d journaled", i, len(got), len(want))
		}
		for seq, v := range got {
			if want[seq].Value != v {
				t.Fatalf("node %d seq %d: recorded %d, journal %d", i, seq, v, want[seq].Value)
			}
		}
	}
}

// TestDuplicateReorderScheduleProperty is the ISSUE's property test:
// any schedule of duplicated and reordered deliveries of the same
// (node, seq) reports changes neither the node's journal spend nor
// the collector aggregate.
func TestDuplicateReorderScheduleProperty(t *testing.T) {
	const nReports = 6
	box := newFleetBox(t, 11, 1e6)
	var pkts []transport.Packet
	for seq := uint64(0); seq < nReports; seq++ {
		res, err := box.NoiseValueSeq(seq, int64(seq%5))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, transport.Packet{
			Kind: transport.KindReport, Node: 1, Seq: seq, Value: res.Value,
		})
	}
	spend := 1e6 - box.BudgetRemaining()

	run := func(schedule []int) Aggregate {
		col := New(Config{BreakerThreshold: 1 << 20})
		defer col.Close()
		link := transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(1, link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		end := link.NodeEnd()
		for _, i := range schedule {
			// Each redelivery is also a node-side retry: the box must
			// replay, not redraw.
			res, err := box.NoiseValueSeq(pkts[i].Seq, int64(pkts[i].Seq%5))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Replayed || res.Value != pkts[i].Value {
				t.Fatalf("retry of seq %d redrew: %+v", pkts[i].Seq, res)
			}
			end.Send(pkts[i])
		}
		waitFor(t, 5*time.Second, "all reports recorded", func() bool {
			return col.Aggregate().Reports == nReports
		})
		return col.Aggregate()
	}

	baseline := run([]int{0, 1, 2, 3, 4, 5})

	// Deterministic pseudo-random schedules: shuffles with 2-3x
	// duplication of every report.
	rng := uint64(0xDEC0DE)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}
	for trial := 0; trial < 8; trial++ {
		var schedule []int
		for i := 0; i < nReports; i++ {
			for c := 2 + int(next()%2); c > 0; c-- {
				schedule = append(schedule, i)
			}
		}
		for i := len(schedule) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			schedule[i], schedule[j] = schedule[j], schedule[i]
		}
		agg := run(schedule)
		if agg != baseline {
			t.Fatalf("trial %d: aggregate %+v != baseline %+v (schedule %v)", trial, agg, baseline, schedule)
		}
	}
	if nowSpend := 1e6 - box.BudgetRemaining(); nowSpend != spend {
		t.Fatalf("redelivery schedules changed journal spend: %g -> %g nats", spend, nowSpend)
	}
}

// TestBreakerTripsHalfOpensRecovers walks one node's breaker through
// its full arc, one idle Tick at a time, so every state is checked at
// the exact tick it must hold (a wall-clock poll can miss the two-tick
// open window). Reports are drained on the sending goroutine, so each
// probe's verdict is visible as soon as its Send returns.
func TestBreakerTripsHalfOpensRecovers(t *testing.T) {
	col := New(Config{BreakerThreshold: 3, OpenTicks: 2})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	end := link.NodeEnd()

	// Queue a healthy report BEFORE attaching: Attach drains it.
	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 0, Value: 40})
	if err := col.Attach(5, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}

	state := func() NodeView {
		v, ok := col.Node(5)
		if !ok {
			t.Fatal("node 5 not attached")
		}
		return v
	}
	// step runs one period's idle tick and checks its effect.
	tick := 0
	step := func(want BreakerState) {
		t.Helper()
		tick++
		col.Tick()
		if got := state().Breaker; got != want {
			t.Fatalf("tick %d: breaker %v, want %v", tick, got, want)
		}
	}
	if v := state(); !v.Have || v.Degraded || v.Value != 40 {
		t.Fatalf("healthy view %+v", v)
	}

	// The first tick sees the report; the next three are silent and
	// trip the breaker, after which queries serve the last-ACKed
	// cache, marked degraded.
	step(BreakerClosed)
	tick = 0 // count silent ticks from here
	step(BreakerClosed)
	step(BreakerClosed)
	step(BreakerOpen)
	v := state()
	if !v.Degraded || v.Value != 40 || v.Seq != 0 || v.Reports != 1 {
		t.Fatalf("open view should serve cached seq 0 value 40: %+v", v)
	}

	// OpenTicks more silent ticks half-open it; an unhealthy probe
	// slams it shut again without being recorded.
	step(BreakerOpen)
	step(BreakerHalfOpen)
	end.Send(transport.Packet{
		Kind: transport.KindReport, Node: 5, Seq: 1, Value: 41,
		Flags: transport.FlagUnhealthy,
	})
	if v := state(); v.Breaker != BreakerOpen || v.Reports != 1 {
		t.Fatalf("after the unhealthy probe: %+v, want open with 1 report", v)
	}

	// The tick that saw the probe does not count down the cooldown;
	// the next two do and half-open it again. A healthy probe closes
	// the breaker and is recorded normally.
	tick = 0
	step(BreakerOpen)
	step(BreakerOpen)
	step(BreakerHalfOpen)
	end.Send(transport.Packet{Kind: transport.KindReport, Node: 5, Seq: 1, Value: 50})
	v = state()
	if v.Breaker != BreakerClosed || v.Degraded || v.Value != 50 || v.Reports != 2 {
		t.Fatalf("recovered view %+v", v)
	}
}

func TestBackpressureShedsAndRetriesRecover(t *testing.T) {
	const (
		nodes   = 4
		reports = 8
	)
	col := New(Config{
		BreakerThreshold: 1 << 20,
		procDelay:        time.Millisecond,
	})
	defer col.Close()

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		box := newFleetBox(t, uint64(100+i), 1e6)
		link := transport.NewLink(transport.LinkConfig{})
		if err := col.Attach(transport.NodeID(i), link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, box *dpbox.DPBox, link *transport.Link) {
			defer wg.Done()
			agent := node.NewReportAgent(box, link.NodeEnd(), node.AgentConfig{
				ID: transport.NodeID(i), MaxAttempts: 256,
			})
			for r := 0; r < reports; r++ {
				if _, err := report(agent, int64(r)); err != nil {
					errs <- err
					return
				}
			}
		}(i, box, link)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	agg := col.Aggregate()
	if agg.Reports != nodes*reports {
		t.Fatalf("lost reports to backpressure: %+v", agg)
	}
}

func TestExhaustedBudgetServedFromCache(t *testing.T) {
	col := New(Config{BreakerThreshold: 1 << 20})
	defer col.Close()
	link := transport.NewLink(transport.LinkConfig{})
	if err := col.Attach(2, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	end := link.NodeEnd()

	end.Send(transport.Packet{Kind: transport.KindReport, Node: 2, Seq: 0, Value: 7})
	waitFor(t, 5*time.Second, "fresh report", func() bool {
		v, _ := col.Node(2)
		return v.Have
	})
	if v, _ := col.Node(2); v.Degraded {
		t.Fatalf("fresh report marked degraded: %+v", v)
	}

	// The node announces budget exhaustion: its values now replay the
	// DP-Box cache, and the collector marks the feed degraded while
	// continuing to serve the last-ACKed value.
	end.Send(transport.Packet{
		Kind: transport.KindReport, Node: 2, Seq: 1, Value: 7,
		Flags: transport.FlagFromCache,
	})
	waitFor(t, 5*time.Second, "exhausted report", func() bool {
		v, _ := col.Node(2)
		return v.Seq == 1
	})
	v, _ := col.Node(2)
	if !v.Degraded || v.Value != 7 {
		t.Fatalf("exhausted view %+v", v)
	}
	if agg := col.Aggregate(); agg.Degraded != 1 {
		t.Fatalf("aggregate degraded count: %+v", agg)
	}
}

// TestRecoverRestoresNodeViews crashes a durable collector whose last
// snapshot holds every breaker state — open, half-open, an exhausted
// node, far-spill seqs, absorbed duplicates — and requires the
// recovered, re-attached collector to serve every node's view, values
// and breaker bookkeeping exactly as before the crash.
func TestRecoverRestoresNodeViews(t *testing.T) {
	cfg := Config{
		Shards:           1,
		CompactEvery:     1,
		BreakerThreshold: 3,
		OpenTicks:        2,
	}
	store := NewStore(cfg.Shards)
	col, err := NewDurable(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 5
	ends := make(map[transport.NodeID]*transport.Endpoint)
	for id := transport.NodeID(1); id <= nodes; id++ {
		link := transport.NewLink(transport.LinkConfig{QueueCap: 64})
		if err := col.Attach(id, link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
		ends[id] = link.NodeEnd()
	}
	handled := uint64(0)
	send := func(id transport.NodeID, seq uint64, v int64, flags uint8) {
		ends[id].Send(transport.Packet{Kind: transport.KindReport, Node: id, Seq: seq, Value: v, Flags: flags})
		handled++
	}
	const far = denseLimit + 7
	// Node 1: healthy, with a duplicate. Nodes 2 and 3: two admitted
	// unhealthy reports, then a third that trips the breaker open.
	// Node 4: a far-spill seq, delivered twice. Node 5: exhausted.
	for s := uint64(0); s < 3; s++ {
		send(1, s, 10+int64(s), 0)
	}
	send(1, 1, 11, 0)
	for _, id := range []transport.NodeID{2, 3} {
		send(id, 0, 10*int64(id), 0)
		for s := uint64(1); s <= 3; s++ {
			send(id, s, -int64(s), transport.FlagUnhealthy)
		}
	}
	send(4, far, -4, 0)
	send(4, 0, 40, 0)
	send(4, far, -4, 0)
	send(5, 0, 50, transport.FlagFromCache)
	quiesce(t, col, handled)

	// Two silent ticks count one silence everywhere (the first only
	// clears the reports' sawReport). Node 2 then reports into its open
	// breaker, so the third tick half-opens node 3 alone.
	col.Tick()
	col.Tick()
	send(2, 4, 0, transport.FlagUnhealthy)
	quiesce(t, col, handled)
	col.Tick()
	// One healthy admission compacts last, so the snapshot holds every
	// breaker the ticks moved.
	send(1, 3, 13, 0)
	quiesce(t, col, handled)

	type record struct {
		view       NodeView
		values     map[uint64]int64
		consecFail int
		openLeft   int
	}
	snapshot := func(c *Collector) map[transport.NodeID]record {
		out := make(map[transport.NodeID]record)
		for id := transport.NodeID(1); id <= nodes; id++ {
			v, ok := c.Node(id)
			if !ok {
				t.Fatalf("node %d missing", id)
			}
			r := record{view: v, values: c.Values(id)}
			sh := c.shardFor(id)
			sh.mu.Lock()
			r.consecFail, r.openLeft = sh.nodes[id].consecFail, sh.nodes[id].openLeft
			sh.mu.Unlock()
			out[id] = r
		}
		return out
	}
	before := snapshot(col)
	if b := before[2].view.Breaker; b != BreakerOpen {
		t.Fatalf("node 2 breaker %v, want open", b)
	}
	if b := before[3].view.Breaker; b != BreakerHalfOpen {
		t.Fatalf("node 3 breaker %v, want half-open", b)
	}
	if v := before[5].view; !v.Degraded || v.Breaker != BreakerClosed {
		t.Fatalf("node 5 view %+v, want degraded by exhaustion", v)
	}
	if v := before[4]; v.view.Reports != 2 || v.values[far] != -4 || v.view.Seq != far {
		t.Fatalf("node 4 %+v, want the far seq recorded once and ACKed last", v)
	}
	if s := col.Stats(); s.Duplicates != 2 || s.Accepted != 13 {
		t.Fatalf("stats %+v, want 13 accepted and 2 duplicates", s)
	}

	store.Kill()
	col.Close()
	col, err = Recover(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for id := transport.NodeID(1); id <= nodes; id++ {
		link := transport.NewLink(transport.LinkConfig{QueueCap: 64})
		if err := col.Attach(id, link.CollectorEnd()); err != nil {
			t.Fatal(err)
		}
	}
	after := snapshot(col)
	for id, want := range before {
		got := after[id]
		if got.view != want.view || got.consecFail != want.consecFail || got.openLeft != want.openLeft {
			t.Fatalf("node %d recovered %+v, before the crash %+v", id, got, want)
		}
		if len(got.values) != len(want.values) {
			t.Fatalf("node %d recovered %d values, before the crash %d", id, len(got.values), len(want.values))
		}
		for seq, v := range want.values {
			if gv, ok := got.values[seq]; !ok || gv != v {
				t.Fatalf("node %d seq %d recovered (%d, %v), before the crash %d", id, seq, gv, ok, v)
			}
		}
	}
}
