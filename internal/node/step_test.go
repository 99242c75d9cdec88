package node

import (
	"testing"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/fault"
	"ulpdp/internal/transport"
)

// sim is simulated time for one agent and, optionally, the collector
// it reports to, driven as fleet.Run's event loop drives them: it
// jumps to the earlier of the agent's deadline and the collector's
// next idle tick, runs the tick first on a tie, and steps the agent
// after every tick too, so a frame the tick lands on the downlink is
// taken at that instant (backoff pauses included: Step itself must
// ignore what it is not due to handle).
type sim struct {
	now  time.Duration
	col  *collector.Collector // nil: no idle ticks
	tick time.Duration        // col's next tick
}

// attach makes col the collector whose idle tick s runs, one period
// from now.
func (s *sim) attach(col *collector.Collector) {
	s.col, s.tick = col, s.now+col.Period()
}

// stepToDone steps a's armed delivery until it is done.
func (s *sim) stepToDone(a *ReportAgent) (ReportOutcome, error) {
	for {
		next, done := a.Step(s.now)
		if done {
			return a.Outcome()
		}
		if s.col != nil && s.tick <= next {
			s.now = s.tick
			s.col.Tick()
			s.tick += s.col.Period()
		} else {
			s.now = next
		}
	}
}

// report noises x and steps its delivery to done.
func (s *sim) report(a *ReportAgent, x int64) (ReportOutcome, error) {
	if err := a.Begin(x); err != nil {
		return a.Outcome()
	}
	return s.stepToDone(a)
}

// pinned is one delivery's pinned outcome and the simulated time at
// which it ended.
type pinned struct {
	out ReportOutcome
	end time.Duration
}

// seqFate scripts a link by sequence number: fate(kind, seq, k) is
// the fate of the k-th (0-based) frame of that kind — report or ACK —
// carrying seq.
func seqFate(fate func(kind transport.Kind, seq uint64, k int) fault.PacketFate) *fault.Plane {
	type key struct {
		kind transport.Kind
		seq  uint64
	}
	sent := map[key]int{}
	fp := fault.NewPlane()
	fp.SetPacketFault(func(_ uint64, _ uint8, payload []byte) fault.PacketFate {
		p, err := transport.Unmarshal(payload)
		if err != nil {
			return fault.PacketFate{}
		}
		k := sent[key{p.Kind, p.Seq}]
		sent[key{p.Kind, p.Seq}]++
		return fate(p.Kind, p.Seq, k)
	})
	return fp
}

// TestStepDeliveryPinned pins the step machine's deliveries: a fresh
// agent over a fresh link to a real collector, all on one exact
// simulated clock, stepped by sim. Every outcome, the simulated
// time each delivery ended, and the link's and the collector's
// counters are pinned literals, so a change in the order in which
// steps, ticks and landing frames meet shows up here. Three scripted
// schedules pin the ACK-window edges an event loop could get wrong;
// the lossy case covers drops, duplicates, reordering and corruption
// at random.
func TestStepDeliveryPinned(t *testing.T) {
	cases := []struct {
		name  string
		plane *fault.Plane
		cfg   AgentConfig
		want  []pinned
		link  transport.Stats
		col   collector.Stats
	}{
		{
			name: "lossy",
			plane: func() *fault.Plane {
				fp := fault.NewPlane()
				fp.SetLossyLink(0xC0FFEE, fault.LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.05, MaxDelay: 2})
				return fp
			}(),
			cfg: AgentConfig{ID: 3},
			want: []pinned{
				{ReportOutcome{Seq: 0, Value: 37, Attempts: 1, Charged: 0.625}, 0},
				{ReportOutcome{Seq: 1, Value: 75, Attempts: 4, Charged: 0.625}, 7105026},
				{ReportOutcome{Seq: 2, Value: 24, Attempts: 4, Charged: 0.625}, 14154159},
				{ReportOutcome{Seq: 3, Value: -40, Attempts: 1, Charged: 0.625}, 14154159},
				{ReportOutcome{Seq: 4, Value: -61, Attempts: 2, Charged: 0.625}, 16294038},
				{ReportOutcome{Seq: 5, Value: 20, Attempts: 1, Charged: 0.625}, 16294038},
				{ReportOutcome{Seq: 6, Value: 24, Attempts: 3, Charged: 0.625}, 20744753},
				{ReportOutcome{Seq: 7, Value: 48, Attempts: 1, Charged: 0.625}, 20744753},
				{ReportOutcome{Seq: 8, Value: -29, Attempts: 2, Charged: 0.625}, 24000000},
				{ReportOutcome{Seq: 9, Value: 114, Attempts: 1, Charged: 0.75}, 26000000},
				{ReportOutcome{Seq: 10, Value: 38, Attempts: 1, Charged: 0.625}, 26000000},
				{ReportOutcome{Seq: 11, Value: 5, Attempts: 5, Charged: 0.5}, 38000000},
				{ReportOutcome{Seq: 12, Value: 37, Attempts: 2, Charged: 0.625}, 40157587},
				{ReportOutcome{Seq: 13, Value: -7, Attempts: 1, Charged: 0.625}, 40157587},
				{ReportOutcome{Seq: 14, Value: -69, Attempts: 2, Charged: 0.625}, 42260337},
				{ReportOutcome{Seq: 15, Value: 21, Attempts: 2, Charged: 0.625}, 44451605},
				{ReportOutcome{Seq: 16, Value: 15, Attempts: 1, Charged: 0.5}, 44451605},
				{ReportOutcome{Seq: 17, Value: -13, Attempts: 7, Charged: 0.625}, 65247617},
				{ReportOutcome{Seq: 18, Value: 25, Attempts: 2, Charged: 0.625}, 67445588},
				{ReportOutcome{Seq: 19, Value: -20, Attempts: 1, Charged: 0.625}, 67445588},
				{ReportOutcome{Seq: 20, Value: 59, Attempts: 1, Charged: 0.625}, 67445588},
				{ReportOutcome{Seq: 21, Value: -21, Attempts: 6, Charged: 0.625}, 81509467},
				{ReportOutcome{Seq: 22, Value: -59, Attempts: 5, Charged: 0.625}, 91845589},
				{ReportOutcome{Seq: 23, Value: 44, Attempts: 3, Charged: 0.625}, 96243015},
				{ReportOutcome{Seq: 24, Value: 23, Attempts: 1, Charged: 0.625}, 96243015},
				{ReportOutcome{Seq: 25, Value: 80, Attempts: 1, Charged: 0.625}, 96243015},
				{ReportOutcome{Seq: 26, Value: 15, Attempts: 2, Charged: 0.5}, 98422844},
				{ReportOutcome{Seq: 27, Value: -82, Attempts: 1, Charged: 0.625}, 98422844},
				{ReportOutcome{Seq: 28, Value: -19, Attempts: 2, Charged: 0.625}, 100600998},
				{ReportOutcome{Seq: 29, Value: -20, Attempts: 1, Charged: 0.625}, 100600998},
				{ReportOutcome{Seq: 30, Value: 32, Attempts: 4, Charged: 0.625}, 107771904},
				{ReportOutcome{Seq: 31, Value: 86, Attempts: 2, Charged: 0.625}, 109921194},
				{ReportOutcome{Seq: 32, Value: 29, Attempts: 1, Charged: 0.625}, 109921194},
				{ReportOutcome{Seq: 33, Value: 50, Attempts: 1, Charged: 0.625}, 109921194},
				{ReportOutcome{Seq: 34, Value: -11, Attempts: 1, Charged: 0.625}, 112087155},
				{ReportOutcome{Seq: 35, Value: -16, Attempts: 1, Charged: 0.625}, 112087155},
				{ReportOutcome{Seq: 36, Value: -10, Attempts: 2, Charged: 0.625}, 116000000},
				{ReportOutcome{Seq: 37, Value: -12, Attempts: 1, Charged: 0.625}, 116000000},
				{ReportOutcome{Seq: 38, Value: 43, Attempts: 1, Charged: 0.625}, 116000000},
				{ReportOutcome{Seq: 39, Value: -25, Attempts: 1, Charged: 0.625}, 116000000},
				{ReportOutcome{Seq: 40, Value: -19, Attempts: 3, Charged: 0.625}, 122000000},
				{ReportOutcome{Seq: 41, Value: 10, Attempts: 1, Charged: 0.5}, 122000000},
				{ReportOutcome{Seq: 42, Value: -13, Attempts: 3, Charged: 0.625}, 126355261},
				{ReportOutcome{Seq: 43, Value: -98, Attempts: 1, Charged: 0.75}, 128355261},
				{ReportOutcome{Seq: 44, Value: 19, Attempts: 1, Charged: 0.625}, 128355261},
				{ReportOutcome{Seq: 45, Value: 13, Attempts: 2, Charged: 0.5}, 130494141},
				{ReportOutcome{Seq: 46, Value: -16, Attempts: 2, Charged: 0.625}, 134000000},
				{ReportOutcome{Seq: 47, Value: 47, Attempts: 1, Charged: 0.625}, 134000000},
			},
			link: transport.Stats{Sent: 180, Delivered: 160, Dropped: 44, Duplicated: 24, Reordered: 26, CorruptedInFlight: 8, RejectedCorrupt: 9},
			col:  collector.Stats{Accepted: 48, Duplicates: 36, Timeouts: 30},
		},
		{
			// The only report frame is held back on the uplink until
			// the collector's idle tick at 2 ms flushes it; its ACK
			// lands during the backoff pause that began when the 1 ms
			// window closed. The pause must run to its end, and the
			// queued ACK then settles the report with no
			// retransmission.
			name: "ack-during-backoff",
			plane: seqFate(func(kind transport.Kind, seq uint64, k int) fault.PacketFate {
				if kind == transport.KindAck {
					return fault.PacketFate{}
				}
				return fault.PacketFate{Delay: 5}
			}),
			cfg: AgentConfig{ID: 3, AckWait: time.Millisecond, BackoffBase: 4 * time.Millisecond, BackoffCap: 4 * time.Millisecond},
			want: []pinned{
				{ReportOutcome{Seq: 0, Value: 37, Attempts: 1, Charged: 0.625}, 4918175},
			},
			link: transport.Stats{Sent: 2, Delivered: 2, Reordered: 1},
			col:  collector.Stats{Accepted: 1, Timeouts: 1},
		},
		{
			// The ACK is held back on the downlink, where only the
			// node's own flush at the end of its ACK window releases
			// it: the window's deadline must still see it.
			name: "held-ack-at-deadline",
			plane: seqFate(func(kind transport.Kind, seq uint64, k int) fault.PacketFate {
				if kind == transport.KindAck {
					return fault.PacketFate{Delay: 5}
				}
				return fault.PacketFate{}
			}),
			cfg: AgentConfig{ID: 3},
			want: []pinned{
				{ReportOutcome{Seq: 0, Value: 37, Attempts: 1, Charged: 0.625}, 2000000},
			},
			link: transport.Stats{Sent: 2, Delivered: 2, Reordered: 1},
			col:  collector.Stats{Accepted: 1},
		},
		{
			// Report 0 lands as a duplicate now and as a held-back
			// original later; report 1's first frame is lost. The 4 ms
			// tick flushes report 0's original, whose stale ACK lands
			// inside report 1's 5 ms window. The window must stay open
			// to its deadline before the retransmission.
			name: "stale-ack-in-window",
			plane: seqFate(func(kind transport.Kind, seq uint64, k int) fault.PacketFate {
				switch {
				case kind == transport.KindAck:
				case seq == 0 && k == 0:
					return fault.PacketFate{Delay: 5, Duplicates: 1}
				case seq == 1 && k == 0:
					return fault.PacketFate{Drop: true}
				}
				return fault.PacketFate{}
			}),
			cfg: AgentConfig{ID: 3, AckWait: 5 * time.Millisecond},
			want: []pinned{
				{ReportOutcome{Seq: 0, Value: 37, Attempts: 1, Charged: 0.625}, 0},
				{ReportOutcome{Seq: 1, Value: 75, Attempts: 2, Charged: 0.625}, 5143755},
			},
			link: transport.Stats{Sent: 6, Delivered: 6, Dropped: 1, Duplicated: 1, Reordered: 1},
			col:  collector.Stats{Accepted: 2, Duplicates: 1, Timeouts: 1},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			link := transport.NewLink(transport.LinkConfig{Plane: c.plane})
			col := collector.New(collector.Config{BreakerThreshold: 1 << 20})
			if err := col.Attach(c.cfg.ID, link.CollectorEnd()); err != nil {
				t.Fatal(err)
			}
			var s sim
			s.attach(col)
			box, _ := newAgentBox(t, 7, 1e6)
			agent := NewReportAgent(box, link.NodeEnd(), c.cfg)
			for i, want := range c.want {
				out, err := s.report(agent, int64(3+i%11))
				if err != nil {
					t.Fatalf("report %d: %v", i, err)
				}
				if got := (pinned{out, s.now}); got != want {
					t.Fatalf("report %d: got %+v, want %+v", i, got, want)
				}
			}
			col.Close()
			if got := link.Stats(); got != c.link {
				t.Fatalf("link stats %+v, want %+v", got, c.link)
			}
			if got := col.Stats(); got != c.col {
				t.Fatalf("collector stats %+v, want %+v", got, c.col)
			}
		})
	}
}
