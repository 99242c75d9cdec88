package node

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ulpdp/internal/collector"
	"ulpdp/internal/fault"
	"ulpdp/internal/simclock"
	"ulpdp/internal/transport"
)

// twinRun is what one way of running an agent saw: every report's outcome
// and error, the simulated time at which each delivery ended, and the
// link's and the collector's counters.
type twinRun struct {
	outs  []ReportOutcome
	errs  []string
	ends  []time.Duration
	link  transport.Stats
	stats collector.Stats
}

// runTwin delivers len(xs) reports from a fresh agent over a fresh
// link to a real collector, all on one exact virtual clock. The
// blocking twin calls Report. The stepped twin calls Begin and
// Step and parks on its own waiter, as fleet.Run's event loop does,
// but is woken by every frame landing on the downlink, backoff pauses
// included: Step itself must ignore what it is not due to handle.
func runTwin(t *testing.T, stepped bool, plane *fault.Plane, cfg AgentConfig, xs []int64) twinRun {
	t.Helper()
	clk := simclock.NewVirtual(0)
	clk.Join()
	link := transport.NewLink(transport.LinkConfig{Plane: plane, Clock: clk})
	col := collector.New(collector.Config{Clock: clk, BreakerThreshold: 1 << 20})
	if err := col.Attach(cfg.ID, link.CollectorEnd()); err != nil {
		t.Fatal(err)
	}
	box, _ := newAgentBox(t, 7, 1e6)
	agent := NewReportAgent(box, link.NodeEnd(), cfg)

	w := clk.NewWaiter(simclock.Agent)
	if stepped {
		link.NodeEnd().SetNotify(w.Signal)
	}
	var run twinRun
	for _, x := range xs {
		var (
			out ReportOutcome
			err error
		)
		if !stepped {
			out, err = agent.Report(context.Background(), x)
		} else if err = agent.Begin(x); err == nil {
			for {
				next, done := agent.Step(clk.Now())
				if done {
					break
				}
				w.Wait(next, nil)
			}
			out, err = agent.Outcome()
		}
		run.outs = append(run.outs, out)
		run.errs = append(run.errs, fmt.Sprint(err))
		run.ends = append(run.ends, clk.Now())
	}
	col.Close()
	run.link, run.stats = link.Stats(), col.Stats()
	return run
}

// seqFate scripts a link by sequence number: fate(kind, seq, k) is
// the fate of the k-th (0-based) frame of that kind — report or ACK —
// carrying seq.
func seqFate(fate func(kind transport.Kind, seq uint64, k int) fault.PacketFate) func() *fault.Plane {
	return func() *fault.Plane {
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
}

// TestStepMatchesBlockingReport pins the step machine to the blocking
// delivery loop: the same agent config and link schedule, driven
// through Report and through Begin/Step from an event loop, must
// produce identical outcomes, attempt counts, end times and link and
// collector counters. Two scripted schedules pin the ACK-window edges
// an event loop could get wrong; the lossy case covers drops,
// duplicates, reordering and corruption at random.
func TestStepMatchesBlockingReport(t *testing.T) {
	cases := []struct {
		name  string
		plane func() *fault.Plane
		cfg   AgentConfig
		n     int
		check func(t *testing.T, r twinRun)
	}{
		{
			name: "lossy",
			plane: func() *fault.Plane {
				fp := fault.NewPlane()
				fp.SetLossyLink(0xC0FFEE, fault.LinkProfile{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.05, MaxDelay: 2})
				return fp
			},
			cfg: AgentConfig{ID: 3},
			n:   48,
			check: func(t *testing.T, r twinRun) {
				if r.link.Dropped == 0 || r.link.Duplicated == 0 || r.link.Reordered == 0 || r.stats.Duplicates == 0 {
					t.Fatalf("schedule exercised no chaos: link %+v, collector %+v", r.link, r.stats)
				}
			},
		},
		{
			// The only report frame is held back on the uplink until
			// the collector's idle tick at 2 ms flushes it; its ACK
			// lands during the backoff pause that began when the 1 ms
			// window closed. The pause (2–4 ms) must run to its end,
			// and the queued ACK then settles the report with no
			// retransmission.
			name: "ack-during-backoff",
			plane: seqFate(func(kind transport.Kind, seq uint64, k int) fault.PacketFate {
				if kind == transport.KindAck {
					return fault.PacketFate{}
				}
				return fault.PacketFate{Delay: 5}
			}),
			cfg: AgentConfig{ID: 3, AckWait: time.Millisecond, BackoffBase: 4 * time.Millisecond, BackoffCap: 4 * time.Millisecond},
			n:   1,
			check: func(t *testing.T, r twinRun) {
				if r.outs[0].Attempts != 1 || r.link.Sent != 2 {
					t.Fatalf("%d attempts, %d frames sent: want 1 report and its ACK", r.outs[0].Attempts, r.link.Sent)
				}
				if end := r.ends[0]; end < 3*time.Millisecond {
					t.Fatalf("delivery ended at %v, inside the pause that began at 1ms", end)
				}
			},
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
			n:   1,
			check: func(t *testing.T, r twinRun) {
				if r.outs[0].Attempts != 1 || r.ends[0] != 2*time.Millisecond {
					t.Fatalf("%d attempts, ended at %v: want the held ACK to settle the first window at 2ms", r.outs[0].Attempts, r.ends[0])
				}
			},
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
			n:   2,
			check: func(t *testing.T, r twinRun) {
				if r.outs[1].Attempts != 2 || r.stats.Duplicates != 1 {
					t.Fatalf("report 1: %d attempts, collector %+v: want a retransmission and report 0's stale duplicate", r.outs[1].Attempts, r.stats)
				}
				if end := r.ends[1]; end < 5*time.Millisecond {
					t.Fatalf("report 1 ended at %v, before its 5ms ACK window closed", end)
				}
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			xs := make([]int64, c.n)
			for i := range xs {
				xs[i] = int64(3 + i%11)
			}
			blocking := runTwin(t, false, c.plane(), c.cfg, xs)
			stepped := runTwin(t, true, c.plane(), c.cfg, xs)
			if !reflect.DeepEqual(blocking, stepped) {
				t.Fatalf("stepped delivery differs from the blocking one:\nblocking %+v\nstepped  %+v", blocking, stepped)
			}
			for i, e := range blocking.errs {
				if e != "<nil>" {
					t.Fatalf("report %d: %s", i, e)
				}
			}
			c.check(t, blocking)
		})
	}
}
