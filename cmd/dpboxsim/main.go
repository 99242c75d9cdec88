// Command dpboxsim drives a cycle-level DP-Box interactively through
// its command port, the way firmware would.
//
// Usage:
//
//	dpboxsim [-budget N] [-replenish N] [-bu N] [-by N] [-mult F]
//	         [-health N] [-stuck W] [-vcd FILE] [-metrics] [-debug ADDR]
//	         [-nvmdir DIR]
//
// Then one command per line on stdin:
//
//	eps <shift>         set ε = 2^-shift
//	range <lo> <hi>     set the sensor range (steps)
//	mode <t|r>          thresholding / resampling
//	rr                  randomized-response mode (threshold 0)
//	noise <x>           noise a sensor value (steps)
//	run <x> <count>     noise x repeatedly, print a summary
//	status              show phase, budget, threshold, cycles
//	metrics             print the telemetry snapshot (needs -metrics)
//	quit
//
// -nvmdir backs the budget journal with the file-based NVM medium
// under DIR: killing the session and rerunning with the same DIR
// secure-boots from the journal — budget spend, the release window,
// and sequence numbering all survive the restart.
//
// -metrics attaches the telemetry plane (privacy odometer, counters,
// histograms) and prints its final JSON snapshot when the session
// ends. -debug additionally serves the plane on /debug/vars (expvar),
// Prometheus text exposition on /metrics, and /debug/pprof at ADDR
// for the session's lifetime.
//
// The exit status reports the box's final state: 0 when the session
// ends with a live, healthy box; 1 when it ends with the box dead
// (power-rail failure) or refusing service (URNG health gate closed),
// so scripted runs can detect a box that stopped serving.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"ulpdp"
	"ulpdp/internal/fault"
	"ulpdp/internal/obs"
)

type session struct {
	box *ulpdp.DPBox
	out *bufio.Writer
	reg *ulpdp.ObsRegistry // nil without -metrics
}

func main() {
	os.Exit(run())
}

func run() int {
	budgetNats := flag.Float64("budget", 50, "privacy budget in nats")
	replenish := flag.Uint64("replenish", 0, "replenishment period in cycles (0 = never)")
	bu := flag.Int("bu", 17, "URNG magnitude bits")
	by := flag.Int("by", 14, "noise output bits")
	mult := flag.Float64("mult", 2, "certified loss multiplier")
	vcdPath := flag.String("vcd", "", "write a VCD waveform of the session to this file")
	health := flag.Uint64("health", 0, "run the URNG health battery every N cycles (0 = off)")
	stuck := flag.Int("stuck", -1, "inject a stuck-word URNG fault with this word (-1 = off)")
	metrics := flag.Bool("metrics", false, "attach the telemetry plane and print its JSON snapshot on exit")
	debugAddr := flag.String("debug", "", "serve /debug/vars (expvar), /metrics (Prometheus), and /debug/pprof at this address; implies -metrics")
	nvmdir := flag.String("nvmdir", "", "back the budget journal with file-based NVM under this directory; reopening resumes the prior session's ledger and release window")
	flag.Parse()

	cfg := ulpdp.DPBoxConfig{Bu: *bu, By: *by, Mult: *mult, HealthEvery: *health}
	var reg *ulpdp.ObsRegistry
	if *metrics || *debugAddr != "" {
		reg = ulpdp.NewObsRegistry()
		cfg.Obs = ulpdp.NewDPBoxMetrics(reg, 1)
	}
	if *debugAddr != "" {
		reg.PublishExpvar("ulpdp")
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", obs.PrometheusContentType)
			if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
				fmt.Fprintln(os.Stderr, "dpboxsim: /metrics:", err)
			}
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dpboxsim: debug server:", err)
			}
		}()
		fmt.Printf("dpboxsim: serving /debug/vars, /metrics, and /debug/pprof on %s\n", *debugAddr)
	}
	if *stuck >= 0 {
		fp := fault.NewPlane()
		fp.SetURNGFault(fault.StuckWord(uint32(*stuck)))
		cfg.Faults = fp
	}
	var jnl *ulpdp.DPBoxJournal
	if *nvmdir != "" {
		j, err := ulpdp.OpenDPBoxJournal(*nvmdir)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		jnl = j
		cfg.Journal = jnl
	}
	var box *ulpdp.DPBox
	var err error
	if jnl != nil && jnl.Writes() > 0 {
		// Durable state from a previous session: secure-boot from the
		// journal instead of re-initializing (which would reset spend).
		box, err = ulpdp.RecoverDPBox(cfg, jnl)
	} else {
		box, err = ulpdp.NewDPBox(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		tr, err := ulpdp.NewVCDTracer(f)
		if err != nil {
			fatal(err)
		}
		box.SetTracer(tr)
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dpboxsim: vcd:", err)
			}
			f.Close()
		}()
	}
	s := &session{box: box, out: bufio.NewWriter(os.Stdout), reg: reg}
	if box.Phase() == ulpdp.DPBoxPhaseInit {
		if err := box.Initialize(*budgetNats, *replenish); err != nil {
			fatal(err)
		}
		s.printf("DP-Box initialized: budget %.2f nats, replenish every %d cycles\n", *budgetNats, *replenish)
	} else {
		s.printf("DP-Box recovered from %s: budget %.3f nats remaining, next seq %d\n",
			*nvmdir, box.BudgetRemaining(), box.NextSeq())
	}
	s.printf("configure with `eps <shift>` and `range <lo> <hi>`, then `noise <x>`\n")

	sc := bufio.NewScanner(os.Stdin)
	for {
		s.printf("> ")
		s.out.Flush()
		if !sc.Scan() {
			return s.exitCode()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := s.dispatch(fields); err != nil {
			if errors.Is(err, errQuit) {
				return s.exitCode()
			}
			s.printf("error: %v\n", err)
		}
	}
}

// exitCode inspects the box as the session ends: a dead or refusing
// box turns into a non-zero exit so scripts and CI notice.
func (s *session) exitCode() int {
	if s.reg != nil {
		if err := s.printSnapshot(); err != nil {
			fmt.Fprintln(os.Stderr, "dpboxsim: snapshot:", err)
		}
	}
	s.out.Flush()
	switch {
	case s.box.Phase() == ulpdp.DPBoxPhaseDead:
		fmt.Fprintln(os.Stderr, "dpboxsim: session ended with a dead DP-Box (power-rail failure)")
		return 1
	case !s.box.Healthy():
		fmt.Fprintln(os.Stderr, "dpboxsim: session ended with an unhealthy DP-Box (URNG health gate closed, serving cache only)")
		return 1
	}
	return 0
}

var errQuit = errors.New("quit")

func (s *session) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format, args...)
}

func (s *session) dispatch(fields []string) error {
	box := s.box
	switch fields[0] {
	case "quit", "exit":
		return errQuit
	case "status":
		s.printf("phase=%v budget=%.3f nats threshold=%d steps eps=%g cycles=%d\n",
			box.Phase(), box.BudgetRemaining(), box.Threshold(), box.Epsilon(), box.Cycles())
	case "metrics":
		if s.reg == nil {
			return errors.New("telemetry plane not attached (run with -metrics)")
		}
		return s.printSnapshot()
	case "eps":
		shift, err := argInt(fields, 1)
		if err != nil {
			return err
		}
		return box.Command(ulpdp.DPBoxCmdSetEpsilon, shift)
	case "range":
		lo, err := argInt(fields, 1)
		if err != nil {
			return err
		}
		hi, err := argInt(fields, 2)
		if err != nil {
			return err
		}
		if err := box.Command(ulpdp.DPBoxCmdSetRangeLower, lo); err != nil {
			return err
		}
		return box.Command(ulpdp.DPBoxCmdSetRangeUpper, hi)
	case "mode":
		if len(fields) < 2 {
			return errors.New("usage: mode t|r")
		}
		return box.SetResampling(fields[1] == "r")
	case "rr":
		return box.OverrideThreshold(0)
	case "noise":
		x, err := argInt(fields, 1)
		if err != nil {
			return err
		}
		r, err := box.NoiseValue(x)
		if err != nil {
			return err
		}
		s.printf("y=%d cycles=%d resamples=%d charged=%.3f cached=%v budget=%.3f\n",
			r.Value, r.Cycles, r.Resamples, r.Charged, r.FromCache, box.BudgetRemaining())
	case "run":
		x, err := argInt(fields, 1)
		if err != nil {
			return err
		}
		count, err := argInt(fields, 2)
		if err != nil {
			return err
		}
		if count < 1 {
			return errors.New("count must be positive")
		}
		var cycles, resamples int
		var cached int
		var sum float64
		for i := int64(0); i < count; i++ {
			r, err := box.NoiseValue(x)
			if err != nil {
				return err
			}
			cycles += r.Cycles
			resamples += r.Resamples
			sum += float64(r.Value)
			if r.FromCache {
				cached++
			}
		}
		s.printf("%d runs: mean y=%.2f, avg cycles=%.3f, resamples=%d, cached=%d, budget=%.3f\n",
			count, sum/float64(count), float64(cycles)/float64(count), resamples, cached,
			box.BudgetRemaining())
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}

// printSnapshot dumps the registry as indented JSON plus a one-line
// odometer readout.
func (s *session) printSnapshot() error {
	snap := s.reg.Snapshot()
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	s.printf("%s\n", raw)
	if odo, ok := snap.Odometers["budget.odometer"]; ok {
		s.printf("odometer: %.6f nats spent in %d charges, %d replenishes\n",
			odo.TotalNats, odo.Charges, odo.Replenishes)
	}
	return nil
}

func argInt(fields []string, idx int) (int64, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing argument %d", idx)
	}
	return strconv.ParseInt(fields[idx], 10, 64)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpboxsim:", err)
	os.Exit(1)
}
