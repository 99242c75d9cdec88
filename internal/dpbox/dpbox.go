// Package dpbox is a cycle-level simulator of DP-Box, the paper's
// hardware module for local differential privacy (Section IV). It
// models the 3-bit command port, the three-phase FSM (initialization
// → waiting → noising), the precomputation of the next Laplace sample
// during the waiting phase, per-cycle resampling, the embedded
// budget-control logic with caching and periodic replenishment, and
// the randomized-response reconfiguration (threshold zero).
//
// All port values are integers on the datapath's quantization grid
// (steps of Δ): the sensor value, the range registers and the noised
// output are step counts. The privacy parameter is set as the
// exponent n_m of ε = 2^-n_m (eq. 19), so the noise scaling
// multiplication reduces to a bit shift in hardware.
//
// Latency follows Section V exactly: a noised output takes 2 cycles
// (one to load the sensor register, one to noise); thresholding adds
// no cycles; every resample adds one cycle.
package dpbox

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ulpdp/internal/cordic"
	"ulpdp/internal/core"
	"ulpdp/internal/fault"
	"ulpdp/internal/laplace"
	"ulpdp/internal/obs"
	"ulpdp/internal/urng"
)

// Fail-closed sentinel errors.
var (
	// ErrPowerLost reports a command or transaction addressed to a
	// DP-Box whose power rail failed; volatile state is gone and only
	// Recover (secure boot) can bring the module back.
	ErrPowerLost = errors.New("dpbox: power lost")
	// ErrUnhealthy reports a refused StartNoising: the online URNG
	// battery is failing and no cached output exists to replay.
	ErrUnhealthy = errors.New("dpbox: urng health battery failing; noising refused")
)

// Command is the 3-bit command port encoding.
type Command uint8

const (
	// CmdDoNothing holds the DP-Box in its current phase.
	CmdDoNothing Command = iota
	// CmdStartNoising starts a noising transaction; from the
	// initialization phase it instead locks the budget configuration
	// and transitions to the waiting phase.
	CmdStartNoising
	// CmdSetEpsilon sets n_m (ε = 2^-n_m) for the next reading; in
	// the initialization phase it sets the privacy budget (data is in
	// sixteenths of a nat).
	CmdSetEpsilon
	// CmdSetSensorValue loads the value to noise.
	CmdSetSensorValue
	// CmdSetRangeUpper sets the sensor range upper bound; in the
	// initialization phase it sets the replenishment period (cycles).
	CmdSetRangeUpper
	// CmdSetRangeLower sets the sensor range lower bound.
	CmdSetRangeLower
	// CmdSetThreshold toggles between resampling and thresholding
	// when data < 0 (the paper's behaviour). With data >= 0 it
	// additionally overrides the guard threshold: data = 0 selects
	// the randomized-response configuration of Section VI-E; data > 0
	// forces an explicit threshold instead of the internally computed
	// certified one.
	CmdSetThreshold
)

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c {
	case CmdDoNothing:
		return "DoNothing"
	case CmdStartNoising:
		return "StartNoising"
	case CmdSetEpsilon:
		return "SetEpsilon"
	case CmdSetSensorValue:
		return "SetSensorValue"
	case CmdSetRangeUpper:
		return "SetRangeUpper"
	case CmdSetRangeLower:
		return "SetRangeLower"
	case CmdSetThreshold:
		return "SetThreshold"
	}
	return fmt.Sprintf("Command(%d)", uint8(c))
}

// Phase is the FSM state.
type Phase int

const (
	// PhaseInit is entered at power-up; budget and replenishment
	// period are configurable only here (secure-boot integrity).
	PhaseInit Phase = iota
	// PhaseWaiting is the idle-from-outside phase: the replenishment
	// timer runs and the next Laplace sample is precomputed.
	PhaseWaiting
	// PhaseNoising computes (and possibly resamples) the output.
	PhaseNoising
	// PhaseDead is entered on a power-rail failure: all volatile state
	// is lost and every port returns ErrPowerLost until the module is
	// brought back through Recover (secure boot).
	PhaseDead
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "init"
	case PhaseWaiting:
		return "waiting"
	case PhaseNoising:
		return "noising"
	case PhaseDead:
		return "dead"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Config fixes the synthesized hardware's geometry. The zero value is
// unusable; use DefaultConfig as a starting point.
type Config struct {
	// Bu is the URNG magnitude bit width.
	Bu int
	// By is the signed noise output bit width.
	By int
	// Mult is the loss multiplier the internally computed guard
	// threshold certifies (worst-case loss Mult·ε).
	Mult float64
	// Multipliers are the budget charging bands (ascending, < Mult).
	Multipliers []float64
	// Log is the logarithm datapath; nil selects the CORDIC core the
	// DP-Box ships (single-cycle, fully unrolled).
	Log laplace.LogUnit
	// Source is the Tausworthe URNG; nil selects Taus88 seeded with 1.
	Source urng.Source
	// GuardDisabled bypasses resampling/thresholding entirely —
	// the naive mode of Fig. 12. Never use it for real data.
	GuardDisabled bool
	// ConstantTime applies the Section IV-C timing-channel
	// mitigation to resampling mode: Candidates samples are drawn in
	// parallel in a single cycle and the first in-window one is
	// taken (all-miss falls back to an edge clamp), so the latency
	// no longer depends on the sensor value. The guard threshold is
	// certified against the exact constant-time analysis.
	ConstantTime bool
	// Candidates is the parallel sampler count for ConstantTime
	// (default 4; costs RNG area, see hwmodel).
	Candidates int
	// Faults is an optional fault plane. When set, the URNG and log
	// datapaths are routed through its injectors, the command register
	// can be perturbed, and scheduled power losses kill the module
	// mid-transaction. Nil costs nothing on the hot path.
	Faults *fault.Plane
	// Journal is the optional NVM write-ahead log backing the budget
	// ledger. With a journal attached every charge runs a two-phase
	// commit before the output is emitted, and Recover can replay the
	// log after a power loss without double-spending.
	Journal *Journal
	// HealthEvery, when nonzero, runs the urng battery as an online
	// health gate at StartNoising whenever that many cycles have
	// passed since the last check. While the battery fails, fresh
	// noising is refused and only the cache is served.
	HealthEvery uint64
	// Obs is an optional telemetry plane (counters, histograms, the
	// privacy odometer, the flight recorder). Nil detaches it: every
	// instrument call is then a nil-receiver no-op, and the noising hot
	// path allocates nothing.
	Obs *Metrics
	// ObsChannel labels this box's telemetry: it indexes the privacy
	// odometer and keys flight spans (a Bank channel index or a fleet
	// node id). Ignored when Obs is nil.
	ObsChannel int
}

// DefaultConfig mirrors the synthesized 20-bit DP-Box: a 17-bit
// URNG magnitude draw and a 12-bit noise word.
var DefaultConfig = Config{Bu: 17, By: 12, Mult: 2, Multipliers: []float64{1.25, 1.5}}

// healthWords is the URNG battery's sample size per health check.
const healthWords = 2048

// chargeUnit is the budget fixed-point resolution, one sixteenth of a
// nat (core.ChargeUnit).
const chargeUnit = core.ChargeUnit

// underived is the plan of a box that has not noised since power-up:
// threshold 0, no watchdog.
var underived core.GuardPlan

// DPBox is one instance of the hardware module.
type DPBox struct {
	cfg Config

	phase  Phase
	cycles uint64 // total elapsed clock cycles

	// Registers (all in steps of Δ except where noted).
	epsShift   int   // n_m; ε = 2^-n_m
	sensor     int64 // value to noise
	rangeUpper int64
	rangeLower int64
	haveEps    bool
	haveUpper  bool
	haveLower  bool
	haveSensor bool
	resampling bool  // Set Threshold toggle: true = resampling mode
	thOverride int64 // -1 = auto; 0 = randomized response; >0 explicit

	// Budget state (initialization-locked). The ledger is the box's
	// own embedded one unless a Bank shares one between its sensors;
	// ownTimer marks the box that advances the replenishment timer
	// (standalone boxes own theirs; a Bank's clock drives its shared
	// ledger).
	ledger    *budgetLedger
	ownLedger budgetLedger
	ownTimer  bool

	// Derived noising state: the guard plan (window, charge table in
	// budget units, resample watchdog and its degrade clamp, RR stage).
	dirty   bool // registers changed since last derivation
	plan    *core.GuardPlan
	sampler *laplace.Sampler // &smp once derived; nil before
	smp     laplace.Sampler

	// Fault plane and URNG health gate.
	fp            *fault.Plane
	healthy       bool
	healthChecked bool
	healthAt      uint64

	// Precomputed noise (waiting phase).
	pendingK int64
	haveK    bool

	// Output port.
	out        int64
	ready      bool
	resamples  int // resamples used by the last transaction
	lastCharge int64
	fromCache  bool
	degraded   bool // last transaction tripped the resample watchdog
	cache      int64
	haveCache  bool

	// Per-sequence release cache (fleet at-most-once noising): every
	// value released under a report sequence number, mirrored from the
	// journal so NoiseValueSeq can replay instead of redrawing. The
	// map grows with the power cycle's releases; recovery compaction
	// trims it to the retransmission window.
	releases  map[uint64]Release
	maxRelSeq uint64
	seqArmed  bool   // the in-flight transaction carries a report seq
	armedSeq  uint64 // that seq

	// Telemetry plane (nil = disabled) and this box's odometer
	// channel / flight-recorder node label.
	obs      *Metrics
	obsCh    int
	lastBand int64 // charge band of the last charged transaction

	tracer Tracer
}

// New powers up a DP-Box in the initialization phase.
func New(cfg Config) (*DPBox, error) {
	b := new(DPBox)
	if err := b.boot(cfg, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// boot powers b up in the initialization phase under cfg, holding the
// given release cache: New boots a fresh box with none, Reboot an old
// box with the one its journal replayed. Nothing else b held survives,
// but its memory is reused.
func (b *DPBox) boot(cfg Config, releases map[uint64]Release) error {
	if cfg.Bu == 0 && cfg.By == 0 {
		// Default the geometry only: wholesale cfg = DefaultConfig
		// would silently drop the caller's Source, Faults, Journal,
		// and Obs wiring.
		cfg.Bu, cfg.By = DefaultConfig.Bu, DefaultConfig.By
	}
	if cfg.Mult == 0 {
		cfg.Mult = core.DefaultMult
	}
	if cfg.Mult <= 1 {
		return fmt.Errorf("dpbox: loss multiplier %g must exceed 1", cfg.Mult)
	}
	if cfg.Multipliers == nil {
		cfg.Multipliers = []float64{1.25, 1.5}
	}
	if cfg.Source == nil {
		cfg.Source = urng.NewTaus88(1)
	}
	if cfg.Candidates == 0 {
		cfg.Candidates = 4
	}
	if cfg.Candidates < 1 || cfg.Candidates > 16 {
		return fmt.Errorf("dpbox: candidate count %d out of range [1,16]", cfg.Candidates)
	}
	if fp := cfg.Faults; fp != nil {
		// Route the datapaths through the fault plane. The wrappers
		// are built once here; per-draw they cost one nil check.
		if cfg.Log == nil {
			cfg.Log = cordic.Default()
		}
		cfg.Log = fp.WrapLog(cfg.Log)
		cfg.Source = fp.WrapSource(cfg.Source)
	}
	if m := cfg.Obs; m != nil {
		// The one telemetry guard that skips real work: the counting
		// source costs an interface hop per word, so it is built only
		// for a caller-attached plane, before Obs is defaulted below.
		// It sits outside the fault wrapper, so it counts logical
		// draws regardless of injected faults. Log evaluations are
		// counted per sample by draw, which leaves the log unit
		// untouched: a traced box reads the same magnitude table as
		// an untraced one.
		cfg.Source = countingSource{src: cfg.Source, c: m.URNGDraws}
	} else {
		cfg.Obs = &noMetrics
	}
	*b = DPBox{cfg: cfg, fp: cfg.Faults, phase: PhaseInit, thOverride: -1, dirty: true,
		plan: &underived, ownLedger: budgetLedger{j: cfg.Journal, obs: cfg.Obs}, ownTimer: true,
		healthy: true, releases: releases, obs: cfg.Obs, obsCh: cfg.ObsChannel}
	b.ledger = &b.ownLedger
	if j := cfg.Journal; j != nil {
		// The storage engine counts journal intents/commits itself;
		// route them into this box's metrics (nil detaches), and give
		// the fault plane's power rail a direct line to the supply
		// cell so a scheduled power loss kills the NVM at the engine
		// layer, not only through the box's own powerFail path.
		j.bindObs(cfg.Obs)
		if fp := cfg.Faults; fp != nil {
			fp.BindPowerSink(j.Power())
		}
	}
	return nil
}

// Phase returns the current FSM phase.
func (b *DPBox) Phase() Phase { return b.phase }

// Cycles returns the total elapsed clock cycles.
func (b *DPBox) Cycles() uint64 { return b.cycles }

// Ready reports whether a noised output is available on the output
// port.
func (b *DPBox) Ready() bool { return b.ready }

// Output returns the output port value (valid when Ready).
func (b *DPBox) Output() int64 { return b.out }

// budgetLedger is the budget register file: remaining and initial
// budget in sixteenth-nat units plus the replenishment timer. A Bank
// shares one ledger across all its sensors, implementing the paper's
// Section IV requirement that multiple sensors must share a budget
// (their readings could be combined to compromise privacy).
//
// The mutex serializes balance movements (and the journal writes
// backing them) so a Bank's channels may be driven from concurrent
// goroutines: each charge is atomic against the shared balance and
// the NVM log. Each DPBox itself remains single-goroutine state —
// only the ledger is shared.
type budgetLedger struct {
	mu             sync.Mutex
	units          int64
	initial        int64
	replenishEvery uint64
	since          uint64
	locked         bool
	j              *Journal // nil = volatile ledger (no crash consistency)
	obs            *Metrics // never nil; detached = noMetrics
}

// tick advances the replenishment timer by one cycle. False means the
// journal write backing a refill failed (NVM power lost): the refill
// must not take effect and the owner must fail closed.
func (l *budgetLedger) tick() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.locked || l.replenishEvery == 0 {
		return true
	}
	l.since++
	if l.since >= l.replenishEvery {
		if l.j != nil && !l.j.appendReplenish() {
			return false
		}
		l.since = 0
		l.units = l.initial
		l.obs.Replenishes.Inc()
		l.obs.Odometer.Replenish()
		if l.j != nil {
			l.obs.JournalReplenishes.Inc()
		}
	}
	return true
}

// charge deducts units, saturating at zero. With a journal attached
// the two-phase record (intent, commit) must be durable before the
// volatile balance moves; false means it is not, and the caller must
// not emit the output it was about to charge for.
func (l *budgetLedger) charge(units int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j != nil && !l.j.appendCharge(units) {
		return false
	}
	l.deduct(units)
	return true
}

// chargeRelease is charge with a (reportSeq, value) release binding
// riding inside the same journal transaction: the binding and the
// charge become durable together or not at all.
func (l *budgetLedger) chargeRelease(units int64, reportSeq uint64, rel Release) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.j != nil && !l.j.appendChargeRelease(units, reportSeq, rel.Value, rel.flags()) {
		return false
	}
	l.deduct(units)
	return true
}

// deduct moves the volatile balance; callers hold l.mu.
func (l *budgetLedger) deduct(units int64) {
	l.units -= units
	if l.units < 0 {
		l.units = 0
	}
}

// balance returns the current unspent units.
func (l *budgetLedger) balance() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.units
}

// BudgetUnits returns the unspent budget in budget units (sixteenths
// of a nat).
func (b *DPBox) BudgetUnits() int64 { return b.ledger.balance() }

// BudgetRemaining returns the unspent budget in nats.
func (b *DPBox) BudgetRemaining() float64 { return float64(b.BudgetUnits()) * chargeUnit }

// Threshold returns the guard threshold currently in effect, in
// steps. Valid after the first noising transaction.
func (b *DPBox) Threshold() int64 { return b.plan.Schedule.Threshold }

// Epsilon returns the configured per-report ε.
func (b *DPBox) Epsilon() float64 { return math.Ldexp(1, -b.epsShift) }

// Command presents one command word and data word on the ports; it
// consumes one clock cycle.
func (b *DPBox) Command(cmd Command, data int64) error {
	if b.phase == PhaseDead {
		return ErrPowerLost
	}
	if b.fp != nil {
		// The command register latches through the fault plane before
		// the clock edge decodes it.
		c, d := b.fp.PerturbCommand(uint8(cmd)&7, data)
		cmd, data = Command(c&7), d
	}
	b.tick()
	if b.phase == PhaseDead {
		// Power failed on this edge; the command is lost with it.
		return ErrPowerLost
	}
	defer b.trace()
	switch b.phase {
	case PhaseInit:
		return b.commandInit(cmd, data)
	case PhaseWaiting:
		return b.commandWaiting(cmd, data)
	case PhaseNoising:
		// Hardware ignores commands while busy.
		return errors.New("dpbox: busy noising; command ignored")
	}
	return nil
}

func (b *DPBox) commandInit(cmd Command, data int64) error {
	switch cmd {
	case CmdSetEpsilon:
		if data < 0 {
			return errors.New("dpbox: negative budget")
		}
		b.ledger.initial = data
		b.ledger.units = data
	case CmdSetRangeUpper:
		if data < 0 {
			return errors.New("dpbox: negative replenishment period")
		}
		b.ledger.replenishEvery = uint64(data)
	case CmdStartNoising:
		if b.ledger.initial == 0 {
			return errors.New("dpbox: budget not configured")
		}
		// A shared (Bank) ledger is locked by its first channel; the
		// remaining channels only transition phase — a second config
		// record would corrupt the journal replay.
		if !b.ledger.locked {
			if b.ledger.j != nil && !b.ledger.j.appendConfig(b.ledger.initial, b.ledger.replenishEvery) {
				b.powerFail()
				return ErrPowerLost
			}
			b.ledger.locked = true
		}
		b.phase = PhaseWaiting
	case CmdDoNothing:
	default:
		return fmt.Errorf("dpbox: command %v invalid in initialization phase", cmd)
	}
	return nil
}

func (b *DPBox) commandWaiting(cmd Command, data int64) error {
	switch cmd {
	case CmdDoNothing:
	case CmdSetEpsilon:
		if data < -8 || data > 16 {
			return fmt.Errorf("dpbox: epsilon shift %d out of range [-8,16]", data)
		}
		b.epsShift = int(data)
		b.haveEps = true
		b.dirty = true
	case CmdSetSensorValue:
		b.sensor = data
		b.haveSensor = true
	case CmdSetRangeUpper:
		b.rangeUpper = data
		b.haveUpper = true
		b.dirty = true
	case CmdSetRangeLower:
		b.rangeLower = data
		b.haveLower = true
		b.dirty = true
	case CmdSetThreshold:
		if data < 0 {
			b.resampling = !b.resampling
		} else {
			b.thOverride = data
		}
		b.dirty = true
	case CmdStartNoising:
		if !b.healthGate() {
			// Fail closed: no fresh noise from a suspect URNG. The
			// cache was charged and certified when produced, so
			// replaying it leaks nothing new.
			if b.haveCache {
				b.resamples = 0
				b.degraded = false
				b.finish(b.cache, 0, true)
				return nil
			}
			return ErrUnhealthy
		}
		if err := b.beginNoising(); err != nil {
			return err
		}
		// The first noising attempt is combinational with the command
		// (the Laplace sample was precomputed in the waiting phase),
		// so a guard-free transaction completes in this same cycle —
		// the paper's 2-cycle total including the register load.
		b.noisingCycle()
	default:
		return fmt.Errorf("dpbox: unknown command %v", cmd)
	}
	return nil
}

// beginNoising validates configuration, derives the guard threshold
// and charge table if stale, and enters the noising phase.
func (b *DPBox) beginNoising() error {
	if !(b.haveEps && b.haveUpper && b.haveLower && b.haveSensor) {
		return errors.New("dpbox: epsilon, range and sensor value must be set before noising")
	}
	if b.rangeUpper <= b.rangeLower {
		return errors.New("dpbox: empty sensor range")
	}
	if b.dirty {
		if err := b.derive(); err != nil {
			return err
		}
		b.dirty = false
	}
	b.phase = PhaseNoising
	b.ready = false
	b.resamples = 0
	b.fromCache = false
	b.degraded = false
	return nil
}

// healthGate runs the online URNG battery when due and reports
// whether fresh noising is allowed. Gating is off (always true) when
// HealthEvery is zero. A failing battery is re-run on every
// subsequent StartNoising, so the gate reopens as soon as the fault
// clears.
func (b *DPBox) healthGate() bool {
	if b.cfg.HealthEvery == 0 {
		return true
	}
	if !b.healthChecked || !b.healthy || b.cycles-b.healthAt >= b.cfg.HealthEvery {
		res, err := urng.RunBattery(b.cfg.Source, healthWords)
		b.healthChecked = true
		b.healthAt = b.cycles
		b.healthy = err == nil && urng.Passed(res)
		b.obs.BatteryRuns.Inc()
		b.obs.BatteryWorstZ.Set(worstZ(res))
		if !b.healthy {
			b.obs.BatteryFails.Inc()
		}
	}
	return b.healthy
}

// Healthy reports the online URNG battery verdict (true when health
// gating is disabled or no check has run yet).
func (b *DPBox) Healthy() bool { return b.cfg.HealthEvery == 0 || b.healthy }

// params assembles the core parameters implied by the registers
// (Δ = 1: port values are already in steps).
func (b *DPBox) params() core.Params {
	return core.Params{
		Lo:    float64(b.rangeLower),
		Hi:    float64(b.rangeUpper),
		Eps:   b.Epsilon(),
		Bu:    b.cfg.Bu,
		By:    b.cfg.By,
		Delta: 1,
	}
}

func (b *DPBox) derive() error {
	par := b.params()
	if err := par.Validate(); err != nil {
		return err
	}
	// The DP-Box's λ/Δ = d·2^n_m is always dyadic (eq. 19), so the
	// all-integer scaling datapath applies: no float64 operation
	// touches the noise, matching the synthesized hardware bit for
	// bit. Negative n_m beyond the dyadic window (never reachable
	// through the validated port range) falls back to the reference
	// scaler.
	if err := b.smp.Init(par.FxP(), b.cfg.Log, b.cfg.Source, true); err != nil {
		if err := b.smp.Init(par.FxP(), b.cfg.Log, b.cfg.Source, false); err != nil {
			return err
		}
	}
	b.sampler = &b.smp
	guard := core.GuardThresholding
	switch {
	case b.resampling && b.cfg.ConstantTime:
		guard = core.GuardConstantTime
	case b.resampling:
		guard = core.GuardResampling
	}
	p, err := core.NewGuardPlan(par, core.GuardSpec{Guard: guard, Threshold: b.thOverride,
		Candidates: b.cfg.Candidates, Mult: b.cfg.Mult, Multipliers: b.cfg.Multipliers,
		Charged: true, RR: b.thOverride == 0 && !b.resampling, Disabled: b.cfg.GuardDisabled})
	if err != nil {
		return err
	}
	b.plan = p
	return nil
}

// Step advances the clock one cycle. A dead module has no clock; the
// call is a no-op.
func (b *DPBox) Step() {
	if b.phase == PhaseDead {
		return
	}
	b.tick()
	if b.phase == PhaseDead {
		return
	}
	defer b.trace()
	switch b.phase {
	case PhaseWaiting:
		if !b.haveK && b.sampler != nil {
			// Precompute the next Laplace sample so noising can
			// complete in a single cycle (Section IV-C2).
			b.pendingK = b.draw()
			b.haveK = true
		}
	case PhaseNoising:
		b.noisingCycle()
	}
}

// tick advances time bookkeeping common to every cycle: the fault
// plane's power schedule and the replenishment timer.
func (b *DPBox) tick() {
	b.cycles++
	if b.fp != nil && b.fp.Tick() {
		b.powerFail()
		return
	}
	if b.ownTimer && !b.ledger.tick() {
		b.powerFail()
	}
}

// powerFail kills the module: volatile state is gone, the NVM journal
// stops accepting writes, and every port returns ErrPowerLost until
// Recover.
func (b *DPBox) powerFail() {
	if b.phase == PhaseDead {
		return
	}
	b.phase = PhaseDead
	b.ready = false
	b.haveK = false
	if b.ledger.j != nil {
		b.ledger.j.Kill()
	}
	b.obs.PowerLosses.Inc()
}

// noisingCycle performs one cycle of the noising phase: one guard
// step with the pending sample. The box keeps only the cycle
// accounting; every decision is the plan's.
func (b *DPBox) noisingCycle() {
	if b.ledger.balance() <= 0 && !b.cfg.GuardDisabled {
		// Budget exhausted: replay the cache (free).
		b.replayCache()
		return
	}
	if !b.haveK {
		b.pendingK = b.draw()
		b.haveK = true
	}
	s := b.plan.Step(b.sensor+b.pendingK, b.resamples)
	b.haveK = false // sample consumed
	// Constant-time candidates are drawn this same cycle by parallel
	// RNG datapaths.
	for n := 1; s.Decision == core.StepRedraw && b.plan.Guard == core.GuardConstantTime; n++ {
		s = b.plan.Step(b.sensor+b.draw(), n)
	}
	switch s.Decision {
	case core.StepRedraw, core.StepDegrade, core.StepWithhold:
		b.resamples++
		b.obs.Resamples.Inc()
		if s.Decision == core.StepRedraw {
			return // next cycle draws a fresh sample
		}
		// The watchdog tripped: the RNG is suspect.
		b.degraded = true
		b.obs.Degraded.Inc()
		if s.Decision == core.StepWithhold {
			b.replayCache()
			return
		}
	}
	b.lastBand = int64(s.Band)
	b.finish(s.Y, s.Units, false)
}

// draw takes one Laplace sample. The synthesized datapath evaluates
// its log unit once per sample, so this is where dpbox.log_evals
// counts, whether the simulator evaluated the log unit or read the
// sampler's magnitude table.
func (b *DPBox) draw() int64 {
	b.obs.LogEvals.Inc()
	return b.sampler.SampleK()
}

// replayCache ends the transaction without fresh noise: it replays
// the cached output, or emits the range's lower bound if nothing was
// ever produced. Neither is charged.
func (b *DPBox) replayCache() {
	y := b.rangeLower
	if b.haveCache {
		y = b.cache
	}
	b.finish(y, 0, true)
}

// DegradeThreshold returns the certified thresholding clamp the
// watchdog degrades to, and whether one is available.
func (b *DPBox) DegradeThreshold() (int64, bool) {
	return b.plan.DegradeThreshold, b.plan.DegradeOK
}

// LastDegraded reports whether the most recent transaction tripped
// the resample watchdog.
func (b *DPBox) LastDegraded() bool { return b.degraded }

func (b *DPBox) finish(y, chargeU int64, fromCache bool) {
	if b.seqArmed {
		// Sequence-labelled transaction: the (seq, value) binding is
		// journaled atomically with the charge — for cache replays too
		// (at zero charge), so a retransmitted sequence recovers the
		// same value after a crash instead of redrawing.
		u := chargeU
		if fromCache {
			u = 0
		}
		rel := Release{Value: y, Degraded: b.degraded, FromCache: fromCache}
		if !b.ledger.chargeRelease(u, b.armedSeq, rel) {
			b.powerFail()
			return
		}
		b.recordRelease(b.armedSeq, rel)
		b.obs.Flight.Record(int64(b.obsCh), b.armedSeq, obs.StageJournal)
		b.seqArmed = false
		if !fromCache {
			b.cache = y
			b.haveCache = true
		}
	} else if !fromCache {
		if !b.ledger.charge(chargeU) {
			// The two-phase journal write did not become durable: NVM
			// power is gone. Fail closed — no output is emitted for a
			// charge that was never committed.
			b.powerFail()
			return
		}
		b.cache = y
		b.haveCache = true
	}
	b.lastCharge = chargeU
	b.fromCache = fromCache
	b.out = y
	b.ready = true
	b.phase = PhaseWaiting
	m := b.obs
	m.Transactions.Inc()
	m.ResamplesPerTxn.Observe(int64(b.resamples))
	if fromCache {
		m.CacheReplays.Inc()
	} else {
		m.ChargeUnits.Observe(chargeU)
		m.ChargeBands.Observe(b.lastBand)
		m.Odometer.Charge(b.obsCh, chargeU)
	}
}

// recordRelease mirrors a durable release binding into the in-memory
// cache.
func (b *DPBox) recordRelease(seq uint64, rel Release) {
	if b.releases == nil {
		hint := 0
		if j := b.ledger.j; j != nil {
			hint = j.reports
		}
		b.releases = make(map[uint64]Release, hint)
	}
	b.releases[seq] = rel
	if seq >= b.maxRelSeq {
		b.maxRelSeq = seq
	}
}

// NoiseResult summarizes one complete noising transaction.
type NoiseResult struct {
	// Value is the noised output in steps.
	Value int64
	// Cycles is the transaction latency: 2 + resamples.
	Cycles int
	// Resamples counts extra noise draws.
	Resamples int
	// Charged is the budget charge in nats (0 when FromCache).
	Charged float64
	// FromCache reports a replayed cached output.
	FromCache bool
	// Degraded reports that the resample watchdog tripped and the
	// output came from the certified thresholding clamp instead of
	// the resampling loop.
	Degraded bool
	// Replayed reports that a sequence-labelled request matched an
	// already-released sequence and the journaled value was returned
	// verbatim — no noise drawn, no budget charged.
	Replayed bool
}

// NoiseValue drives a full transaction: load the sensor value, start
// noising, and step the clock until the output is ready. The DP-Box
// must be in the waiting phase with ε and range configured.
func (b *DPBox) NoiseValue(x int64) (NoiseResult, error) {
	if b.phase != PhaseWaiting {
		return NoiseResult{}, fmt.Errorf("dpbox: NoiseValue in phase %v", b.phase)
	}
	cycles := 0
	if err := b.Command(CmdSetSensorValue, x); err != nil {
		return NoiseResult{}, err
	}
	cycles++
	if err := b.Command(CmdStartNoising, 0); err != nil {
		return NoiseResult{}, err
	}
	cycles++
	for !b.ready {
		if b.phase == PhaseDead {
			return NoiseResult{}, ErrPowerLost
		}
		b.Step()
		cycles++
		if cycles > 4096 {
			return NoiseResult{}, errors.New("dpbox: noising did not converge")
		}
	}
	charge := float64(b.lastCharge) * chargeUnit
	if b.fromCache {
		charge = 0
	}
	return NoiseResult{
		Value:     b.out,
		Cycles:    cycles,
		Resamples: b.resamples,
		Charged:   charge,
		FromCache: b.fromCache,
		Degraded:  b.degraded,
	}, nil
}

// NoiseValueSeq is NoiseValue for a report labelled with a per-node
// monotonic sequence number: noise for a sequence is drawn at most
// once, ever. The first call for seq runs a normal transaction whose
// (seq, value) binding is journaled atomically with its budget charge;
// any later call for the same seq — a retry loop re-asking after a
// lost ACK, or a fresh boot replaying after a crash mid-retry —
// returns the recorded value verbatim with Replayed set, drawing no
// noise and charging nothing. Retransmitting a release is therefore
// privacy-free: the wire never carries two noisings of one reading.
func (b *DPBox) NoiseValueSeq(seq uint64, x int64) (NoiseResult, error) {
	if rel, ok := b.releases[seq]; ok {
		b.obs.SeqReplays.Inc()
		b.obs.Flight.Record(int64(b.obsCh), seq, obs.StageReplayed)
		return NoiseResult{
			Value:     rel.Value,
			Charged:   0,
			FromCache: true,
			Degraded:  rel.Degraded,
			Replayed:  true,
		}, nil
	}
	b.seqArmed, b.armedSeq = true, seq
	r, err := b.NoiseValue(x)
	b.seqArmed = false
	return r, err
}

// ReleaseFor returns the durably released value for a sequence, if
// one exists (in this power cycle or recovered from the journal).
func (b *DPBox) ReleaseFor(seq uint64) (Release, bool) {
	rel, ok := b.releases[seq]
	return rel, ok
}

// Releases returns the box's own (sequence → release) map: every
// binding known in this power cycle or recovered from the journal
// (nil when there are none). It is not a copy. The map is read-only to
// the caller, and it changes as the box releases, reboots or
// recovers; a caller that needs a snapshot of a live box copies it.
func (b *DPBox) Releases() map[uint64]Release { return b.releases }

// NextSeq returns the smallest sequence number strictly above every
// known release (0 on a box that has never released).
func (b *DPBox) NextSeq() uint64 {
	if len(b.releases) == 0 {
		return 0
	}
	return b.maxRelSeq + 1
}

// Initialize drives the boot-time configuration: budget (in nats) and
// replenishment period (cycles; 0 disables), then locks and enters
// the waiting phase. The budget rounds down to whole charge units, so
// the ledger never grants more privacy loss than was configured.
func (b *DPBox) Initialize(budgetNats float64, replenishEvery uint64) error {
	if b.phase != PhaseInit {
		return errors.New("dpbox: already initialized (power cycle required)")
	}
	units := math.Floor(budgetNats / chargeUnit)
	if !(units >= 0 && units < math.MaxInt64) {
		return fmt.Errorf("dpbox: budget %g nats is not a finite non-negative amount the ledger can hold", budgetNats)
	}
	if err := b.Command(CmdSetEpsilon, int64(units)); err != nil {
		return err
	}
	if err := b.Command(CmdSetRangeUpper, int64(replenishEvery)); err != nil {
		return err
	}
	return b.Command(CmdStartNoising, 0)
}

// Configure sets the per-reading registers from the waiting phase:
// ε = 2^-epsShift and the sensor range [lower, upper] in steps.
func (b *DPBox) Configure(epsShift int, lower, upper int64) error {
	if b.phase != PhaseWaiting {
		return fmt.Errorf("dpbox: Configure in phase %v", b.phase)
	}
	if err := b.Command(CmdSetEpsilon, int64(epsShift)); err != nil {
		return err
	}
	if err := b.Command(CmdSetRangeLower, lower); err != nil {
		return err
	}
	return b.Command(CmdSetRangeUpper, upper)
}

// SetResampling selects resampling (true) or thresholding (false).
func (b *DPBox) SetResampling(on bool) error {
	if b.resampling == on {
		return nil
	}
	return b.Command(CmdSetThreshold, -1)
}

// OverrideThreshold forces an explicit guard threshold in steps
// (0 = randomized-response mode). Pass through CmdSetThreshold.
// Overridden thresholds carry no closed-form certificate: the charge
// table switches to the exact analysis, and an override whose worst-
// case loss is infinite drains the entire budget on first use.
func (b *DPBox) OverrideThreshold(t int64) error {
	if t < 0 {
		return errors.New("dpbox: negative threshold override")
	}
	return b.Command(CmdSetThreshold, t)
}

// LastFromCache reports whether the most recent output was served
// from the exhausted-budget cache.
func (b *DPBox) LastFromCache() bool { return b.fromCache }
