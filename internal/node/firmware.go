package node

import (
	"fmt"

	"ulpdp/internal/dpbox"
	"ulpdp/internal/msp430"
)

// Firmware memory map: the driver exchanges values with the host
// through three RAM words.
const (
	AddrX   = 0x0200 // input: sensor value (steps)
	AddrOut = 0x0202 // output: noised value
	AddrErr = 0x0204 // status: 0 ok, ErrCode* otherwise
)

// Firmware error codes stored at AddrErr.
const (
	// ErrCodePollTimeout means the DP-Box never raised STATUS.ready
	// within PollBudget polls: the box is wedged, dead, or refusing
	// the request. The firmware gives up instead of spinning forever.
	ErrCodePollTimeout = 1
)

// PollBudget bounds the firmware's ready-poll loop. Each STATUS read
// steps the DP-Box one cycle while noising, so the budget must exceed
// the box's resample watchdog cap (at most 2048 cycles) plus FSM
// overhead; 4096 leaves 2x slack. A healthy transaction is orders of
// magnitude shorter, so the bound never fires in normal operation.
const PollBudget = 4096

// BuildFirmware assembles the MSP430 driver for a DP-Box mapped at
// base: a configuration routine (ε shift, sensor range) and a noising
// routine (load sensor value, start, poll ready, store output).
func BuildFirmware(base uint16, epsShift int, rangeLo, rangeHi int16) (*msp430.Program, error) {
	if base%2 != 0 {
		return nil, fmt.Errorf("node: unaligned base %#x", base)
	}
	p := msp430.NewProgram(0x4000)

	p.Label("configure")
	emitConfigure(p, base, epsShift, rangeLo, rangeHi)
	p.Ret()

	p.Label("noise")
	emitNoise(p, base, msp430.Abs(AddrX), "poll", "ready")
	p.Ret()
	p.Label("ready")
	p.Mov(msp430.Abs(base+RegOut), msp430.Abs(AddrOut))
	p.Ret()

	// mode_resample: toggle the guard mode.
	p.Label("mode_resample")
	p.Mov(msp430.Imm(-1), msp430.Abs(base+RegData))
	p.Mov(msp430.Imm(int(dpbox.CmdSetThreshold)), msp430.Abs(base+RegCmd))
	p.Ret()

	if p.Err() != nil {
		return nil, p.Err()
	}
	return p, nil
}

// emitConfigure writes ε and the sensor range registers of the DP-Box
// mapped at base.
func emitConfigure(p *msp430.Program, base uint16, epsShift int, rangeLo, rangeHi int16) {
	data, cmd := msp430.Abs(base+RegData), msp430.Abs(base+RegCmd)
	p.Mov(msp430.Imm(epsShift), data)
	p.Mov(msp430.Imm(int(dpbox.CmdSetEpsilon)), cmd)
	p.Mov(msp430.Imm(int(rangeLo)), data)
	p.Mov(msp430.Imm(int(dpbox.CmdSetRangeLower)), cmd)
	p.Mov(msp430.Imm(int(rangeHi)), data)
	p.Mov(msp430.Imm(int(dpbox.CmdSetRangeUpper)), cmd)
}

// emitNoise starts one noising transaction on the word at src and
// polls STATUS.ready, jumping to the ready label once the output is
// valid. The poll is bounded by a software watchdog in R10: an
// embedded driver must not hang on a wedged peripheral, and the
// fail-closed DP-Box can legitimately refuse to ever raise ready
// (dead phase, unhealthy URNG). When the budget runs out, the code
// stores ErrCodePollTimeout at AddrErr and falls through.
func emitNoise(p *msp430.Program, base uint16, src msp430.Operand, poll, ready string) {
	cmd := msp430.Abs(base + RegCmd)
	p.Mov(src, msp430.Abs(base+RegData))
	p.Mov(msp430.Imm(int(dpbox.CmdSetSensorValue)), cmd)
	p.Mov(msp430.Imm(int(dpbox.CmdStartNoising)), cmd)
	p.Clr(msp430.Abs(AddrErr))
	p.Mov(msp430.Imm(PollBudget), msp430.Reg(10))
	p.Label(poll)
	p.Bit(msp430.Imm(StatusReady), msp430.Abs(base+RegStatus))
	p.Jne(ready)
	p.Dec(msp430.Reg(10))
	p.Jne(poll)
	p.Mov(msp430.Imm(ErrCodePollTimeout), msp430.Abs(AddrErr))
}

// Driver couples a Node with its loaded firmware.
type Driver struct {
	node      *Node
	configure uint16
	noise     uint16
	resample  uint16
}

// NewDriver assembles the firmware, loads it, and returns a driver.
func NewDriver(n *Node, epsShift int, rangeLo, rangeHi int16) (*Driver, error) {
	prog, err := BuildFirmware(n.Port.Base, epsShift, rangeLo, rangeHi)
	if err != nil {
		return nil, err
	}
	words, err := prog.Assemble()
	if err != nil {
		return nil, err
	}
	n.CPU.LoadWords(prog.Org(), words)
	d := &Driver{node: n}
	for name, dst := range map[string]*uint16{
		"configure": &d.configure, "noise": &d.noise, "mode_resample": &d.resample,
	} {
		addr, err := prog.LabelAddr(name)
		if err != nil {
			return nil, err
		}
		*dst = addr
	}
	return d, nil
}

// Configure runs the configuration routine.
func (d *Driver) Configure() error {
	if _, err := d.node.CPU.Call(d.configure, 10_000); err != nil {
		return err
	}
	return d.node.Port.LastErr()
}

// Noise runs one firmware noising transaction and returns the noised
// value and the CPU cycles spent (including MMIO polling). When the
// firmware's poll watchdog expires — the DP-Box is wedged, dead, or
// refusing to serve — the error reports the firmware code and any
// underlying command error.
func (d *Driver) Noise(x int16) (int16, uint64, error) {
	o, err := d.NoiseOutcome(x)
	return o.Value, o.Cycles, err
}

// Outcome is one firmware noising transaction with the STATUS-word
// quality bits decoded: firmware (and the fleet transport above it)
// can tell a certified-but-degraded release from a normal one.
type Outcome struct {
	// Value is the noised output.
	Value int16
	// Cycles is the CPU cycles spent, including MMIO polling.
	Cycles uint64
	// Degraded reports STATUS.degraded: the resample watchdog tripped
	// and the output came from the certified thresholding clamp.
	Degraded bool
	// FromCache reports STATUS.cache: the output replays the budget
	// cache rather than fresh noise.
	FromCache bool
	// Unhealthy reports STATUS.unhealthy: the URNG health gate is
	// closed and the box is serving its cache only.
	Unhealthy bool
}

// NoiseOutcome runs one firmware noising transaction and decodes the
// final STATUS word alongside the value. The quality bits come from
// the same memory-mapped register the firmware polls, so everything
// reported here is visible to real MSP430 code too.
func (d *Driver) NoiseOutcome(x int16) (Outcome, error) {
	d.node.CPU.WriteWord(AddrX, uint16(x))
	d.node.CPU.Instrs = 0
	cycles, err := d.node.CPU.Call(d.noise, 100_000)
	if err != nil {
		return Outcome{}, err
	}
	if code := d.node.CPU.ReadWord(AddrErr); code != 0 {
		if err := d.node.Port.LastErr(); err != nil {
			return Outcome{Cycles: cycles}, fmt.Errorf("node: firmware error %d after %d polls: %w", code, PollBudget, err)
		}
		return Outcome{Cycles: cycles}, fmt.Errorf("node: firmware error %d (DP-Box never ready within %d polls)", code, PollBudget)
	}
	if err := d.node.Port.LastErr(); err != nil {
		return Outcome{}, err
	}
	// The transaction is over (the box is back in its waiting phase),
	// so this read cannot step a noising cycle; it reports the sticky
	// per-transaction quality bits.
	status := d.node.Port.ReadWord(d.node.Port.Base + RegStatus)
	return Outcome{
		Value:     int16(d.node.CPU.ReadWord(AddrOut)),
		Cycles:    cycles,
		Degraded:  status&StatusDegraded != 0,
		FromCache: status&StatusCache != 0,
		Unhealthy: status&StatusUnhealthy != 0,
	}, nil
}
