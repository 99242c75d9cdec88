package node

import (
	"fmt"

	"ulpdp/internal/msp430"
)

// This file assembles the paper's duty-cycled sampling story: the CPU
// sleeps in LPM0; a hardware timer wakes it periodically; the ISR
// reads the sensor, pushes the value through the memory-mapped DP-Box
// and stores the noised result, then drops back to sleep. The DP-Box
// doing the noising in two cycles is what keeps the wake window — and
// the node's energy — small.

// Timer is a periodic interrupt source clocked by the CPU.
type Timer struct {
	cpu    *msp430.CPU
	period uint64
	acc    uint64
	vector int
	// Fires counts raised interrupts.
	Fires uint64
}

// NewTimer attaches a timer with the given period (CPU cycles) firing
// the given interrupt vector. It panics on a non-positive period or
// bad vector.
func NewTimer(cpu *msp430.CPU, period uint64, vector int) *Timer {
	if period == 0 {
		panic("node: zero timer period")
	}
	if vector < 0 || vector >= msp430.NumVectors {
		panic(fmt.Sprintf("node: timer vector %d out of range", vector))
	}
	t := &Timer{cpu: cpu, period: period, vector: vector}
	cpu.AttachClocked(t)
	return t
}

// ClockTick implements msp430.ClockedPeripheral.
func (t *Timer) ClockTick(n uint64) {
	t.acc += n
	for t.acc >= t.period {
		t.acc -= t.period
		t.cpu.RequestInterrupt(t.vector)
		t.Fires++
	}
}

// TraceSensor is a memory-mapped sensor data register: every read
// returns the next sample of a recorded trace (cycling at the end).
type TraceSensor struct {
	// Addr is the register address (word aligned).
	Addr uint16
	// Trace is the sample sequence (steps).
	Trace []int16
	// Reads counts register reads.
	Reads uint64
	pos   int
}

// NewTraceSensor builds the sensor register. It panics on an empty
// trace or unaligned address.
func NewTraceSensor(addr uint16, trace []int16) *TraceSensor {
	if len(trace) == 0 {
		panic("node: empty sensor trace")
	}
	if addr%2 != 0 {
		panic("node: unaligned sensor register")
	}
	return &TraceSensor{Addr: addr, Trace: trace}
}

// Contains implements msp430.Peripheral.
func (s *TraceSensor) Contains(addr uint16) bool { return addr == s.Addr || addr == s.Addr+1 }

// ReadWord implements msp430.Peripheral: each read consumes a sample.
func (s *TraceSensor) ReadWord(uint16) uint16 {
	v := uint16(s.Trace[s.pos])
	s.pos = (s.pos + 1) % len(s.Trace)
	s.Reads++
	return v
}

// WriteWord implements msp430.Peripheral (the register is read-only).
func (s *TraceSensor) WriteWord(uint16, uint16) {}

// Sampler firmware memory map.
const (
	AddrRingIdx = 0x02FE // ring write offset (bytes)
	AddrRing    = 0x0300 // noised sample ring buffer
	RingBytes   = 0x0100 // ring capacity in bytes (128 words)
)

// BuildSamplerFirmware assembles the interrupt-driven node firmware:
// main configures the DP-Box and sleeps; the timer ISR samples,
// noises, stores and returns to sleep.
func BuildSamplerFirmware(dpboxBase, sensorAddr uint16, epsShift int, rangeLo, rangeHi int16, vector int) (*msp430.Program, error) {
	if vector < 0 || vector >= msp430.NumVectors {
		return nil, fmt.Errorf("node: vector %d out of range", vector)
	}
	p := msp430.NewProgram(0x4000)

	p.Label("main")
	// Configure the DP-Box once.
	emitConfigure(p, dpboxBase, epsShift, rangeLo, rangeHi)
	p.Clr(msp430.Abs(AddrRingIdx))
	// Sleep loop: LPM0 with interrupts enabled. After every ISR the
	// core re-enters sleep.
	p.Label("sleep")
	p.Bis(msp430.Imm(int(msp430.FlagGIE|msp430.FlagCPUOFF)), msp430.Reg(msp430.SR))
	p.Jmp("sleep")

	// Timer ISR: sample -> noise -> store, saving the poll watchdog's
	// R10 too. A timed-out transaction stores nothing and returns to
	// sleep, so a dead DP-Box cannot keep the core awake.
	p.Label("isr")
	p.Push(msp430.Reg(12))
	p.Push(msp430.Reg(10))
	emitNoise(p, dpboxBase, msp430.Abs(sensorAddr), "isr_poll", "isr_ready")
	p.Jmp("isr_done")
	p.Label("isr_ready")
	p.Mov(msp430.Abs(AddrRingIdx), msp430.Reg(12))
	p.Mov(msp430.Abs(dpboxBase+RegOut), msp430.Idx(int16(AddrRing), 12))
	p.Add(msp430.Imm(2), msp430.Reg(12))
	p.And(msp430.Imm(RingBytes-1), msp430.Reg(12)) // wrap the ring
	p.Mov(msp430.Reg(12), msp430.Abs(AddrRingIdx))
	p.Label("isr_done")
	p.Pop(msp430.Reg(10))
	p.Pop(msp430.Reg(12))
	p.Reti()

	if p.Err() != nil {
		return nil, p.Err()
	}
	return p, nil
}

// SamplerNode is the assembled duty-cycled system.
type SamplerNode struct {
	Node   *Node
	Timer  *Timer
	Sensor *TraceSensor
	isr    uint16
	main   uint16
}

// SamplerConfig assembles the firmware, vector table and peripherals
// for a duty-cycled sampling node.
type SamplerConfig struct {
	// SensorAddr is the sensor register address.
	SensorAddr uint16
	// Trace is the sensor sample stream (steps).
	Trace []int16
	// Period is the sampling period in CPU cycles.
	Period uint64
	// Vector is the timer interrupt vector.
	Vector int
	// EpsShift, RangeLo, RangeHi configure the DP-Box.
	EpsShift         int
	RangeLo, RangeHi int16
}

// NewSampler wires the node: CPU + DP-Box port + timer + sensor +
// firmware + vector table.
func NewSampler(n *Node, cfg SamplerConfig) (*SamplerNode, error) {
	prog, err := BuildSamplerFirmware(n.Port.Base, cfg.SensorAddr, cfg.EpsShift, cfg.RangeLo, cfg.RangeHi, cfg.Vector)
	if err != nil {
		return nil, err
	}
	words, err := prog.Assemble()
	if err != nil {
		return nil, err
	}
	n.CPU.LoadWords(prog.Org(), words)
	isr, err := prog.LabelAddr("isr")
	if err != nil {
		return nil, err
	}
	main, err := prog.LabelAddr("main")
	if err != nil {
		return nil, err
	}
	n.CPU.WriteWord(msp430.VectorTable+uint16(2*cfg.Vector), isr)
	sensor := NewTraceSensor(cfg.SensorAddr, cfg.Trace)
	n.CPU.AttachPeripheral(sensor)
	timer := NewTimer(n.CPU, cfg.Period, cfg.Vector)
	return &SamplerNode{Node: n, Timer: timer, Sensor: sensor, isr: isr, main: main}, nil
}

// Run boots the firmware and runs for the given number of CPU cycles.
func (s *SamplerNode) Run(cycles uint64) error {
	cpu := s.Node.CPU
	cpu.R[msp430.PC] = s.main
	return cpu.RunCycles(cpu.Cycles+cycles, 10_000_000)
}

// Samples returns the noised values collected in the ring buffer so
// far (up to the ring capacity).
func (s *SamplerNode) Samples() []int16 {
	cpu := s.Node.CPU
	idx := cpu.ReadWord(AddrRingIdx)
	n := int(idx) / 2
	if s.Timer.Fires >= RingBytes/2 {
		n = RingBytes / 2 // ring has wrapped; everything is valid
	}
	outVals := make([]int16, 0, n)
	for i := 0; i < n; i++ {
		outVals = append(outVals, int16(cpu.ReadWord(AddrRing+uint16(2*i))))
	}
	return outVals
}
