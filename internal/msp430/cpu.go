// Package msp430 is an instruction-level emulator of the TI MSP430
// CPU core (the 27-instruction orthogonal 16-bit ISA) with the
// per-addressing-mode cycle costs of the MSP430x1xx family user's
// guide. The paper's Section III-D compares software noising on an
// MSP430 against the DP-Box; this package is the substitute for that
// silicon: the software fixed-point and half-precision noising
// routines in programs.go execute on this emulator and their cycle
// counts stand in for the paper's measured 4043 and 1436 cycles.
package msp430

import (
	"errors"
	"fmt"
)

// Register indices. R0..R3 have dedicated roles.
const (
	PC = 0 // program counter
	SP = 1 // stack pointer
	SR = 2 // status register / constant generator 1
	CG = 3 // constant generator 2
)

// Status register flag bits.
const (
	FlagC uint16 = 1 << 0
	FlagZ uint16 = 1 << 1
	FlagN uint16 = 1 << 2
	FlagV uint16 = 1 << 8
)

// MemSize is the byte-addressable memory size.
const MemSize = 1 << 16

// HaltAddress is the sentinel return address: a RET that pops it
// halts the CPU, letting the host run routines as subroutines.
const HaltAddress = 0xFFFE

// Peripheral is a memory-mapped device: data-space accesses to
// addresses it claims are routed to it instead of RAM. Instruction
// fetches never hit peripherals (code does not execute from device
// space, as on the real part).
type Peripheral interface {
	// Contains reports whether the peripheral claims addr.
	Contains(addr uint16) bool
	// ReadWord services a word read at a claimed address.
	ReadWord(addr uint16) uint16
	// WriteWord services a word write at a claimed address.
	WriteWord(addr uint16, v uint16)
}

// CPU is one MSP430 core with its memory.
type CPU struct {
	R      [16]uint16
	Mem    [MemSize]byte
	Cycles uint64
	Halted bool
	// Instrs counts retired instructions.
	Instrs uint64
	// peripherals receive claimed data-space accesses.
	peripherals []Peripheral
	// clocked peripherals advance with the CPU clock.
	clocked []ClockedPeripheral
	// pending latches interrupt requests per vector.
	pending [NumVectors]bool
	// idleCycles counts cycles spent with the core off (CPUOFF).
	idleCycles uint64
}

// AttachPeripheral maps a device into the data space.
func (c *CPU) AttachPeripheral(p Peripheral) {
	c.peripherals = append(c.peripherals, p)
}

func (c *CPU) peripheralAt(addr uint16) Peripheral {
	for _, p := range c.peripherals {
		if p.Contains(addr) {
			return p
		}
	}
	return nil
}

// New returns a CPU with the stack pointer at the top of RAM.
func New() *CPU {
	c := &CPU{}
	c.R[SP] = 0xFF00
	return c
}

// LoadWords writes a word slice into memory at addr (little endian).
func (c *CPU) LoadWords(addr uint16, words []uint16) {
	for i, w := range words {
		c.WriteWord(addr+uint16(2*i), w)
	}
}

// ReadWord reads a little-endian word; word accesses are aligned by
// forcing bit 0 low, as the hardware does.
func (c *CPU) ReadWord(addr uint16) uint16 {
	addr &^= 1
	return uint16(c.Mem[addr]) | uint16(c.Mem[addr+1])<<8
}

// WriteWord writes a little-endian word.
func (c *CPU) WriteWord(addr uint16, v uint16) {
	addr &^= 1
	c.Mem[addr] = byte(v)
	c.Mem[addr+1] = byte(v >> 8)
}

// Call sets up a subroutine call to entry with the halt sentinel as
// the return address and runs to completion (or the instruction cap).
// It returns the cycles consumed by the routine.
func (c *CPU) Call(entry uint16, maxInstrs uint64) (uint64, error) {
	c.R[SP] -= 2
	c.WriteWord(c.R[SP], HaltAddress)
	c.R[PC] = entry
	c.Halted = false
	start := c.Cycles
	for !c.Halted {
		if c.Instrs >= maxInstrs {
			return 0, fmt.Errorf("msp430: exceeded %d instructions at PC=%04x", maxInstrs, c.R[PC])
		}
		if err := c.Step(); err != nil {
			return 0, err
		}
	}
	return c.Cycles - start, nil
}

// fetch reads the word at PC and advances it.
func (c *CPU) fetch() uint16 {
	w := c.ReadWord(c.R[PC])
	c.R[PC] += 2
	return w
}

// Step executes one instruction, services pending interrupts, or
// burns one idle cycle when the core is off.
func (c *CPU) Step() error {
	if c.InterruptsPending() && c.serviceInterrupt() {
		return nil
	}
	if c.R[SR]&FlagCPUOFF != 0 {
		// Core off: the clock (and clocked peripherals) keep running.
		c.chargeCycles(1)
		c.idleCycles++
		return nil
	}
	if c.R[PC] == HaltAddress {
		c.Halted = true
		return nil
	}
	op := c.fetch()
	c.Instrs++
	switch {
	case op&0xE000 == 0x2000: // jump family (001x xxxx ...)
		return c.execJump(op)
	case op&0xF000 == 0x1000: // single operand
		return c.execFormatII(op)
	case op >= 0x4000: // double operand
		return c.execFormatI(op)
	}
	return fmt.Errorf("msp430: illegal opcode %04x at PC=%04x", op, c.R[PC]-2)
}

// operand describes a resolved source or destination.
type operand struct {
	isReg bool
	reg   int
	addr  uint16
	value uint16
	// constGen marks a constant-generator source (no memory access).
	constGen bool
}

// resolveSrc decodes a source operand (register, As bits) and returns
// its value plus the extra cycles charged for the access.
func (c *CPU) resolveSrc(reg int, as int, byteOp bool) (operand, int) {
	switch reg {
	case SR:
		switch as {
		case 2:
			return operand{value: 4, constGen: true}, 0
		case 3:
			return operand{value: 8, constGen: true}, 0
		}
	case CG:
		switch as {
		case 0:
			return operand{value: 0, constGen: true}, 0
		case 1:
			return operand{value: 1, constGen: true}, 0
		case 2:
			return operand{value: 2, constGen: true}, 0
		case 3:
			return operand{value: 0xFFFF, constGen: true}, 0
		}
	}
	switch as {
	case 0: // register direct
		v := c.R[reg]
		if byteOp {
			v &= 0xFF
		}
		return operand{isReg: true, reg: reg, value: v}, 0
	case 1: // indexed / symbolic / absolute
		x := c.fetch()
		var base uint16
		switch reg {
		case PC: // symbolic: address = PC(of x) + x
			base = c.R[PC] - 2
		case SR: // absolute
			base = 0
		default:
			base = c.R[reg]
		}
		addr := base + x
		return operand{addr: addr, value: c.readOp(addr, byteOp)}, 2
	case 2: // indirect
		addr := c.R[reg]
		return operand{addr: addr, value: c.readOp(addr, byteOp)}, 1
	default: // indirect autoincrement / immediate
		if reg == PC { // immediate
			v := c.fetch()
			if byteOp {
				v &= 0xFF
			}
			return operand{value: v, constGen: false}, 1
		}
		addr := c.R[reg]
		inc := uint16(2)
		if byteOp {
			inc = 1
		}
		c.R[reg] += inc
		return operand{addr: addr, value: c.readOp(addr, byteOp)}, 1
	}
}

// resolveDst decodes a destination (register or indexed) and the
// extra cycles for the eventual write.
func (c *CPU) resolveDst(reg int, ad int, byteOp bool) (operand, int) {
	if ad == 0 {
		v := c.R[reg]
		if byteOp {
			v &= 0xFF
		}
		return operand{isReg: true, reg: reg, value: v}, 0
	}
	x := c.fetch()
	var base uint16
	switch reg {
	case PC:
		base = c.R[PC] - 2
	case SR:
		base = 0
	default:
		base = c.R[reg]
	}
	addr := base + x
	return operand{addr: addr, value: c.readOp(addr, byteOp)}, 3
}

func (c *CPU) readOp(addr uint16, byteOp bool) uint16 {
	if p := c.peripheralAt(addr); p != nil {
		w := p.ReadWord(addr &^ 1)
		if byteOp {
			if addr&1 == 1 {
				return w >> 8
			}
			return w & 0xFF
		}
		return w
	}
	if byteOp {
		return uint16(c.Mem[addr])
	}
	return c.ReadWord(addr)
}

func (c *CPU) writeOp(dst operand, v uint16, byteOp bool) {
	if dst.isReg {
		if byteOp {
			v &= 0xFF
		}
		c.R[dst.reg] = v
		return
	}
	if p := c.peripheralAt(dst.addr); p != nil {
		if byteOp {
			// Read-modify-write the containing word.
			w := p.ReadWord(dst.addr &^ 1)
			if dst.addr&1 == 1 {
				w = w&0x00FF | v<<8
			} else {
				w = w&0xFF00 | v&0xFF
			}
			p.WriteWord(dst.addr&^1, w)
			return
		}
		p.WriteWord(dst.addr&^1, v)
		return
	}
	if byteOp {
		c.Mem[dst.addr] = byte(v)
		return
	}
	c.WriteWord(dst.addr, v)
}

// setFlags updates N and Z for a result; C and V are handled by the
// arithmetic helpers.
func (c *CPU) setNZ(v uint16, byteOp bool) {
	c.R[SR] &^= FlagN | FlagZ
	if byteOp {
		if v&0x80 != 0 {
			c.R[SR] |= FlagN
		}
		if v&0xFF == 0 {
			c.R[SR] |= FlagZ
		}
		return
	}
	if v&0x8000 != 0 {
		c.R[SR] |= FlagN
	}
	if v == 0 {
		c.R[SR] |= FlagZ
	}
}

func (c *CPU) setFlag(f uint16, on bool) {
	if on {
		c.R[SR] |= f
	} else {
		c.R[SR] &^= f
	}
}

func (c *CPU) flag(f uint16) bool { return c.R[SR]&f != 0 }

// execFormatI executes a double-operand instruction.
func (c *CPU) execFormatI(op uint16) error {
	opcode := op >> 12
	srcReg := int(op>>8) & 0xF
	ad := int(op>>7) & 1
	byteOp := op&0x40 != 0
	as := int(op>>4) & 3
	dstReg := int(op) & 0xF

	src, srcCyc := c.resolveSrc(srcReg, as, byteOp)
	dst, dstCyc := c.resolveDst(dstReg, ad, byteOp)

	// Base cycle cost (MSP430x1xx user's guide, Table 3-15): the
	// indexed-destination cost already includes the write-back.
	cycles := 1 + srcCyc + dstCyc
	if dst.isReg && dst.reg == PC {
		cycles++ // writes to PC cost one extra
	}

	mask := uint16(0xFFFF)
	sign := uint16(0x8000)
	if byteOp {
		mask, sign = 0xFF, 0x80
	}
	s := src.value & mask
	d := dst.value & mask

	write := true
	var r uint16
	switch opcode {
	case 0x4: // MOV
		r = s
		// MOV does not touch flags.
		c.writeOp(dst, r, byteOp)
		c.chargeCycles(cycles)
		c.maybeHalt(dst)
		return nil
	case 0x5: // ADD
		r = c.addCore(s, d, 0, mask, sign, byteOp)
	case 0x6: // ADDC
		carry := uint16(0)
		if c.flag(FlagC) {
			carry = 1
		}
		r = c.addCore(s, d, carry, mask, sign, byteOp)
	case 0x7: // SUBC
		carry := uint16(0)
		if c.flag(FlagC) {
			carry = 1
		}
		r = c.addCore(^s&mask, d, carry, mask, sign, byteOp)
	case 0x8: // SUB
		r = c.addCore(^s&mask, d, 1, mask, sign, byteOp)
	case 0x9: // CMP
		r = c.addCore(^s&mask, d, 1, mask, sign, byteOp)
		write = false
	case 0xA: // DADD (BCD add) — rarely used; implemented for completeness
		r = c.dadd(s, d, byteOp)
	case 0xB: // BIT
		r = s & d
		c.setNZ(r, byteOp)
		c.setFlag(FlagC, r != 0)
		c.setFlag(FlagV, false)
		write = false
	case 0xC: // BIC
		r = ^s & d
	case 0xD: // BIS
		r = s | d
	case 0xE: // XOR
		r = s ^ d
		c.setNZ(r, byteOp)
		c.setFlag(FlagC, r != 0)
		c.setFlag(FlagV, s&sign != 0 && d&sign != 0)
	case 0xF: // AND
		r = s & d
		c.setNZ(r, byteOp)
		c.setFlag(FlagC, r != 0)
		c.setFlag(FlagV, false)
	default:
		return fmt.Errorf("msp430: bad format-I opcode %x", opcode)
	}
	if write {
		c.writeOp(dst, r&mask, byteOp)
	}
	c.chargeCycles(cycles)
	c.maybeHalt(dst)
	return nil
}

// addCore performs s+d+carry, setting C, Z, N, V.
func (c *CPU) addCore(s, d, carry, mask, sign uint16, byteOp bool) uint16 {
	full := uint32(s) + uint32(d) + uint32(carry)
	r := uint16(full) & mask
	c.setNZ(r, byteOp)
	c.setFlag(FlagC, full > uint32(mask))
	// Overflow: operands same sign, result different.
	c.setFlag(FlagV, (s&sign) == (d&sign) && (r&sign) != (s&sign))
	return r
}

// dadd is decimal (BCD) addition.
func (c *CPU) dadd(s, d uint16, byteOp bool) uint16 {
	digits := 4
	if byteOp {
		digits = 2
	}
	carry := uint16(0)
	if c.flag(FlagC) {
		carry = 1
	}
	var r uint16
	for i := 0; i < digits; i++ {
		sd := (s >> (4 * i)) & 0xF
		dd := (d >> (4 * i)) & 0xF
		sum := sd + dd + carry
		if sum >= 10 {
			sum -= 10
			carry = 1
		} else {
			carry = 0
		}
		r |= sum << (4 * i)
	}
	c.setFlag(FlagC, carry != 0)
	c.setNZ(r, byteOp)
	return r
}

// execFormatII executes a single-operand instruction.
func (c *CPU) execFormatII(op uint16) error {
	opcode := (op >> 7) & 7
	byteOp := op&0x40 != 0
	as := int(op>>4) & 3
	reg := int(op) & 0xF

	// PUSH/CALL treat the operand as a source; others read-modify-
	// write.
	src, srcCyc := c.resolveSrc(reg, as, byteOp)
	mask := uint16(0xFFFF)
	sign := uint16(0x8000)
	if byteOp {
		mask, sign = 0xFF, 0x80
	}
	v := src.value & mask

	switch opcode {
	case 0: // RRC: rotate right through carry
		carryIn := uint16(0)
		if c.flag(FlagC) {
			carryIn = sign
		}
		c.setFlag(FlagC, v&1 != 0)
		r := (v >> 1) | carryIn
		c.setNZ(r, byteOp)
		c.setFlag(FlagV, false)
		c.writeBack(src, r, byteOp)
		c.chargeCycles(1 + srcCyc + memRMWExtra(src))
	case 1: // SWPB: swap bytes (word only)
		r := (v>>8)&0xFF | (v&0xFF)<<8
		c.writeBack(src, r, false)
		c.chargeCycles(1 + srcCyc + memRMWExtra(src))
	case 2: // RRA: arithmetic shift right
		msb := v & sign
		c.setFlag(FlagC, v&1 != 0)
		r := (v >> 1) | msb
		c.setNZ(r, byteOp)
		c.setFlag(FlagV, false)
		c.writeBack(src, r, byteOp)
		c.chargeCycles(1 + srcCyc + memRMWExtra(src))
	case 3: // SXT: sign extend byte to word
		r := v & 0xFF
		if r&0x80 != 0 {
			r |= 0xFF00
		}
		c.setNZ(r, false)
		c.setFlag(FlagC, r != 0)
		c.setFlag(FlagV, false)
		c.writeBack(src, r, false)
		c.chargeCycles(1 + srcCyc + memRMWExtra(src))
	case 4: // PUSH
		c.R[SP] -= 2
		c.WriteWord(c.R[SP], v)
		c.chargeCycles(3 + srcCyc)
	case 5: // CALL
		c.R[SP] -= 2
		c.WriteWord(c.R[SP], c.R[PC])
		c.R[PC] = v
		c.chargeCycles(4 + srcCyc)
		if c.R[PC] == HaltAddress {
			c.Halted = true
		}
	case 6: // RETI
		c.R[SR] = c.ReadWord(c.R[SP])
		c.R[SP] += 2
		c.R[PC] = c.ReadWord(c.R[SP])
		c.R[SP] += 2
		c.chargeCycles(5)
		if c.R[PC] == HaltAddress {
			c.Halted = true
		}
	default:
		return errors.New("msp430: illegal format-II opcode")
	}
	return nil
}

// writeBack stores a format-II result to its operand location.
func (c *CPU) writeBack(src operand, v uint16, byteOp bool) {
	if src.constGen {
		return // writing a constant generator is a no-op
	}
	if src.isReg {
		if byteOp {
			v &= 0xFF
		}
		c.R[src.reg] = v
		if src.reg == PC && v == HaltAddress {
			c.Halted = true
		}
		return
	}
	c.writeOp(operand{addr: src.addr}, v, byteOp)
}

func memRMWExtra(src operand) int {
	if src.isReg || src.constGen {
		return 0
	}
	return 1 // memory write-back of the modified value
}

// execJump executes the conditional-jump family.
func (c *CPU) execJump(op uint16) error {
	cond := (op >> 10) & 7
	offset := int16(op<<6) >> 6 // sign-extend 10 bits
	take := false
	switch cond {
	case 0: // JNE/JNZ
		take = !c.flag(FlagZ)
	case 1: // JEQ/JZ
		take = c.flag(FlagZ)
	case 2: // JNC
		take = !c.flag(FlagC)
	case 3: // JC
		take = c.flag(FlagC)
	case 4: // JN
		take = c.flag(FlagN)
	case 5: // JGE: N xor V == 0
		take = c.flag(FlagN) == c.flag(FlagV)
	case 6: // JL: N xor V == 1
		take = c.flag(FlagN) != c.flag(FlagV)
	case 7: // JMP
		take = true
	}
	if take {
		c.R[PC] = uint16(int32(c.R[PC]) + int32(offset)*2)
		if c.R[PC] == HaltAddress {
			c.Halted = true
		}
	}
	c.chargeCycles(2) // jumps always cost two cycles, taken or not
	return nil
}

func (c *CPU) chargeCycles(n int) {
	c.Cycles += uint64(n)
	for _, p := range c.clocked {
		p.ClockTick(uint64(n))
	}
}

// maybeHalt halts when an instruction lands the PC on the sentinel
// (e.g. RET = MOV @SP+, PC popping HaltAddress).
func (c *CPU) maybeHalt(dst operand) {
	if dst.isReg && dst.reg == PC && c.R[PC] == HaltAddress {
		c.Halted = true
	}
}
