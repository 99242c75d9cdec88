package msp430

// Helpers only the package's tests use: emitters for the CPU's byte
// mode and the format-I/II instructions no shipped routine uses, and a
// register reset.

// twoOpForTest emits an arbitrary format-I instruction, word or byte
// mode.
func (p *Program) twoOpForTest(opcode uint16, src, dst Operand, byteOp bool) {
	p.twoOp(opcode, src, dst, byteOp)
}

// Dadd emits DADD src, dst.
func (p *Program) Dadd(src, dst Operand) { p.twoOp(0xA, src, dst, false) }

// Swpb emits SWPB (swap bytes).
func (p *Program) Swpb(o Operand) { p.oneOp(1, o, false) }

// Rra emits RRA (arithmetic shift right).
func (p *Program) Rra(o Operand) { p.oneOp(2, o, false) }

// Sxt emits SXT (sign-extend byte).
func (p *Program) Sxt(o Operand) { p.oneOp(3, o, false) }

// Reset clears registers, cycle counters and pending interrupts but
// preserves memory and attached peripherals.
func (c *CPU) Reset() {
	c.R = [16]uint16{}
	c.R[SP] = 0xFF00
	c.Cycles = 0
	c.Instrs = 0
	c.Halted = false
	c.pending = [NumVectors]bool{}
	c.idleCycles = 0
}
