package msp430

import (
	"fmt"
)

// Operand is an assembler-level addressing-mode description.
type Operand struct {
	kind  opKind
	reg   int
	val   uint16
	label string
}

type opKind int

const (
	opReg opKind = iota
	opIdx
	opInd
	opIndInc
	opImm
	opImmLabel
	opAbs
)

// Reg is register-direct Rn.
func Reg(n int) Operand { return Operand{kind: opReg, reg: n} }

// Idx is indexed x(Rn).
func Idx(off int16, n int) Operand { return Operand{kind: opIdx, reg: n, val: uint16(off)} }

// Ind is indirect @Rn.
func Ind(n int) Operand { return Operand{kind: opInd, reg: n} }

// IndInc is indirect autoincrement @Rn+.
func IndInc(n int) Operand { return Operand{kind: opIndInc, reg: n} }

// Imm is immediate #v; the constant generator is used when possible.
func Imm(v int) Operand { return Operand{kind: opImm, val: uint16(v)} }

// ImmLabel is an immediate whose value is a label's address.
func ImmLabel(name string) Operand { return Operand{kind: opImmLabel, label: name} }

// Abs is absolute &addr.
func Abs(addr uint16) Operand { return Operand{kind: opAbs, val: addr} }

// srcEncoding returns (regField, asBits, extraWord, hasExtra) for a
// source operand.
func (o Operand) srcEncoding() (int, int, uint16, bool, error) {
	switch o.kind {
	case opReg:
		return o.reg, 0, 0, false, nil
	case opIdx:
		return o.reg, 1, o.val, true, nil
	case opInd:
		return o.reg, 2, 0, false, nil
	case opIndInc:
		return o.reg, 3, 0, false, nil
	case opAbs:
		return SR, 1, o.val, true, nil
	case opImm:
		// Constant generator shortcuts.
		switch int16(o.val) {
		case 0:
			return CG, 0, 0, false, nil
		case 1:
			return CG, 1, 0, false, nil
		case 2:
			return CG, 2, 0, false, nil
		case -1:
			return CG, 3, 0, false, nil
		case 4:
			return SR, 2, 0, false, nil
		case 8:
			return SR, 3, 0, false, nil
		}
		return PC, 3, o.val, true, nil
	case opImmLabel:
		return PC, 3, 0, true, nil // patched at assembly
	}
	return 0, 0, 0, false, fmt.Errorf("msp430: bad source operand kind %d", o.kind)
}

// dstEncoding returns (regField, adBit, extraWord, hasExtra).
func (o Operand) dstEncoding() (int, int, uint16, bool, error) {
	switch o.kind {
	case opReg:
		return o.reg, 0, 0, false, nil
	case opIdx:
		return o.reg, 1, o.val, true, nil
	case opAbs:
		return SR, 1, o.val, true, nil
	}
	return 0, 0, 0, false, fmt.Errorf("msp430: operand kind %d invalid as destination", o.kind)
}

type fixup struct {
	wordIdx int
	label   string
	kind    fixKind
}

type fixKind int

const (
	fixAbsolute fixKind = iota // write the label's absolute address
	fixJump                    // patch a 10-bit jump offset
)

// Program is an in-memory assembler. Instructions are emitted through
// typed methods; labels resolve at Assemble time.
type Program struct {
	org    uint16
	words  []uint16
	labels map[string]uint16
	fixups []fixup
	err    error
}

// NewProgram starts a program assembled at origin org.
func NewProgram(org uint16) *Program {
	return &Program{org: org, labels: map[string]uint16{}}
}

// Err returns the first emission error, if any.
func (p *Program) Err() error { return p.err }

func (p *Program) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// here returns the current assembly address.
func (p *Program) here() uint16 { return p.org + uint16(2*len(p.words)) }

// Label defines a label at the current address.
func (p *Program) Label(name string) {
	if _, dup := p.labels[name]; dup {
		p.fail(fmt.Errorf("msp430: duplicate label %q", name))
		return
	}
	p.labels[name] = p.here()
}

// Word emits a raw data word.
func (p *Program) Word(v uint16) { p.words = append(p.words, v) }

// twoOp emits a format-I instruction.
func (p *Program) twoOp(opcode uint16, src, dst Operand, byteOp bool) {
	sReg, as, sExtra, sHas, err := src.srcEncoding()
	if err != nil {
		p.fail(err)
		return
	}
	dReg, ad, dExtra, dHas, err := dst.dstEncoding()
	if err != nil {
		p.fail(err)
		return
	}
	w := opcode<<12 | uint16(sReg)<<8 | uint16(ad)<<7 | uint16(as)<<4 | uint16(dReg)
	if byteOp {
		w |= 0x40
	}
	p.words = append(p.words, w)
	if sHas {
		if src.kind == opImmLabel {
			p.fixups = append(p.fixups, fixup{wordIdx: len(p.words), label: src.label, kind: fixAbsolute})
		}
		p.words = append(p.words, sExtra)
	}
	if dHas {
		p.words = append(p.words, dExtra)
	}
}

// Mov emits MOV src, dst.
func (p *Program) Mov(src, dst Operand) { p.twoOp(0x4, src, dst, false) }

// MovB emits MOV.B src, dst.
func (p *Program) MovB(src, dst Operand) { p.twoOp(0x4, src, dst, true) }

// Add emits ADD src, dst.
func (p *Program) Add(src, dst Operand) { p.twoOp(0x5, src, dst, false) }

// Addc emits ADDC src, dst.
func (p *Program) Addc(src, dst Operand) { p.twoOp(0x6, src, dst, false) }

// Subc emits SUBC src, dst.
func (p *Program) Subc(src, dst Operand) { p.twoOp(0x7, src, dst, false) }

// Sub emits SUB src, dst.
func (p *Program) Sub(src, dst Operand) { p.twoOp(0x8, src, dst, false) }

// Cmp emits CMP src, dst.
func (p *Program) Cmp(src, dst Operand) { p.twoOp(0x9, src, dst, false) }

// Bit emits BIT src, dst.
func (p *Program) Bit(src, dst Operand) { p.twoOp(0xB, src, dst, false) }

// Bic emits BIC src, dst.
func (p *Program) Bic(src, dst Operand) { p.twoOp(0xC, src, dst, false) }

// Bis emits BIS src, dst.
func (p *Program) Bis(src, dst Operand) { p.twoOp(0xD, src, dst, false) }

// Xor emits XOR src, dst.
func (p *Program) Xor(src, dst Operand) { p.twoOp(0xE, src, dst, false) }

// And emits AND src, dst.
func (p *Program) And(src, dst Operand) { p.twoOp(0xF, src, dst, false) }

// oneOp emits a format-II instruction.
func (p *Program) oneOp(opcode uint16, o Operand, byteOp bool) {
	reg, as, extra, has, err := o.srcEncoding()
	if err != nil {
		p.fail(err)
		return
	}
	w := 0x1000 | opcode<<7 | uint16(as)<<4 | uint16(reg)
	if byteOp {
		w |= 0x40
	}
	p.words = append(p.words, w)
	if has {
		if o.kind == opImmLabel {
			p.fixups = append(p.fixups, fixup{wordIdx: len(p.words), label: o.label, kind: fixAbsolute})
		}
		p.words = append(p.words, extra)
	}
}

// Rrc emits RRC (rotate right through carry).
func (p *Program) Rrc(o Operand) { p.oneOp(0, o, false) }

// Push emits PUSH.
func (p *Program) Push(o Operand) { p.oneOp(4, o, false) }

// CallLabel emits CALL #label.
func (p *Program) CallLabel(name string) { p.oneOp(5, ImmLabel(name), false) }

// Ret emits RET (MOV @SP+, PC).
func (p *Program) Ret() { p.Mov(IndInc(SP), Reg(PC)) }

// Reti emits RETI (return from interrupt: pop SR, pop PC).
func (p *Program) Reti() { p.Word(0x1300) }

// Pop emits POP dst (MOV @SP+, dst).
func (p *Program) Pop(dst Operand) { p.Mov(IndInc(SP), dst) }

// Clr emits CLR dst (MOV #0, dst).
func (p *Program) Clr(dst Operand) { p.Mov(Imm(0), dst) }

// Inc emits INC dst (ADD #1, dst).
func (p *Program) Inc(dst Operand) { p.Add(Imm(1), dst) }

// Dec emits DEC dst (SUB #1, dst).
func (p *Program) Dec(dst Operand) { p.Sub(Imm(1), dst) }

// Rla emits RLA dst (ADD dst, dst — arithmetic shift left).
func (p *Program) Rla(dst Operand) { p.Add(dst, dst) }

// Rlc emits RLC dst (ADDC dst, dst — rotate left through carry).
func (p *Program) Rlc(dst Operand) { p.Addc(dst, dst) }

// Tst emits TST dst (CMP #0, dst).
func (p *Program) Tst(dst Operand) { p.Cmp(Imm(0), dst) }

// jump emits a conditional jump to a label.
func (p *Program) jump(cond uint16, label string) {
	p.fixups = append(p.fixups, fixup{wordIdx: len(p.words), label: label, kind: fixJump})
	p.words = append(p.words, 0x2000|cond<<10)
}

// Jne jumps if the zero flag is clear.
func (p *Program) Jne(label string) { p.jump(0, label) }

// Jeq jumps if the zero flag is set.
func (p *Program) Jeq(label string) { p.jump(1, label) }

// Jge jumps if N xor V is clear (signed >=).
func (p *Program) Jge(label string) { p.jump(5, label) }

// Jl jumps if N xor V is set (signed <).
func (p *Program) Jl(label string) { p.jump(6, label) }

// Jmp jumps unconditionally.
func (p *Program) Jmp(label string) { p.jump(7, label) }

// Assemble resolves labels and returns the machine words.
func (p *Program) Assemble() ([]uint16, error) {
	if p.err != nil {
		return nil, p.err
	}
	out := make([]uint16, len(p.words))
	copy(out, p.words)
	for _, f := range p.fixups {
		target, ok := p.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("msp430: undefined label %q", f.label)
		}
		switch f.kind {
		case fixAbsolute:
			out[f.wordIdx] = target
		case fixJump:
			instrAddr := p.org + uint16(2*f.wordIdx)
			diff := int32(target) - int32(instrAddr) - 2
			if diff%2 != 0 {
				return nil, fmt.Errorf("msp430: odd jump distance to %q", f.label)
			}
			off := diff / 2
			if off < -512 || off > 511 {
				return nil, fmt.Errorf("msp430: jump to %q out of range (%d words)", f.label, off)
			}
			out[f.wordIdx] |= uint16(off) & 0x3FF
		}
	}
	return out, nil
}

// Org returns the program's origin address.
func (p *Program) Org() uint16 { return p.org }

// LabelAddr returns a resolved label address after emission.
func (p *Program) LabelAddr(name string) (uint16, error) {
	a, ok := p.labels[name]
	if !ok {
		return 0, fmt.Errorf("msp430: undefined label %q", name)
	}
	return a, nil
}
