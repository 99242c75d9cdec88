package msp430

import (
	"fmt"
	"math"
)

// This file contains the software noising routines of Section III-D:
// the Laplace mechanism implemented entirely in MSP430 assembly, in
// two precision flavours. The paper measured 4043 cycles for a
// 20-bit fixed-point software implementation and 1436 cycles for
// half-precision floating point, against 2-4 cycles for the DP-Box.
// These routines reproduce that three-orders-of-magnitude gap with
// the same algorithm structure: software Tausworthe URNG →
// normalization → table-interpolated logarithm → scale multiply →
// guard clamp.
//
// Memory map (word addresses):
//
//	0x0200 input x (signed, steps)
//	0x0202 input λ (unsigned, steps)
//	0x0204 window low bound  (lo − n_th, signed)
//	0x0206 window high bound (hi + n_th, signed)
//	0x0208 Tausworthe state s1 (lo, hi)
//	0x020C Tausworthe state s2 (lo, hi)
//	0x0210 Tausworthe state s3 (lo, hi)
//	0x0220 output y (signed, steps)
//
// The log tables live at 0x7000 (32-bit Q6.26 entries for the
// fixed-point routine) and 0x7400 (16-bit Q4.12 entries for the
// half-precision routine).

// Memory-map addresses shared by both routines.
const (
	AddrX      = 0x0200
	AddrLambda = 0x0202
	AddrLo     = 0x0204
	AddrHi     = 0x0206
	AddrSeed   = 0x0208 // 6 words
	AddrOut    = 0x0220

	addrScratch = 0x0230 // routine-private scratch words
	addrTable32 = 0x7000
	addrTable16 = 0x7400
)

// Scratch slots (word addresses).
const (
	scLnLo   = addrScratch + 0 // -ln(u) low word (Q6.26)
	scLnHi   = addrScratch + 2 // -ln(u) high word
	scSign   = addrScratch + 4 // noise sign (0 = +, 1 = -)
	scMagLo  = addrScratch + 6 // magnitude accumulator
	scMagHi  = addrScratch + 8
	scShifts = addrScratch + 10 // normalization shift count
)

// emitShl32 shifts the 32-bit pair (lo, hi) left by k bits.
func emitShl32(p *Program, lo, hi int, k int) {
	for k >= 16 {
		p.Mov(Reg(lo), Reg(hi))
		p.Clr(Reg(lo))
		k -= 16
	}
	for i := 0; i < k; i++ {
		p.Rla(Reg(lo))
		p.Rlc(Reg(hi))
	}
}

// emitShr32 shifts the 32-bit pair (lo, hi) right logically by k.
func emitShr32(p *Program, lo, hi int, k int) {
	for k >= 16 {
		p.Mov(Reg(hi), Reg(lo))
		p.Clr(Reg(hi))
		k -= 16
	}
	for i := 0; i < k; i++ {
		p.Bic(Imm(1), Reg(SR)) // clear carry
		p.Rrc(Reg(hi))
		p.Rrc(Reg(lo))
	}
}

// emitShr16 shifts a single register right logically by k bits.
func emitShr16(p *Program, reg int, k int) {
	for i := 0; i < k; i++ {
		p.Bic(Imm(1), Reg(SR))
		p.Rrc(Reg(reg))
	}
}

// emitTausComponent advances one 32-bit Tausworthe component at
// stateAddr: b = ((s << q) ^ s) >> r; s = ((s & mask) << t) ^ b.
// The new s is XORed into the running output in (R13, R14).
// Clobbers R6-R9.
func emitTausComponent(p *Program, stateAddr uint16, q, r, t int, maskLo uint16) {
	p.Mov(Abs(stateAddr), Reg(6))   // s lo
	p.Mov(Abs(stateAddr+2), Reg(7)) // s hi
	p.Mov(Reg(6), Reg(8))
	p.Mov(Reg(7), Reg(9))
	emitShl32(p, 8, 9, q)
	p.Xor(Reg(6), Reg(8))
	p.Xor(Reg(7), Reg(9))
	emitShr32(p, 8, 9, r)
	p.And(Imm(int(int16(maskLo))), Reg(6))
	emitShl32(p, 6, 7, t)
	p.Xor(Reg(8), Reg(6))
	p.Xor(Reg(9), Reg(7))
	p.Mov(Reg(6), Abs(stateAddr))
	p.Mov(Reg(7), Abs(stateAddr+2))
	p.Xor(Reg(6), Reg(13))
	p.Xor(Reg(7), Reg(14))
}

// emitTaus88 emits the full three-component Taus88 step leaving the
// 32-bit output in (R13, R14).
func emitTaus88(p *Program) {
	p.Clr(Reg(13))
	p.Clr(Reg(14))
	emitTausComponent(p, AddrSeed, 13, 19, 12, 0xFFFE)
	emitTausComponent(p, AddrSeed+4, 2, 25, 4, 0xFFF8)
	emitTausComponent(p, AddrSeed+8, 3, 11, 17, 0xFFF0)
}

// emitMul16 emits the shared unsigned 16x16 -> 32 multiply
// subroutine: operands in R10, R11; product in (R6 lo, R7 hi).
// Clobbers R5, R8, R9, R11.
func emitMul16(p *Program) {
	p.Label("mul16")
	p.Clr(Reg(6))
	p.Clr(Reg(7))
	p.Mov(Reg(10), Reg(8))
	p.Clr(Reg(9))
	p.Label("mul16_loop")
	p.Tst(Reg(11))
	p.Jeq("mul16_done")
	p.Bit(Imm(1), Reg(11))
	p.Jeq("mul16_skip")
	p.Add(Reg(8), Reg(6))
	p.Addc(Reg(9), Reg(7))
	p.Label("mul16_skip")
	p.Rla(Reg(8))
	p.Rlc(Reg(9))
	p.Bic(Imm(1), Reg(SR))
	p.Rrc(Reg(11))
	p.Jmp("mul16_loop")
	p.Label("mul16_done")
	p.Ret()
}

// ln2Q26 is ln 2 in Q6.26.
var ln2Q26 = uint32(math.Round(math.Ln2 * (1 << 26)))

// BuildFixedPointNoising assembles the 20-bit fixed-point software
// noising routine ("FxP20"): Q6.26 logarithm from a 64-segment
// linearly interpolated table, a 17-bit uniform draw from a software
// Taus88, and a 48-bit scale multiply — the precision the paper's
// 4043-cycle figure refers to.
func BuildFixedPointNoising() (*Program, error) {
	p := NewProgram(0x4000)

	p.Label("noise_fxp")
	emitTaus88(p)

	// Sign from bit 15 of the high word.
	p.Clr(Reg(12))
	p.Bit(Imm(0x8000), Reg(14))
	p.Jeq("sign_done")
	p.Mov(Imm(1), Reg(12))
	p.Label("sign_done")
	p.Mov(Reg(12), Abs(scSign))

	// m = u & (2^17 - 1): R13 low 16 bits, R14 keeps bit 16.
	p.And(Imm(1), Reg(14))

	// m == 0 means u = 1 -> -ln(u) = 0 -> zero noise.
	p.Tst(Reg(14))
	p.Jne("normalize")
	p.Tst(Reg(13))
	p.Jne("normalize")
	p.Clr(Abs(scMagLo))
	p.Clr(Abs(scMagHi))
	p.Jmp("apply")

	// Normalize m to 1.f * 2^16: count left shifts until bit 16 set.
	p.Label("normalize")
	p.Clr(Reg(15)) // shift count s
	p.Label("norm_loop")
	p.Bit(Imm(1), Reg(14))
	p.Jne("norm_done")
	p.Rla(Reg(13))
	p.Rlc(Reg(14))
	p.Inc(Reg(15))
	p.Jmp("norm_loop")
	p.Label("norm_done")
	p.Mov(Reg(15), Abs(scShifts))

	// -ln(u) = (1+s)*ln2 - ln(1.f), all Q6.26.
	// Segment index: top 6 bits of the 16 fraction bits in R13.
	p.Mov(Reg(13), Reg(10))
	emitShr16(p, 10, 10) // R10 = top 6 bits (0..63)
	// Table byte offset = idx*4 (32-bit entries).
	p.Rla(Reg(10))
	p.Rla(Reg(10)) // idx*4
	p.Mov(Imm(addrTable32), Reg(9))
	p.Add(Reg(10), Reg(9)) // entry address

	// frac10 = low 10 bits of R13.
	p.Mov(Reg(13), Reg(11))
	p.And(Imm(0x03FF), Reg(11))

	// diff = T[idx+1] - T[idx] (fits in 21 bits; Q6.26).
	p.Mov(Idx(4, 9), Reg(6)) // next lo
	p.Mov(Idx(6, 9), Reg(7)) // next hi
	p.Sub(Ind(9), Reg(6))
	p.Subc(Idx(2, 9), Reg(7))
	// interp = diff * frac10 >> 10. diff fits 21 bits: split as
	// lo word (R6) and hi word (R7 <= 0x1F).
	p.Push(Reg(9))         // save entry address
	p.Mov(Reg(6), Reg(10)) // diff lo
	p.Push(Reg(7))         // save diff hi
	p.Push(Reg(11))        // save frac
	p.CallLabel("mul16")   // (diff_lo * frac) in R6:R7
	p.Mov(Reg(6), Abs(scLnLo))
	p.Mov(Reg(7), Abs(scLnHi))
	p.Pop(Reg(11))       // frac
	p.Pop(Reg(10))       // diff hi
	p.CallLabel("mul16") // diff_hi * frac (fits 16 bits in R6)
	// total = (scLn) + (R6 << 16); then >> 10.
	p.Add(Reg(6), Abs(scLnHi))
	p.Mov(Abs(scLnLo), Reg(6))
	p.Mov(Abs(scLnHi), Reg(7))
	emitShr32(p, 6, 7, 10)
	// lnw = T[idx] + interp.
	p.Pop(Reg(9))
	p.Add(Ind(9), Reg(6))
	p.Addc(Idx(2, 9), Reg(7))
	// R6:R7 = ln(1.f) in Q6.26.

	// acc = (1+s)*ln2 via repeated 32-bit add.
	p.Clr(Abs(scLnLo))
	p.Clr(Abs(scLnHi))
	p.Mov(Abs(scShifts), Reg(15))
	p.Inc(Reg(15))
	p.Label("ln2_loop")
	p.Add(Imm(int(int16(uint16(ln2Q26&0xFFFF)))), Abs(scLnLo))
	p.Addc(Imm(int(int16(uint16(ln2Q26>>16)))), Abs(scLnHi))
	p.Dec(Reg(15))
	p.Jne("ln2_loop")
	// -ln(u) = acc - lnw.
	p.Sub(Reg(6), Abs(scLnLo))
	p.Subc(Reg(7), Abs(scLnHi))

	// magnitude = (lambda * -ln(u)) >> 26, rounded.
	// lambda*L and lambda*H partial products.
	p.Mov(Abs(AddrLambda), Reg(10))
	p.Mov(Abs(scLnHi), Reg(11))
	p.Push(Reg(10))
	p.CallLabel("mul16") // lambda*H -> R6:R7, contributes >> 10
	p.Mov(Reg(6), Abs(scMagLo))
	p.Mov(Reg(7), Abs(scMagHi))
	p.Pop(Reg(10))
	p.Mov(Abs(scLnLo), Reg(11))
	p.CallLabel("mul16") // lambda*L -> contributes >> 26; keep hi>>10
	emitShr32(p, 6, 7, 16)
	p.Add(Reg(6), Abs(scMagLo))
	p.Addc(Imm(0), Abs(scMagHi))
	// Now scMag = lambda * -ln(u) in Q?.10 (after the >>16 merge);
	// shift right 10 with rounding: add 1<<9 first.
	p.Mov(Abs(scMagLo), Reg(6))
	p.Mov(Abs(scMagHi), Reg(7))
	p.Add(Imm(0x0200), Reg(6))
	p.Addc(Imm(0), Reg(7))
	emitShr32(p, 6, 7, 10)
	p.Mov(Reg(6), Abs(scMagLo)) // magnitude in steps (16 bits enough)

	// apply: y = x ± mag, clamp to [window lo, window hi].
	p.Label("apply")
	p.Mov(Abs(AddrX), Reg(4))
	p.Mov(Abs(scMagLo), Reg(6))
	p.Tst(Abs(scSign))
	p.Jeq("positive")
	p.Sub(Reg(6), Reg(4))
	p.Jmp("clamp")
	p.Label("positive")
	p.Add(Reg(6), Reg(4))
	p.Label("clamp")
	p.Cmp(Abs(AddrLo), Reg(4)) // R4 - lo
	p.Jge("clamp_hi")
	p.Mov(Abs(AddrLo), Reg(4))
	p.Label("clamp_hi")
	p.Cmp(Reg(4), Abs(AddrHi)) // hi - R4
	p.Jge("store")
	p.Mov(Abs(AddrHi), Reg(4))
	p.Label("store")
	p.Mov(Reg(4), Abs(AddrOut))
	p.Ret()

	emitMul16(p)

	if p.Err() != nil {
		return nil, p.Err()
	}
	return p, nil
}

// BuildHalfPrecisionNoising assembles the reduced-precision software
// routine ("F16"): an 11-bit uniform draw from a single Tausworthe
// component, a 32-segment Q4.12 log table with 5-bit interpolation
// and a single 16x16 scale multiply — the cheaper software path whose
// 1436-cycle figure the paper contrasts with fixed point.
func BuildHalfPrecisionNoising() (*Program, error) {
	p := NewProgram(0x4000)

	p.Label("noise_f16")
	// One Tausworthe component only.
	p.Clr(Reg(13))
	p.Clr(Reg(14))
	emitTausComponent(p, AddrSeed, 13, 19, 12, 0xFFFE)

	// Sign from bit 15 of the high word.
	p.Clr(Reg(12))
	p.Bit(Imm(0x8000), Reg(14))
	p.Jeq("sign_done")
	p.Mov(Imm(1), Reg(12))
	p.Label("sign_done")
	p.Mov(Reg(12), Abs(scSign))

	// m = u & (2^11 - 1), held entirely in R13.
	p.And(Imm(0x07FF), Reg(13))
	p.Tst(Reg(13))
	p.Jne("normalize")
	p.Clr(Abs(scMagLo))
	p.Jmp("apply")

	// Normalize m to 1.f * 2^10 (bit 10 set): count shifts.
	p.Label("normalize")
	p.Clr(Reg(15))
	p.Label("norm_loop")
	p.Bit(Imm(0x0400), Reg(13))
	p.Jne("norm_done")
	p.Rla(Reg(13))
	p.Inc(Reg(15))
	p.Jmp("norm_loop")
	p.Label("norm_done")

	// fraction f = low 10 bits; segment = top 5, interp = low 5.
	p.And(Imm(0x03FF), Reg(13))
	p.Mov(Reg(13), Reg(10))
	emitShr16(p, 10, 5) // top 5 bits -> idx
	p.Rla(Reg(10))      // idx*2 (word table)
	p.Mov(Imm(addrTable16), Reg(9))
	p.Add(Reg(10), Reg(9))
	p.Mov(Reg(13), Reg(11))
	p.And(Imm(0x001F), Reg(11)) // interp bits

	// diff * interp >> 5 (diff < 2^7: product fits a word).
	p.Mov(Idx(2, 9), Reg(10))
	p.Sub(Ind(9), Reg(10))
	p.Push(Reg(9))
	p.CallLabel("mul16")
	p.Pop(Reg(9))
	emitShr32(p, 6, 7, 5)
	p.Add(Ind(9), Reg(6)) // lnw Q4.12 in R6

	// -ln(u) = (1+s)*ln2 - lnw, Q4.12 single word.
	ln2Q12 := int(math.Round(math.Ln2 * (1 << 12)))
	p.Clr(Reg(7))
	p.Inc(Reg(15))
	p.Label("ln2_loop")
	p.Add(Imm(ln2Q12), Reg(7))
	p.Dec(Reg(15))
	p.Jne("ln2_loop")
	p.Sub(Reg(6), Reg(7))

	// magnitude = (lambda * -ln(u) + 1<<11) >> 12.
	p.Mov(Abs(AddrLambda), Reg(10))
	p.Mov(Reg(7), Reg(11))
	p.CallLabel("mul16")
	p.Add(Imm(0x0800), Reg(6))
	p.Addc(Imm(0), Reg(7))
	emitShr32(p, 6, 7, 12)
	p.Mov(Reg(6), Abs(scMagLo))

	// apply: identical guard to the fixed-point routine.
	p.Label("apply")
	p.Mov(Abs(AddrX), Reg(4))
	p.Mov(Abs(scMagLo), Reg(6))
	p.Tst(Abs(scSign))
	p.Jeq("positive")
	p.Sub(Reg(6), Reg(4))
	p.Jmp("clamp")
	p.Label("positive")
	p.Add(Reg(6), Reg(4))
	p.Label("clamp")
	p.Cmp(Abs(AddrLo), Reg(4))
	p.Jge("clamp_hi")
	p.Mov(Abs(AddrLo), Reg(4))
	p.Label("clamp_hi")
	p.Cmp(Reg(4), Abs(AddrHi))
	p.Jge("store")
	p.Mov(Abs(AddrHi), Reg(4))
	p.Label("store")
	p.Mov(Reg(4), Abs(AddrOut))
	p.Ret()

	emitMul16(p)

	if p.Err() != nil {
		return nil, p.Err()
	}
	return p, nil
}

// Budget-update routine memory map (extends the shared map above).
const (
	AddrBudget = 0x0240 // remaining budget, sixteenth-nat units
	AddrSeg1   = 0x0242 // first segment boundary offset (steps)
	AddrSeg2   = 0x0244 // second segment boundary offset (steps)
	AddrChg0   = 0x0246 // in-range charge (units)
	AddrChg1   = 0x0248 // first-band charge
	AddrChg2   = 0x024A // top charge
	AddrRngLo  = 0x024C // sensor range lower bound (steps)
	AddrRngHi  = 0x024E // sensor range upper bound (steps)
)

// BuildBudgetUpdate assembles the software version of Algorithm 1's
// per-request bookkeeping: classify the raw noised output (AddrOut)
// into in-range / first band / beyond, subtract the band's charge
// from the budget word, saturating at zero. The paper's software
// latencies exclude this step ("without any budget update
// computation"); this routine measures what it would add.
func BuildBudgetUpdate() (*Program, error) {
	p := NewProgram(0x6000)
	p.Label("budget_update")
	p.Mov(Abs(AddrOut), Reg(4)) // y
	// offset = distance beyond [lo, hi]; 0 if inside.
	p.Clr(Reg(5))
	p.Cmp(Abs(AddrRngLo), Reg(4)) // y - lo
	p.Jge("check_hi")
	p.Mov(Abs(AddrRngLo), Reg(5))
	p.Sub(Reg(4), Reg(5)) // lo - y
	p.Jmp("classify")
	p.Label("check_hi")
	p.Cmp(Reg(4), Abs(AddrRngHi)) // hi - y
	p.Jge("classify")             // inside: offset stays 0
	p.Mov(Reg(4), Reg(5))
	p.Sub(Abs(AddrRngHi), Reg(5)) // y - hi
	p.Label("classify")
	p.Tst(Reg(5))
	p.Jne("outside")
	p.Mov(Abs(AddrChg0), Reg(6))
	p.Jmp("charge")
	p.Label("outside")
	p.Cmp(Abs(AddrSeg1), Reg(5)) // offset - seg1
	p.Jge("band2")
	p.Mov(Abs(AddrChg1), Reg(6))
	p.Jmp("charge")
	p.Label("band2")
	p.Mov(Abs(AddrChg2), Reg(6))
	p.Cmp(Abs(AddrSeg2), Reg(5)) // offset - seg2
	p.Jl("charge")
	// Beyond the last band: Algorithm 1 clamps the output to the
	// window edge (y = M+n2 / m-n2) while charging the top band.
	p.Cmp(Abs(AddrRngHi), Reg(4)) // y - hi
	p.Jl("clamp_lo")
	p.Mov(Abs(AddrRngHi), Reg(4))
	p.Add(Abs(AddrSeg2), Reg(4))
	p.Jmp("clamp_store")
	p.Label("clamp_lo")
	p.Mov(Abs(AddrRngLo), Reg(4))
	p.Sub(Abs(AddrSeg2), Reg(4))
	p.Label("clamp_store")
	p.Mov(Reg(4), Abs(AddrOut))
	p.Label("charge")
	p.Mov(Abs(AddrBudget), Reg(7))
	p.Sub(Reg(6), Reg(7))
	p.Jge("store")
	p.Clr(Reg(7)) // saturate at zero
	p.Label("store")
	p.Mov(Reg(7), Abs(AddrBudget))
	p.Ret()
	if p.Err() != nil {
		return nil, p.Err()
	}
	return p, nil
}

// BudgetUpdater runs the software budget-update routine.
type BudgetUpdater struct {
	cpu   *CPU
	entry uint16
}

// NewBudgetUpdater assembles and loads the routine with the given
// band configuration (offsets in steps, charges in sixteenth-nats).
func NewBudgetUpdater(budget, seg1, seg2, chg0, chg1, chg2 uint16, rngLo, rngHi int16) (*BudgetUpdater, error) {
	prog, err := BuildBudgetUpdate()
	if err != nil {
		return nil, err
	}
	words, err := prog.Assemble()
	if err != nil {
		return nil, err
	}
	entry, err := prog.LabelAddr("budget_update")
	if err != nil {
		return nil, err
	}
	c := New()
	c.LoadWords(prog.Org(), words)
	c.WriteWord(AddrBudget, budget)
	c.WriteWord(AddrSeg1, seg1)
	c.WriteWord(AddrSeg2, seg2)
	c.WriteWord(AddrChg0, chg0)
	c.WriteWord(AddrChg1, chg1)
	c.WriteWord(AddrChg2, chg2)
	c.WriteWord(AddrRngLo, uint16(rngLo))
	c.WriteWord(AddrRngHi, uint16(rngHi))
	return &BudgetUpdater{cpu: c, entry: entry}, nil
}

// Update charges the budget for the noised output y and returns the
// remaining budget and the cycle cost.
func (b *BudgetUpdater) Update(y int16) (uint16, uint64, error) {
	b.cpu.WriteWord(AddrOut, uint16(y))
	b.cpu.Instrs = 0
	cycles, err := b.cpu.Call(b.entry, 10_000)
	if err != nil {
		return 0, 0, err
	}
	return b.cpu.ReadWord(AddrBudget), cycles, nil
}

// lnTable32 builds the Q6.26 table of ln(1 + i/64), i = 0..64, as
// (lo, hi) word pairs.
func lnTable32() []uint16 {
	out := make([]uint16, 0, 130)
	for i := 0; i <= 64; i++ {
		v := uint32(math.Round(math.Log(1+float64(i)/64) * (1 << 26)))
		out = append(out, uint16(v), uint16(v>>16))
	}
	return out
}

// lnTable16 builds the Q4.12 table of ln(1 + i/32), i = 0..32.
func lnTable16() []uint16 {
	out := make([]uint16, 0, 33)
	for i := 0; i <= 32; i++ {
		out = append(out, uint16(math.Round(math.Log(1+float64(i)/32)*(1<<12))))
	}
	return out
}

// Precision selects a software noising flavour.
type Precision int

const (
	// FixedPoint20 is the 20-bit fixed-point routine.
	FixedPoint20 Precision = iota
	// HalfPrecision is the reduced-precision routine.
	HalfPrecision
)

// String implements fmt.Stringer.
func (pr Precision) String() string {
	if pr == HalfPrecision {
		return "half-precision"
	}
	return "fixed-point-20"
}

// SoftNoiser runs a software noising routine on an emulated MSP430.
type SoftNoiser struct {
	cpu   *CPU
	entry uint16
}

// NewSoftNoiser assembles and loads the routine for the given
// precision, seeding the software Tausworthe state.
func NewSoftNoiser(prec Precision, seed uint64) (*SoftNoiser, error) {
	var prog *Program
	var err error
	switch prec {
	case FixedPoint20:
		prog, err = BuildFixedPointNoising()
	case HalfPrecision:
		prog, err = BuildHalfPrecisionNoising()
	default:
		return nil, fmt.Errorf("msp430: unknown precision %d", prec)
	}
	if err != nil {
		return nil, err
	}
	words, err := prog.Assemble()
	if err != nil {
		return nil, err
	}
	entry, err := prog.LabelAddr(entryLabel(prec))
	if err != nil {
		return nil, err
	}
	c := New()
	c.LoadWords(prog.Org(), words)
	c.LoadWords(addrTable32, lnTable32())
	c.LoadWords(addrTable16, lnTable16())
	// Seed the three Tausworthe components with the component
	// minimums enforced.
	s0 := uint32(seed)*2654435761 + 7
	s1 := uint32(seed>>16)*2246822519 + 11
	s2 := uint32(seed>>32)*3266489917 + 19
	if s0 < 2 {
		s0 += 2
	}
	if s1 < 8 {
		s1 += 8
	}
	if s2 < 16 {
		s2 += 16
	}
	c.WriteWord(AddrSeed, uint16(s0))
	c.WriteWord(AddrSeed+2, uint16(s0>>16))
	c.WriteWord(AddrSeed+4, uint16(s1))
	c.WriteWord(AddrSeed+6, uint16(s1>>16))
	c.WriteWord(AddrSeed+8, uint16(s2))
	c.WriteWord(AddrSeed+10, uint16(s2>>16))
	return &SoftNoiser{cpu: c, entry: entry}, nil
}

func entryLabel(prec Precision) string {
	if prec == HalfPrecision {
		return "noise_f16"
	}
	return "noise_fxp"
}

// Noise runs one software noising transaction: noise x (in steps)
// with scale lambda (steps), clamping the result to [lo, hi]. It
// returns the noised value and the cycle count of the routine.
func (s *SoftNoiser) Noise(x int16, lambda uint16, lo, hi int16) (int16, uint64, error) {
	s.cpu.WriteWord(AddrX, uint16(x))
	s.cpu.WriteWord(AddrLambda, lambda)
	s.cpu.WriteWord(AddrLo, uint16(lo))
	s.cpu.WriteWord(AddrHi, uint16(hi))
	s.cpu.Instrs = 0
	cycles, err := s.cpu.Call(s.entry, 2_000_000)
	if err != nil {
		return 0, 0, err
	}
	return int16(s.cpu.ReadWord(AddrOut)), cycles, nil
}
