package arch

import "fmt"

// Instruction is a decoded GA32 instruction. Which fields are meaningful
// depends on Op.Format(); Validate checks the combination.
type Instruction struct {
	Op   Opcode
	Rd   Reg   // destination (or status register for STREX)
	Rn   Reg   // first source / base address
	Rm   Reg   // second source / store value
	Imm  int32 // immediate: imm12 (0..4095) or imm16 (0..65535)
	Cond Cond  // condition for B
	Off  int32 // signed word offset for B (±2^19) and BL (±2^23)
}

// Field layout constants.
const (
	immMask12 = 0xfff
	immMask16 = 0xffff
	off20Bits = 20
	off24Bits = 24
)

// MaxOff20 and friends bound the branch offsets (in words).
const (
	MaxOff20 = 1<<(off20Bits-1) - 1
	MinOff20 = -(1 << (off20Bits - 1))
	MaxOff24 = 1<<(off24Bits-1) - 1
	MinOff24 = -(1 << (off24Bits - 1))
)

// Validate reports whether the instruction's operands fit its format.
func (i Instruction) Validate() error {
	_, err := i.EncodeChecked()
	return err
}

// Encode packs the instruction into its 32-bit GA32 encoding.
// The instruction must be valid; Encode panics otherwise (callers that
// handle untrusted input should Validate first, or use EncodeChecked).
func (i Instruction) Encode() uint32 {
	w, err := i.EncodeChecked()
	if err != nil {
		panic(err)
	}
	return w
}

// EncodeChecked checks the instruction's operands against its format and
// packs it, in one pass: the encoding, or the error Validate reports.
func (i Instruction) EncodeChecked() (uint32, error) {
	if !i.Op.Valid() {
		return 0, fmt.Errorf("arch: invalid opcode %d", uint8(i.Op))
	}
	w := uint32(i.Op) << 24
	switch i.Op.Format() {
	case Fmt3R, FmtMemR:
		if err := i.checkRegs(true, true, true); err != nil {
			return 0, err
		}
		w |= uint32(i.Rd)<<20 | uint32(i.Rn)<<16 | uint32(i.Rm)<<12
	case Fmt2RI, FmtMem:
		if err := i.checkRegs(true, true, false); err != nil {
			return 0, err
		}
		if err := i.checkImm12(); err != nil {
			return 0, err
		}
		w |= uint32(i.Rd)<<20 | uint32(i.Rn)<<16 | uint32(i.Imm)&immMask12
	case Fmt2R:
		if err := i.checkRegs(true, false, true); err != nil {
			return 0, err
		}
		w |= uint32(i.Rd)<<20 | uint32(i.Rm)<<12
	case FmtRI16:
		if err := i.checkRegs(true, false, false); err != nil {
			return 0, err
		}
		if i.Imm < 0 || i.Imm > immMask16 {
			return 0, fmt.Errorf("arch: %s: imm16 out of range: %d", i.Op, i.Imm)
		}
		w |= uint32(i.Rd)<<20 | uint32(i.Imm)&immMask16
	case FmtRI12:
		if err := i.checkRegs(true, false, false); err != nil {
			return 0, err
		}
		if err := i.checkImm12(); err != nil {
			return 0, err
		}
		w |= uint32(i.Rd)<<20 | uint32(i.Imm)&immMask12
	case FmtCmpR:
		if err := i.checkRegs(false, true, true); err != nil {
			return 0, err
		}
		w |= uint32(i.Rn)<<16 | uint32(i.Rm)<<12
	case FmtCmpI:
		if err := i.checkRegs(false, true, false); err != nil {
			return 0, err
		}
		if err := i.checkImm12(); err != nil {
			return 0, err
		}
		w |= uint32(i.Rn)<<16 | uint32(i.Imm)&immMask12
	case FmtEx:
		if err := i.checkRegs(true, true, i.Op == STREX); err != nil {
			return 0, err
		}
		w |= uint32(i.Rd)<<20 | uint32(i.Rn)<<16 | uint32(i.Rm)<<12
	case FmtB:
		if !i.Cond.Valid() {
			return 0, fmt.Errorf("arch: b: invalid condition %d", uint8(i.Cond))
		}
		if i.Off < MinOff20 || i.Off > MaxOff20 {
			return 0, fmt.Errorf("arch: b: offset out of range: %d", i.Off)
		}
		w |= uint32(i.Cond)<<20 | uint32(i.Off)&((1<<off20Bits)-1)
	case FmtBL:
		if i.Off < MinOff24 || i.Off > MaxOff24 {
			return 0, fmt.Errorf("arch: bl: offset out of range: %d", i.Off)
		}
		w |= uint32(i.Off) & ((1 << off24Bits) - 1)
	case FmtBX:
		if err := i.checkRegs(false, false, true); err != nil {
			return 0, err
		}
		w |= uint32(i.Rm) << 12
	case FmtSVC:
		if i.Imm < 0 || i.Imm > immMask12 {
			return 0, fmt.Errorf("arch: svc: number out of range: %d", i.Imm)
		}
		w |= uint32(i.Imm) & immMask12
	case FmtNone:
		// no operands
	}
	return w, nil
}

// checkRegs checks the register fields the format uses, in the order
// rd, rn, rm.
func (i Instruction) checkRegs(rd, rn, rm bool) error {
	switch {
	case rd && !i.Rd.Valid():
		return fmt.Errorf("arch: %s: invalid rd register %d", i.Op, uint8(i.Rd))
	case rn && !i.Rn.Valid():
		return fmt.Errorf("arch: %s: invalid rn register %d", i.Op, uint8(i.Rn))
	case rm && !i.Rm.Valid():
		return fmt.Errorf("arch: %s: invalid rm register %d", i.Op, uint8(i.Rm))
	}
	return nil
}

func (i Instruction) checkImm12() error {
	if i.Imm < 0 || i.Imm > immMask12 {
		return fmt.Errorf("arch: %s: imm12 out of range: %d", i.Op, i.Imm)
	}
	return nil
}

// Decode unpacks a 32-bit GA32 encoding. What it returns always passes
// Validate, by construction rather than by a check: every register and
// immediate field is masked to its legal range, branch offsets are
// sign-extended from exactly their field width, and the two values a field
// can hold that name nothing — an undefined opcode and branch condition 15
// — are rejected where they are extracted. FuzzDecode holds it to that.
func Decode(w uint32) (Instruction, error) {
	op := Opcode(w >> 24)
	if !op.Valid() {
		return Instruction{}, fmt.Errorf("arch: undefined opcode byte %#02x in %#08x", uint8(op), w)
	}
	i := Instruction{Op: op}
	switch op.Format() {
	case Fmt3R, FmtMemR, FmtEx:
		i.Rd = Reg(w >> 20 & 0xf)
		i.Rn = Reg(w >> 16 & 0xf)
		i.Rm = Reg(w >> 12 & 0xf)
	case Fmt2RI, FmtMem:
		i.Rd = Reg(w >> 20 & 0xf)
		i.Rn = Reg(w >> 16 & 0xf)
		i.Imm = int32(w & immMask12)
	case Fmt2R:
		i.Rd = Reg(w >> 20 & 0xf)
		i.Rm = Reg(w >> 12 & 0xf)
	case FmtRI16:
		i.Rd = Reg(w >> 20 & 0xf)
		i.Imm = int32(w & immMask16)
	case FmtRI12:
		i.Rd = Reg(w >> 20 & 0xf)
		i.Imm = int32(w & immMask12)
	case FmtCmpR:
		i.Rn = Reg(w >> 16 & 0xf)
		i.Rm = Reg(w >> 12 & 0xf)
	case FmtCmpI:
		i.Rn = Reg(w >> 16 & 0xf)
		i.Imm = int32(w & immMask12)
	case FmtB:
		cond := Cond(w >> 20 & 0xf)
		if !cond.Valid() {
			return Instruction{}, fmt.Errorf("arch: invalid branch condition %d in %#08x", uint8(cond), w)
		}
		i.Cond = cond
		i.Off = signExtend(w&((1<<off20Bits)-1), off20Bits)
	case FmtBL:
		i.Off = signExtend(w&((1<<off24Bits)-1), off24Bits)
	case FmtBX:
		i.Rm = Reg(w >> 12 & 0xf)
	case FmtSVC:
		i.Imm = int32(w & immMask12)
	case FmtNone:
		// nothing to decode
	}
	return i, nil
}

func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// BranchTarget computes the absolute target of a B/BL at address pc.
// GA32 branch semantics: target = pc + 4 + off*4.
func (i Instruction) BranchTarget(pc uint32) uint32 {
	return pc + InstrBytes + uint32(i.Off)*WordBytes
}

// OffsetFor computes the Off field that makes a branch at pc reach target.
func OffsetFor(pc, target uint32) int32 {
	return int32(target-pc-InstrBytes) / WordBytes
}

// String renders the instruction in GA32 assembly syntax.
func (i Instruction) String() string {
	switch i.Op.Format() {
	case Fmt3R:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rn, i.Rm)
	case Fmt2RI:
		return fmt.Sprintf("%s %s, %s, #%d", i.Op, i.Rd, i.Rn, i.Imm)
	case Fmt2R:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rm)
	case FmtRI16, FmtRI12:
		return fmt.Sprintf("%s %s, #%d", i.Op, i.Rd, i.Imm)
	case FmtCmpR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rn, i.Rm)
	case FmtCmpI:
		return fmt.Sprintf("%s %s, #%d", i.Op, i.Rn, i.Imm)
	case FmtMem:
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, i.Rd, i.Rn, i.Imm)
	case FmtMemR:
		return fmt.Sprintf("%s %s, [%s, %s]", i.Op, i.Rd, i.Rn, i.Rm)
	case FmtEx:
		if i.Op == STREX {
			return fmt.Sprintf("strex %s, %s, [%s]", i.Rd, i.Rm, i.Rn)
		}
		return fmt.Sprintf("ldrex %s, [%s]", i.Rd, i.Rn)
	case FmtB:
		if i.Cond == AL {
			return fmt.Sprintf("b %+d", i.Off)
		}
		return fmt.Sprintf("b%s %+d", i.Cond, i.Off)
	case FmtBL:
		return fmt.Sprintf("bl %+d", i.Off)
	case FmtBX:
		return fmt.Sprintf("bx %s", i.Rm)
	case FmtSVC:
		return fmt.Sprintf("svc #%d", i.Imm)
	default:
		return i.Op.String()
	}
}
