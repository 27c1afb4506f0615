package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{R0: "r0", R7: "r7", R12: "r12", SP: "sp", LR: "lr", PC: "pc"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
	if Reg(16).Valid() {
		t.Error("Reg(16) should be invalid")
	}
}

func TestCondTest(t *testing.T) {
	cases := []struct {
		f    Flags
		cond Cond
		want bool
	}{
		{Flags{Z: true}, EQ, true},
		{Flags{Z: false}, EQ, false},
		{Flags{Z: false}, NE, true},
		{Flags{C: true}, CS, true},
		{Flags{C: false}, CC, true},
		{Flags{N: true}, MI, true},
		{Flags{N: false}, PL, true},
		{Flags{V: true}, VS, true},
		{Flags{V: false}, VC, true},
		{Flags{C: true, Z: false}, HI, true},
		{Flags{C: true, Z: true}, HI, false},
		{Flags{C: false}, LS, true},
		{Flags{N: true, V: true}, GE, true},
		{Flags{N: true, V: false}, LT, true},
		{Flags{N: false, V: false, Z: false}, GT, true},
		{Flags{Z: true}, GT, false},
		{Flags{Z: true}, LE, true},
		{Flags{N: true, V: false}, LE, true},
		{Flags{}, AL, true},
		{Flags{N: true, Z: true, C: true, V: true}, AL, true},
	}
	for _, c := range cases {
		if got := c.f.Test(c.cond); got != c.want {
			t.Errorf("%+v.Test(%s) = %v, want %v", c.f, c.cond, got, c.want)
		}
	}
}

func TestFlagsPackRoundTrip(t *testing.T) {
	for w := uint32(0); w < 16; w++ {
		if got := UnpackFlags(w).Pack(); got != w {
			t.Errorf("UnpackFlags(%d).Pack() = %d", w, got)
		}
	}
}

func TestEncodeDecodeSpecific(t *testing.T) {
	cases := []Instruction{
		{Op: ADD, Rd: R0, Rn: R1, Rm: R2},
		{Op: SUBS, Rd: R3, Rn: R3, Rm: R4},
		{Op: ADDI, Rd: R5, Rn: R5, Imm: 4095},
		{Op: MOVI, Rd: R9, Imm: 0},
		{Op: MOVW, Rd: R1, Imm: 0xffff},
		{Op: MOVT, Rd: R1, Imm: 0x8000},
		{Op: MOV, Rd: R2, Rm: SP},
		{Op: MVN, Rd: R2, Rm: R0},
		{Op: CMP, Rn: R4, Rm: R5},
		{Op: CMPI, Rn: R4, Imm: 17},
		{Op: TST, Rn: R0, Rm: R0},
		{Op: LDR, Rd: R0, Rn: SP, Imm: 8},
		{Op: STR, Rd: R1, Rn: R2, Imm: 0},
		{Op: LDRB, Rd: R1, Rn: R2, Imm: 3},
		{Op: STRR, Rd: R1, Rn: R2, Rm: R3},
		{Op: LDREX, Rd: R0, Rn: R1},
		{Op: STREX, Rd: R2, Rn: R1, Rm: R0},
		{Op: CLREX},
		{Op: DMB},
		{Op: B, Cond: NE, Off: -1},
		{Op: B, Cond: AL, Off: MaxOff20},
		{Op: B, Cond: EQ, Off: MinOff20},
		{Op: BL, Off: MaxOff24},
		{Op: BL, Off: MinOff24},
		{Op: BX, Rm: LR},
		{Op: SVC, Imm: 42},
		{Op: HLT},
		{Op: NOP},
		{Op: YIELD},
	}
	for _, in := range cases {
		w := in.Encode()
		out, err := Decode(w)
		if err != nil {
			t.Errorf("Decode(Encode(%v)) error: %v", in, err)
			continue
		}
		if out != in {
			t.Errorf("round trip: encoded %v, decoded %v (word %#08x)", in, out, w)
		}
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	if _, err := Decode(0xff000000); err == nil {
		t.Error("Decode of undefined opcode byte should fail")
	}
}

func TestDecodeInvalidCond(t *testing.T) {
	// Opcode B with condition field 15 (beyond AL=14).
	w := uint32(B)<<24 | 15<<20
	if _, err := Decode(w); err == nil {
		t.Error("Decode of invalid branch condition should fail")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Instruction{
		{Op: NumOpcodes},
		{Op: ADDI, Rd: R0, Rn: R0, Imm: 4096},
		{Op: ADDI, Rd: R0, Rn: R0, Imm: -1},
		{Op: MOVW, Rd: R0, Imm: 0x10000},
		{Op: B, Cond: NumConds, Off: 0},
		{Op: B, Cond: AL, Off: MaxOff20 + 1},
		{Op: BL, Off: MinOff24 - 1},
		{Op: SVC, Imm: 5000},
		{Op: ADD, Rd: Reg(16), Rn: R0, Rm: R0},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", in)
		}
	}
}

// randomInstr builds a random valid instruction for property testing.
func randomInstr(r *rand.Rand) Instruction {
	op := Opcode(r.Intn(int(NumOpcodes)))
	in := Instruction{Op: op}
	reg := func() Reg { return Reg(r.Intn(NumRegs)) }
	switch op.Format() {
	case Fmt3R, FmtMemR, FmtEx:
		in.Rd, in.Rn, in.Rm = reg(), reg(), reg()
	case Fmt2RI, FmtMem:
		in.Rd, in.Rn, in.Imm = reg(), reg(), int32(r.Intn(4096))
	case Fmt2R:
		in.Rd, in.Rm = reg(), reg()
	case FmtRI16:
		in.Rd, in.Imm = reg(), int32(r.Intn(65536))
	case FmtRI12:
		in.Rd, in.Imm = reg(), int32(r.Intn(4096))
	case FmtCmpR:
		in.Rn, in.Rm = reg(), reg()
	case FmtCmpI:
		in.Rn, in.Imm = reg(), int32(r.Intn(4096))
	case FmtB:
		in.Cond = Cond(r.Intn(int(NumConds)))
		in.Off = int32(r.Intn(MaxOff20-MinOff20+1)) + MinOff20
	case FmtBL:
		in.Off = int32(r.Intn(MaxOff24-MinOff24+1)) + MinOff24
	case FmtBX:
		in.Rm = reg()
	case FmtSVC:
		in.Imm = int32(r.Intn(4096))
	}
	return in
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randomInstr(r)
		out, err := Decode(in.Encode())
		if err != nil {
			t.Logf("decode error for %v: %v", in, err)
			return false
		}
		// STREX aside, Rm of FmtEx LDREX is don't-care in semantics but we
		// preserve it bit-exactly, so plain equality must hold.
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(w uint32) bool {
		// Fold the opcode byte into range half the time, so most words get
		// past the opcode check to the field extraction.
		if w&1 == 0 {
			w = uint32(Opcode(w>>24)%NumOpcodes)<<24 | w&0xffffff
		}
		in, err := Decode(w)
		if err != nil {
			return true
		}
		// Anything that decodes must validate (Decode itself does not
		// check) and re-encode decodably.
		if err := in.Validate(); err != nil {
			t.Logf("decoded invalid instruction %v from %#08x: %v", in, w, err)
			return false
		}
		round, err := Decode(in.Encode())
		return err == nil && round == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestBranchTargetOffsetInverse(t *testing.T) {
	f := func(pcWords uint16, offRaw int32) bool {
		pc := uint32(pcWords) * 4
		off := offRaw % (MaxOff20 + 1)
		in := Instruction{Op: B, Cond: AL, Off: off}
		target := in.BranchTarget(pc)
		return OffsetFor(pc, target) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpcodeByName(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpcodeByName("bogus"); ok {
		t.Error("OpcodeByName should reject unknown mnemonics")
	}
}

func TestStoreLoadClassification(t *testing.T) {
	stores := []Opcode{STR, STRB, STRR, STRBR}
	for _, op := range stores {
		if !op.IsStore() {
			t.Errorf("%s should be classified as store", op)
		}
	}
	if STREX.IsStore() {
		t.Error("STREX must not be a regular store (it is the SC)")
	}
	loads := []Opcode{LDR, LDRB, LDRR, LDRBR}
	for _, op := range loads {
		if !op.IsLoad() {
			t.Errorf("%s should be classified as load", op)
		}
	}
	if LDREX.IsLoad() {
		t.Error("LDREX must not be a regular load (it is the LL)")
	}
}

func TestEndsBlock(t *testing.T) {
	enders := []Opcode{B, BL, BX, SVC, HLT, YIELD}
	for _, op := range enders {
		if !op.EndsBlock() {
			t.Errorf("%s should end a translation block", op)
		}
	}
	for _, op := range []Opcode{ADD, LDR, STREX, LDREX, DMB, CLREX} {
		if op.EndsBlock() {
			t.Errorf("%s should not end a translation block", op)
		}
	}
}

func TestDisassemblySamples(t *testing.T) {
	cases := map[string]Instruction{
		"add r0, r1, r2":     {Op: ADD, Rd: R0, Rn: R1, Rm: R2},
		"addi r5, r5, #12":   {Op: ADDI, Rd: R5, Rn: R5, Imm: 12},
		"ldr r0, [sp, #8]":   {Op: LDR, Rd: R0, Rn: SP, Imm: 8},
		"strex r2, r0, [r1]": {Op: STREX, Rd: R2, Rn: R1, Rm: R0},
		"ldrex r0, [r1]":     {Op: LDREX, Rd: R0, Rn: R1},
		"bne -1":             {Op: B, Cond: NE, Off: -1},
		"b +4":               {Op: B, Cond: AL, Off: 4},
		"bx lr":              {Op: BX, Rm: LR},
		"svc #3":             {Op: SVC, Imm: 3},
		"ldrr r1, [r2, r3]":  {Op: LDRR, Rd: R1, Rn: R2, Rm: R3},
		"movw r1, #65535":    {Op: MOVW, Rd: R1, Imm: 65535},
		"cmp r4, r5":         {Op: CMP, Rn: R4, Rm: R5},
		"mov r2, sp":         {Op: MOV, Rd: R2, Rm: SP},
		"hlt":                {Op: HLT},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", in, got, want)
		}
	}
}
