package asm

import (
	"fmt"
	"strconv"

	"atomemu/internal/arch"
)

// Builder is a programmatic macro-assembler for GA32. Methods append
// instructions or data at the current location; labels may be referenced
// before they are defined (fixed up at Finish). Errors are accumulated and
// reported once by Finish, so emission code stays linear.
type Builder struct {
	org    uint32
	words  []uint32
	labels map[string]uint32
	fixups []fixup
	errs   []error
	// gensym counter for unique local labels in macro helpers.
	gen int
}

type fixupKind uint8

const (
	fixB fixupKind = iota
	fixBL
	fixMOVWLo // movw rd, #lo16(label)
	fixMOVTHi // movt rd, #hi16(label)
	fixWord   // .word label
)

type fixup struct {
	index int // word index into words
	kind  fixupKind
	label string
}

// NewBuilder starts a builder whose first word will load at guest address org.
// org must be word-aligned.
func NewBuilder(org uint32) *Builder {
	b := &Builder{org: org, labels: make(map[string]uint32)}
	if org%arch.WordBytes != 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: org %#x not word-aligned", org))
	}
	return b
}

// PC returns the guest address of the next emitted word.
func (b *Builder) PC() uint32 { return b.org + uint32(len(b.words))*arch.WordBytes }

// Label defines name at the current location.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = b.PC()
}

// Gensym returns a fresh label name with the given prefix, for macro helpers
// that need internal branch targets.
func (b *Builder) Gensym(prefix string) string {
	b.gen++
	var buf [48]byte
	name := append(buf[:0], '.')
	name = append(name, prefix...)
	name = append(name, '.')
	return string(strconv.AppendInt(name, int64(b.gen), 10))
}

// Errf records a client-detected error to be reported by Finish.
func (b *Builder) Errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// emit checks and encodes in in one pass; an invalid instruction leaves a
// zero word and an error for Finish.
func (b *Builder) emit(in arch.Instruction) {
	w, err := in.EncodeChecked()
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("asm: at %#x: %w", b.PC(), err))
	}
	b.words = append(b.words, w)
}

// Raw emits a pre-built instruction.
func (b *Builder) Raw(in arch.Instruction) { b.emit(in) }

// Word emits a literal data word.
func (b *Builder) Word(v uint32) { b.words = append(b.words, v) }

// WordLabel emits a data word holding the address of label.
func (b *Builder) WordLabel(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.words), kind: fixWord, label: label})
	b.words = append(b.words, 0)
}

// Space emits n zero words.
func (b *Builder) Space(n int) {
	for i := 0; i < n; i++ {
		b.words = append(b.words, 0)
	}
}

// AlignWords pads with zero words until the location is a multiple of n words.
func (b *Builder) AlignWords(n int) {
	if n <= 0 {
		b.Errf("asm: AlignWords(%d)", n)
		return
	}
	for (b.PC()/arch.WordBytes)%uint32(n) != 0 {
		b.words = append(b.words, 0)
	}
}

// --- Three-register ALU ---

func (b *Builder) op3(op arch.Opcode, rd, rn, rm arch.Reg) {
	b.emit(arch.Instruction{Op: op, Rd: rd, Rn: rn, Rm: rm})
}

// Add emits rd = rn + rm.
func (b *Builder) Add(rd, rn, rm arch.Reg) { b.op3(arch.ADD, rd, rn, rm) }

// Sub emits rd = rn - rm.
func (b *Builder) Sub(rd, rn, rm arch.Reg) { b.op3(arch.SUB, rd, rn, rm) }

// Rsb emits rd = rm - rn.
func (b *Builder) Rsb(rd, rn, rm arch.Reg) { b.op3(arch.RSB, rd, rn, rm) }

// And emits rd = rn & rm.
func (b *Builder) And(rd, rn, rm arch.Reg) { b.op3(arch.AND, rd, rn, rm) }

// Orr emits rd = rn | rm.
func (b *Builder) Orr(rd, rn, rm arch.Reg) { b.op3(arch.ORR, rd, rn, rm) }

// Eor emits rd = rn ^ rm.
func (b *Builder) Eor(rd, rn, rm arch.Reg) { b.op3(arch.EOR, rd, rn, rm) }

// Mul emits rd = rn * rm.
func (b *Builder) Mul(rd, rn, rm arch.Reg) { b.op3(arch.MUL, rd, rn, rm) }

// Udiv emits rd = rn / rm (unsigned; x/0 = 0 as on ARM).
func (b *Builder) Udiv(rd, rn, rm arch.Reg) { b.op3(arch.UDIV, rd, rn, rm) }

// Sdiv emits rd = rn / rm (signed).
func (b *Builder) Sdiv(rd, rn, rm arch.Reg) { b.op3(arch.SDIV, rd, rn, rm) }

// Lsl emits rd = rn << (rm&31).
func (b *Builder) Lsl(rd, rn, rm arch.Reg) { b.op3(arch.LSL, rd, rn, rm) }

// Lsr emits rd = rn >> (rm&31) (logical).
func (b *Builder) Lsr(rd, rn, rm arch.Reg) { b.op3(arch.LSR, rd, rn, rm) }

// Asr emits rd = rn >> (rm&31) (arithmetic).
func (b *Builder) Asr(rd, rn, rm arch.Reg) { b.op3(arch.ASR, rd, rn, rm) }

// Adds emits rd = rn + rm, setting NZCV.
func (b *Builder) Adds(rd, rn, rm arch.Reg) { b.op3(arch.ADDS, rd, rn, rm) }

// Subs emits rd = rn - rm, setting NZCV.
func (b *Builder) Subs(rd, rn, rm arch.Reg) { b.op3(arch.SUBS, rd, rn, rm) }

// --- Register+immediate ALU ---

func (b *Builder) op2i(op arch.Opcode, rd, rn arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: op, Rd: rd, Rn: rn, Imm: imm})
}

// AddI emits rd = rn + imm12.
func (b *Builder) AddI(rd, rn arch.Reg, imm int32) { b.op2i(arch.ADDI, rd, rn, imm) }

// SubI emits rd = rn - imm12.
func (b *Builder) SubI(rd, rn arch.Reg, imm int32) { b.op2i(arch.SUBI, rd, rn, imm) }

// RsbI emits rd = imm12 - rn.
func (b *Builder) RsbI(rd, rn arch.Reg, imm int32) { b.op2i(arch.RSBI, rd, rn, imm) }

// AndI emits rd = rn & imm12.
func (b *Builder) AndI(rd, rn arch.Reg, imm int32) { b.op2i(arch.ANDI, rd, rn, imm) }

// OrrI emits rd = rn | imm12.
func (b *Builder) OrrI(rd, rn arch.Reg, imm int32) { b.op2i(arch.ORRI, rd, rn, imm) }

// EorI emits rd = rn ^ imm12.
func (b *Builder) EorI(rd, rn arch.Reg, imm int32) { b.op2i(arch.EORI, rd, rn, imm) }

// LslI emits rd = rn << imm.
func (b *Builder) LslI(rd, rn arch.Reg, imm int32) { b.op2i(arch.LSLI, rd, rn, imm) }

// LsrI emits rd = rn >> imm (logical).
func (b *Builder) LsrI(rd, rn arch.Reg, imm int32) { b.op2i(arch.LSRI, rd, rn, imm) }

// AsrI emits rd = rn >> imm (arithmetic).
func (b *Builder) AsrI(rd, rn arch.Reg, imm int32) { b.op2i(arch.ASRI, rd, rn, imm) }

// AddsI emits rd = rn + imm12, setting NZCV.
func (b *Builder) AddsI(rd, rn arch.Reg, imm int32) { b.op2i(arch.ADDSI, rd, rn, imm) }

// SubsI emits rd = rn - imm12, setting NZCV.
func (b *Builder) SubsI(rd, rn arch.Reg, imm int32) { b.op2i(arch.SUBSI, rd, rn, imm) }

// --- Moves and compares ---

// Mov emits rd = rm.
func (b *Builder) Mov(rd, rm arch.Reg) { b.emit(arch.Instruction{Op: arch.MOV, Rd: rd, Rm: rm}) }

// Mvn emits rd = ^rm.
func (b *Builder) Mvn(rd, rm arch.Reg) { b.emit(arch.Instruction{Op: arch.MVN, Rd: rd, Rm: rm}) }

// MovI emits rd = imm12.
func (b *Builder) MovI(rd arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.MOVI, Rd: rd, Imm: imm})
}

// MovW emits rd = imm16 (upper half cleared).
func (b *Builder) MovW(rd arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.MOVW, Rd: rd, Imm: imm})
}

// MovT emits rd = (rd & 0xffff) | imm16<<16.
func (b *Builder) MovT(rd arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.MOVT, Rd: rd, Imm: imm})
}

// MovImm32 loads an arbitrary 32-bit constant, using one instruction when
// it fits and a movw/movt pair otherwise.
func (b *Builder) MovImm32(rd arch.Reg, v uint32) {
	switch {
	case v < 0x1000:
		b.MovI(rd, int32(v))
	case v <= 0xffff:
		b.MovW(rd, int32(v))
	default:
		b.MovW(rd, int32(v&0xffff))
		b.MovT(rd, int32(v>>16))
	}
}

// LoadAddr loads the address of label into rd (movw/movt pair, fixed up at
// Finish).
func (b *Builder) LoadAddr(rd arch.Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.words), kind: fixMOVWLo, label: label})
	b.emit(arch.Instruction{Op: arch.MOVW, Rd: rd, Imm: 0})
	b.fixups = append(b.fixups, fixup{index: len(b.words), kind: fixMOVTHi, label: label})
	b.emit(arch.Instruction{Op: arch.MOVT, Rd: rd, Imm: 0})
}

// Cmp emits flags = rn - rm.
func (b *Builder) Cmp(rn, rm arch.Reg) { b.emit(arch.Instruction{Op: arch.CMP, Rn: rn, Rm: rm}) }

// CmpI emits flags = rn - imm12.
func (b *Builder) CmpI(rn arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.CMPI, Rn: rn, Imm: imm})
}

// Cmn emits flags = rn + rm.
func (b *Builder) Cmn(rn, rm arch.Reg) { b.emit(arch.Instruction{Op: arch.CMN, Rn: rn, Rm: rm}) }

// Tst emits flags = rn & rm.
func (b *Builder) Tst(rn, rm arch.Reg) { b.emit(arch.Instruction{Op: arch.TST, Rn: rn, Rm: rm}) }

// --- Memory ---

// Ldr emits rd = mem32[rn+imm].
func (b *Builder) Ldr(rd, rn arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.LDR, Rd: rd, Rn: rn, Imm: imm})
}

// Str emits mem32[rn+imm] = rd.
func (b *Builder) Str(rd, rn arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.STR, Rd: rd, Rn: rn, Imm: imm})
}

// Ldrb emits rd = mem8[rn+imm].
func (b *Builder) Ldrb(rd, rn arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.LDRB, Rd: rd, Rn: rn, Imm: imm})
}

// Strb emits mem8[rn+imm] = rd&0xff.
func (b *Builder) Strb(rd, rn arch.Reg, imm int32) {
	b.emit(arch.Instruction{Op: arch.STRB, Rd: rd, Rn: rn, Imm: imm})
}

// LdrR emits rd = mem32[rn+rm].
func (b *Builder) LdrR(rd, rn, rm arch.Reg) { b.op3(arch.LDRR, rd, rn, rm) }

// StrR emits mem32[rn+rm] = rd.
func (b *Builder) StrR(rd, rn, rm arch.Reg) { b.op3(arch.STRR, rd, rn, rm) }

// LdrbR emits rd = mem8[rn+rm].
func (b *Builder) LdrbR(rd, rn, rm arch.Reg) { b.op3(arch.LDRBR, rd, rn, rm) }

// StrbR emits mem8[rn+rm] = rd&0xff.
func (b *Builder) StrbR(rd, rn, rm arch.Reg) { b.op3(arch.STRBR, rd, rn, rm) }

// Ldrex emits rd = mem32[rn] and arms the exclusive monitor (the LL).
func (b *Builder) Ldrex(rd, rn arch.Reg) {
	b.emit(arch.Instruction{Op: arch.LDREX, Rd: rd, Rn: rn})
}

// Strex emits the SC: mem32[rn] = rm if the monitor holds; rd = 0 on
// success, 1 on failure.
func (b *Builder) Strex(rd, rm, rn arch.Reg) {
	b.emit(arch.Instruction{Op: arch.STREX, Rd: rd, Rn: rn, Rm: rm})
}

// Clrex clears the exclusive monitor.
func (b *Builder) Clrex() { b.emit(arch.Instruction{Op: arch.CLREX}) }

// Dmb emits a full memory barrier.
func (b *Builder) Dmb() { b.emit(arch.Instruction{Op: arch.DMB}) }

// --- Control flow ---

// B emits an unconditional branch to label.
func (b *Builder) B(label string) { b.BCond(arch.AL, label) }

// BCond emits a conditional branch to label.
func (b *Builder) BCond(cond arch.Cond, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.words), kind: fixB, label: label})
	b.emit(arch.Instruction{Op: arch.B, Cond: cond})
}

// Beq, Bne etc. are shorthands for the common conditions.
func (b *Builder) Beq(label string) { b.BCond(arch.EQ, label) }
func (b *Builder) Bne(label string) { b.BCond(arch.NE, label) }
func (b *Builder) Blt(label string) { b.BCond(arch.LT, label) }
func (b *Builder) Ble(label string) { b.BCond(arch.LE, label) }
func (b *Builder) Bgt(label string) { b.BCond(arch.GT, label) }
func (b *Builder) Bge(label string) { b.BCond(arch.GE, label) }
func (b *Builder) Bcs(label string) { b.BCond(arch.CS, label) }
func (b *Builder) Bcc(label string) { b.BCond(arch.CC, label) }

// BL emits a call to label (return address in LR).
func (b *Builder) BL(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.words), kind: fixBL, label: label})
	b.emit(arch.Instruction{Op: arch.BL})
}

// Bx emits an indirect branch to rm.
func (b *Builder) Bx(rm arch.Reg) { b.emit(arch.Instruction{Op: arch.BX, Rm: rm}) }

// Ret emits bx lr.
func (b *Builder) Ret() { b.Bx(arch.LR) }

// Svc emits a supervisor call.
func (b *Builder) Svc(num int32) { b.emit(arch.Instruction{Op: arch.SVC, Imm: num}) }

// Hlt halts the executing vCPU.
func (b *Builder) Hlt() { b.emit(arch.Instruction{Op: arch.HLT}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(arch.Instruction{Op: arch.NOP}) }

// Yield emits a scheduling hint.
func (b *Builder) Yield() { b.emit(arch.Instruction{Op: arch.YIELD}) }

// --- Stack macros ---

// Push emits a push of regs (descending addresses, first reg at lowest).
func (b *Builder) Push(regs ...arch.Reg) {
	if len(regs) == 0 {
		return
	}
	b.SubI(arch.SP, arch.SP, int32(len(regs))*arch.WordBytes)
	for i, r := range regs {
		b.Str(r, arch.SP, int32(i)*arch.WordBytes)
	}
}

// Pop undoes a matching Push.
func (b *Builder) Pop(regs ...arch.Reg) {
	if len(regs) == 0 {
		return
	}
	for i, r := range regs {
		b.Ldr(r, arch.SP, int32(i)*arch.WordBytes)
	}
	b.AddI(arch.SP, arch.SP, int32(len(regs))*arch.WordBytes)
}

// Finish resolves fixups and returns the image. Entry defaults to Org; use
// SetEntry or Image.Entry to change it.
func (b *Builder) Finish() (*Image, error) {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("asm: undefined label %q", f.label))
			continue
		}
		addr := b.org + uint32(f.index)*arch.WordBytes
		switch f.kind {
		case fixB, fixBL:
			off := arch.OffsetFor(addr, target)
			in, err := arch.Decode(b.words[f.index])
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("asm: fixup at %#x: %w", addr, err))
				continue
			}
			in.Off = off
			w, err := in.EncodeChecked()
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("asm: branch to %q out of range: %w", f.label, err))
				continue
			}
			b.words[f.index] = w
		case fixMOVWLo, fixMOVTHi:
			in, err := arch.Decode(b.words[f.index])
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("asm: fixup at %#x: %w", addr, err))
				continue
			}
			if f.kind == fixMOVWLo {
				in.Imm = int32(target & 0xffff)
			} else {
				in.Imm = int32(target >> 16)
			}
			b.words[f.index] = in.Encode()
		case fixWord:
			b.words[f.index] = target
		}
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("asm: %d error(s), first: %w", len(b.errs), b.errs[0])
	}
	syms := make(map[string]uint32, len(b.labels))
	for name, addr := range b.labels {
		syms[name] = addr
	}
	words := make([]uint32, len(b.words))
	copy(words, b.words)
	return &Image{Org: b.org, Entry: b.org, Words: words, Symbols: syms}, nil
}
