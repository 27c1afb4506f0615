// Package ir defines atomemu's TCG-like intermediate representation.
//
// The DBT frontend (internal/translate) decodes one guest basic block into a
// Block of straight-line IR operations ending in exactly one terminator.
// Registers form a single index space: slots 0..15 are the guest registers
// (live across blocks), slots 16.. are block-local temporaries. Guest NZCV
// flags live in dedicated CPU state and are written only by the OpFlags*
// operations and read only by the conditional terminator.
//
// The representation is deliberately branch-free inside a block — guest
// branches terminate blocks — which keeps the optimizer (opt.go) a set of
// simple linear passes, as in QEMU's TCG.
package ir

import (
	"fmt"
	"strings"

	"atomemu/internal/arch"
	"atomemu/internal/mmu"
)

// RegID indexes the block's register space: 0..15 guest registers, 16..
// temporaries.
type RegID int16

// NumGuestRegs is the number of slots reserved for guest registers.
const NumGuestRegs = arch.NumRegs

// IsGuest reports whether r names a guest register (live-out of the block).
func (r RegID) IsGuest() bool { return r < NumGuestRegs }

func (r RegID) String() string {
	if r.IsGuest() {
		return arch.Reg(r).String()
	}
	return fmt.Sprintf("t%d", int(r)-NumGuestRegs)
}

// Op is an IR operation code.
type Op uint8

// IR operations. D/A/B are register operands; Imm is a 32-bit immediate.
const (
	Nop Op = iota

	// Moves.
	MovI // d = imm
	Mov  // d = a
	Not  // d = ^a

	// ALU, register-register.
	Add  // d = a + b
	Sub  // d = a - b
	And  // d = a & b
	Or   // d = a | b
	Xor  // d = a ^ b
	Mul  // d = a * b
	UDiv // d = a / b unsigned, x/0 = 0
	SDiv // d = a / b signed, x/0 = 0, MinInt32/-1 = MinInt32
	Shl  // d = a << (b & 31)
	Shr  // d = a >> (b & 31) logical
	Sar  // d = a >> (b & 31) arithmetic

	// ALU, register-immediate.
	AddI // d = a + imm
	SubI // d = a - imm
	RsbI // d = imm - a
	AndI // d = a & imm
	OrI  // d = a | imm
	XorI // d = a ^ imm
	ShlI // d = a << (imm & 31)
	ShrI // d = a >> (imm & 31) logical
	SarI // d = a >> (imm & 31) arithmetic

	// Flag-setting arithmetic (NZCV).
	FlagsAdd  // d = a + b, set NZCV
	FlagsSub  // d = a - b, set NZCV (C = no-borrow)
	FlagsAddI // d = a + imm, set NZCV
	FlagsSubI // d = a - imm, set NZCV
	FlagsNZ   // set N,Z from a; C,V unchanged (logical compares)

	// Memory. Address is a + imm (byte address).
	Load   // d = mem32[a + imm]
	LoadB  // d = mem8[a + imm]
	Store  // mem32[a + imm] = b   (uninstrumented fast path)
	StoreB // mem8[a + imm] = b
	// Instrumented stores route through the active emulation scheme's
	// store hook (the paper's "store test").
	InstrStore  // scheme.Store(a + imm, b)
	InstrStoreB // scheme.RMW(a + imm, byte update b)
	// Instrumented loads, for schemes that must observe reads (PICO-HTM
	// transactional reads, PST-REMAP fault waiting).
	InstrLoad  // d = scheme.Load(a + imm)
	InstrLoadB // d = scheme.LoadB(a + imm)

	// Exclusive pair and barriers — always routed through the scheme.
	LL    // d = scheme.LL(a)
	SC    // d = scheme.SC(a, b): 0 success, 1 failure
	Clrex // scheme.Clrex()
	Fence // full barrier
	// AtomicRMW is the fused form of a compiler-generated LL/SC retry loop
	// (the paper's §VI rule-based translation): d = old value of mem[a],
	// atomically replaced by old <RMW> operand. The operand is register b,
	// or Imm when RMWImm is set. Executed as one scheme.RMW — one host
	// atomic plus the scheme's store test, ABA-free by construction.
	AtomicRMW

	// Terminators. Exactly one per block, as the final op.
	ExitJmp  // goto guest address Addr
	ExitCond // if cond(flags) goto Addr else goto Addr2
	ExitInd  // goto guest address in a
	Syscall  // supervisor call Imm, resume at Addr
	Halt     // stop this vCPU
	YieldOp  // scheduling hint, resume at Addr

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", MovI: "movi", Mov: "mov", Not: "not",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Mul: "mul", UDiv: "udiv", SDiv: "sdiv", Shl: "shl", Shr: "shr", Sar: "sar",
	AddI: "addi", SubI: "subi", RsbI: "rsbi", AndI: "andi", OrI: "ori",
	XorI: "xori", ShlI: "shli", ShrI: "shri", SarI: "sari",
	FlagsAdd: "flags.add", FlagsSub: "flags.sub",
	FlagsAddI: "flags.addi", FlagsSubI: "flags.subi", FlagsNZ: "flags.nz",
	Load: "ld32", LoadB: "ld8", Store: "st32", StoreB: "st8",
	InstrStore: "st32.instr", InstrStoreB: "st8.instr",
	InstrLoad: "ld32.instr", InstrLoadB: "ld8.instr",
	LL: "ll", SC: "sc", Clrex: "clrex", Fence: "fence", AtomicRMW: "rmw",
	ExitJmp: "exit", ExitCond: "exit.cond", ExitInd: "exit.ind",
	Syscall: "syscall", Halt: "halt", YieldOp: "yield",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("irop?%d", uint8(o))
}

// IsTerminator reports whether o must be the final op of a block.
func (o Op) IsTerminator() bool {
	switch o {
	case ExitJmp, ExitCond, ExitInd, Syscall, Halt, YieldOp:
		return true
	}
	return false
}

// HasSideEffects reports whether o must survive dead-code elimination even
// if its destination is dead.
func (o Op) HasSideEffects() bool {
	switch o {
	case Store, StoreB, InstrStore, InstrStoreB, LL, SC, Clrex, Fence,
		AtomicRMW,
		Load, LoadB, InstrLoad, InstrLoadB: // loads can fault, so they are effects too
		return true
	}
	return o.IsTerminator()
}

// WritesFlags reports whether o updates the guest NZCV flags.
func (o Op) WritesFlags() bool {
	switch o {
	case FlagsAdd, FlagsSub, FlagsAddI, FlagsSubI, FlagsNZ:
		return true
	}
	return false
}

// Inst is one IR operation.
type Inst struct {
	Op    Op
	D     RegID     // destination
	A, B  RegID     // sources
	Imm   uint32    // immediate / address offset / syscall number
	Cond  arch.Cond // ExitCond only
	Addr  uint32    // terminator: primary guest target / resume address
	Addr2 uint32    // ExitCond: fall-through guest target
	// GuestPC is the address of the guest instruction this op was
	// translated from, for profiling and fault reporting.
	GuestPC uint32
	// RMW and RMWImm qualify AtomicRMW: the operation kind and whether the
	// operand is Imm rather than register b.
	RMW    mmu.UpdateKind
	RMWImm bool
}

// uses returns the source registers read by the instruction.
func (in *Inst) uses() (srcs [2]RegID, n int) {
	switch in.Op {
	case Mov, Not, AddI, SubI, RsbI, AndI, OrI, XorI, ShlI, ShrI, SarI,
		FlagsAddI, FlagsSubI, FlagsNZ, Load, LoadB, InstrLoad, InstrLoadB,
		LL, ExitInd:
		srcs[0] = in.A
		n = 1
	case Add, Sub, And, Or, Xor, Mul, UDiv, SDiv, Shl, Shr, Sar,
		FlagsAdd, FlagsSub, Store, StoreB, InstrStore, InstrStoreB, SC:
		srcs[0], srcs[1] = in.A, in.B
		n = 2
	case AtomicRMW:
		srcs[0] = in.A
		n = 1
		if !in.RMWImm {
			srcs[1] = in.B
			n = 2
		}
	}
	return
}

// writes returns the destination register, or -1.
func (in *Inst) writes() RegID {
	switch in.Op {
	case MovI, Mov, Not, Add, Sub, And, Or, Xor, Mul, UDiv, SDiv, Shl, Shr,
		Sar, AddI, SubI, RsbI, AndI, OrI, XorI, ShlI, ShrI, SarI,
		FlagsAdd, FlagsSub, FlagsAddI, FlagsSubI, Load, LoadB, InstrLoad,
		InstrLoadB, LL, SC, AtomicRMW:
		return in.D
	}
	return -1
}

func (in Inst) String() string {
	switch in.Op {
	case Nop, Clrex, Fence, Halt:
		return in.Op.String()
	case MovI:
		return fmt.Sprintf("%s = %#x", in.D, in.Imm)
	case Mov:
		return fmt.Sprintf("%s = %s", in.D, in.A)
	case Not:
		return fmt.Sprintf("%s = ^%s", in.D, in.A)
	case Add, Sub, And, Or, Xor, Mul, UDiv, SDiv, Shl, Shr, Sar, FlagsAdd, FlagsSub:
		return fmt.Sprintf("%s = %s(%s, %s)", in.D, in.Op, in.A, in.B)
	case AddI, SubI, RsbI, AndI, OrI, XorI, ShlI, ShrI, SarI, FlagsAddI, FlagsSubI:
		return fmt.Sprintf("%s = %s(%s, %#x)", in.D, in.Op, in.A, in.Imm)
	case FlagsNZ:
		return fmt.Sprintf("flags.nz(%s)", in.A)
	case Load, LoadB, InstrLoad, InstrLoadB:
		return fmt.Sprintf("%s = %s[%s + %#x]", in.D, in.Op, in.A, in.Imm)
	case Store, StoreB, InstrStore, InstrStoreB:
		return fmt.Sprintf("%s[%s + %#x] = %s", in.Op, in.A, in.Imm, in.B)
	case LL:
		return fmt.Sprintf("%s = ll[%s]", in.D, in.A)
	case SC:
		return fmt.Sprintf("%s = sc[%s] <- %s", in.D, in.A, in.B)
	case AtomicRMW:
		if in.RMWImm {
			return fmt.Sprintf("%s = rmw.%s[%s], %#x", in.D, in.RMW, in.A, in.Imm)
		}
		return fmt.Sprintf("%s = rmw.%s[%s], %s", in.D, in.RMW, in.A, in.B)
	case ExitJmp:
		return fmt.Sprintf("exit -> %#x", in.Addr)
	case ExitCond:
		return fmt.Sprintf("exit.%s -> %#x else %#x", in.Cond, in.Addr, in.Addr2)
	case ExitInd:
		return fmt.Sprintf("exit -> [%s]", in.A)
	case Syscall:
		return fmt.Sprintf("syscall %d, resume %#x", in.Imm, in.Addr)
	case YieldOp:
		return fmt.Sprintf("yield, resume %#x", in.Addr)
	}
	return in.Op.String()
}

// Block is one translated guest basic block.
type Block struct {
	// Start is the guest address of the first instruction.
	Start uint32
	// GuestLen is the number of guest instructions translated.
	GuestLen int
	// NumSlots is the register-space size (guest regs + temps).
	NumSlots int
	Ops      []Inst
	// HasStores/HasLoads record whether the block contains plain guest
	// stores/loads (or fused atomics) — the instructions whose lowering
	// depends on Options.InstrumentStores/InstrumentLoads. Scheme demotion
	// uses them to retain translations that are invariant under an
	// instrumentation change (engine/tbcache.retain).
	HasStores bool
	HasLoads  bool
	// GuestLo/GuestHi bound the guest addresses this block was translated
	// from (hi exclusive). Superblocks are non-contiguous, so the bounds
	// are a conservative cover; the shared translation store checks them
	// against the MMU store watch before reusing a block cross-job.
	GuestLo, GuestHi uint32
}

// NewBlock creates an empty block starting at the given guest address.
func NewBlock(start uint32) *Block {
	return &Block{Start: start, NumSlots: NumGuestRegs}
}

// Temp allocates a fresh temporary.
func (b *Block) Temp() RegID {
	id := RegID(b.NumSlots)
	b.NumSlots++
	return id
}

// Emit appends an op.
func (b *Block) Emit(in Inst) { b.Ops = append(b.Ops, in) }

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %#x (%d guest instrs, %d slots):\n", b.Start, b.GuestLen, b.NumSlots)
	for i, in := range b.Ops {
		fmt.Fprintf(&sb, "  %3d: %s\n", i, in.String())
	}
	return sb.String()
}

// Verify checks structural invariants: register indices in range, exactly
// one terminator as the final op, valid conditions.
func (b *Block) Verify() error {
	if len(b.Ops) == 0 {
		return fmt.Errorf("ir: block %#x is empty", b.Start)
	}
	for i := range b.Ops {
		in := &b.Ops[i]
		if in.Op >= numOps {
			return fmt.Errorf("ir: block %#x op %d: invalid opcode %d", b.Start, i, in.Op)
		}
		isLast := i == len(b.Ops)-1
		if in.Op.IsTerminator() != isLast {
			if isLast {
				return fmt.Errorf("ir: block %#x: final op %s is not a terminator", b.Start, in.Op)
			}
			return fmt.Errorf("ir: block %#x op %d: terminator %s before end", b.Start, i, in.Op)
		}
		check := func(r RegID, what string) error {
			if r < 0 || int(r) >= b.NumSlots {
				return fmt.Errorf("ir: block %#x op %d (%s): %s register %d out of range", b.Start, i, in.Op, what, r)
			}
			return nil
		}
		if d := in.writes(); d >= 0 {
			if err := check(d, "dest"); err != nil {
				return err
			}
		}
		srcs, n := in.uses()
		for s := 0; s < n; s++ {
			if err := check(srcs[s], "source"); err != nil {
				return err
			}
		}
		if in.Op == ExitCond && !in.Cond.Valid() {
			return fmt.Errorf("ir: block %#x: invalid condition %d", b.Start, in.Cond)
		}
	}
	return nil
}
