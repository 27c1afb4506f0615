// Package translate is the DBT frontend: it decodes a guest basic block and
// lowers it to IR, applying scheme-specific instrumentation decisions at
// translation time exactly as the paper's QEMU modifications do — HST-class
// schemes get their store test emitted inline at the IR level, PICO-ST-class
// schemes route stores through (expensive) helpers, and PICO-CAS leaves
// stores untouched. The IR optimizer runs over the result.
package translate

import (
	"fmt"
	"sync"

	"atomemu/internal/arch"
	"atomemu/internal/ir"
)

// Options steers translation.
type Options struct {
	// InstrumentStores routes guest stores through the scheme hook
	// (ir.InstrStore) instead of the uninstrumented fast path.
	InstrumentStores bool
	// InstrumentLoads routes guest loads through the scheme hook.
	InstrumentLoads bool
	// MaxGuestInstrs caps the instructions per block. Zero means the
	// default (32). The litmus harness uses 1 for single-stepping.
	MaxGuestInstrs int
	// Optimize runs the IR pass pipeline on the translated block.
	Optimize bool
	// FuseAtomics enables rule-based translation (paper §VI): recognized
	// compiler-shaped LL/SC retry loops become single fused host atomics.
	FuseAtomics bool
	// FollowUncond forms superblocks: translation continues across
	// unconditional branches (B AL, BL) instead of ending the block, so a
	// hot region spanning several basic blocks becomes one IR block for
	// the optimizer. Each branch target is followed at most once per
	// block, so loops still terminate the region.
	FollowUncond bool
}

// DefaultMaxGuestInstrs is the block cap when Options.MaxGuestInstrs is 0.
const DefaultMaxGuestInstrs = 32

// DefaultSuperblockInstrs is the instruction cap used when re-translating
// a hot block with FollowUncond: four plain blocks' worth of room.
const DefaultSuperblockInstrs = 4 * DefaultMaxGuestInstrs

// FetchFunc reads one guest instruction word, typically mmu.Memory.FetchWord
// wrapped to return error.
type FetchFunc func(pc uint32) (uint32, error)

// opsScratch recycles the buffers blocks are built in. A fresh buffer holds
// a default-capped block (two IR ops per guest instruction at most, plus the
// cap's trailing exit); one that a superblock outgrew goes back grown.
var opsScratch = sync.Pool{New: func() any {
	buf := make([]ir.Inst, 0, 2*DefaultMaxGuestInstrs+1)
	return &buf
}}

// Block translates the guest basic block starting at pc. The returned
// block's Ops are sized exactly: ops are emitted (and optimized) in a
// recycled scratch buffer and copied out once at their final length, so a
// block cached for a machine's — or the cross-job store's — lifetime
// carries no growth slack, and translation does not regrow a slice per
// block.
func Block(fetch FetchFunc, pc uint32, opts Options) (*ir.Block, error) {
	scratch := opsScratch.Get().(*[]ir.Inst)
	b := ir.NewBlock(pc)
	b.Ops = (*scratch)[:0]
	err := lower(fetch, b, pc, opts)
	if err == nil && opts.Optimize {
		ir.Optimize(b)
	}
	built := b.Ops
	*scratch = built[:0]
	if err != nil {
		opsScratch.Put(scratch)
		return nil, err
	}
	b.Ops = append(make([]ir.Inst, 0, len(built)), built...)
	opsScratch.Put(scratch)
	return b, nil
}

// lower decodes the block at pc and emits its unoptimized IR into b.
func lower(fetch FetchFunc, b *ir.Block, pc uint32, opts Options) error {
	maxInstrs := opts.MaxGuestInstrs
	if maxInstrs <= 0 {
		maxInstrs = DefaultMaxGuestInstrs
	}
	b.GuestLo, b.GuestHi = pc, pc
	// extend widens the translated-from bounds; superblock folding can move
	// cur backwards (a call to an earlier function), so both ends track.
	extend := func(lo, hi uint32) {
		if lo < b.GuestLo {
			b.GuestLo = lo
		}
		if hi > b.GuestHi {
			b.GuestHi = hi
		}
	}
	cur := pc
	var seen map[uint32]bool
	if opts.FollowUncond {
		seen = map[uint32]bool{pc: true}
	}
	for n := 0; n < maxInstrs; {
		word, err := fetch(cur)
		if err != nil {
			if n > 0 {
				// The earlier part of the block is valid; end it before the
				// faulting instruction so the fault is taken precisely.
				b.Emit(ir.Inst{Op: ir.ExitJmp, Addr: cur, GuestPC: cur})
				b.GuestLen = n
				return nil
			}
			return fmt.Errorf("translate: fetch at %#08x: %w", cur, err)
		}
		in, err := arch.Decode(word)
		if err != nil {
			return fmt.Errorf("translate: at %#08x: %w", cur, err)
		}
		if opts.FuseAtomics && in.Op == arch.LDREX {
			if consumed := tryFuse(fetch, b, in, cur, opts); consumed > 0 {
				// A fused window collapses loads and stores into one host
				// atomic; treat it as both-sensitive so retention stays
				// conservative.
				b.HasStores, b.HasLoads = true, true
				n += consumed
				b.GuestLen = n
				extend(cur, cur+uint32(consumed)*arch.InstrBytes)
				cur += uint32(consumed) * arch.InstrBytes
				continue
			}
		}
		if opts.FollowUncond && n+1 < maxInstrs &&
			(in.Op == arch.BL || (in.Op == arch.B && in.Cond == arch.AL)) {
			if target := in.BranchTarget(cur); !seen[target] {
				// Superblock formation: fold the unconditional branch into
				// the block and keep translating at its target. Each target
				// is followed once, so a loop back edge ends the region via
				// the normal terminator path below.
				seen[target] = true
				if in.Op == arch.BL {
					b.Emit(ir.Inst{Op: ir.MovI, D: ir.RegID(arch.LR),
						Imm: cur + arch.InstrBytes, GuestPC: cur})
				}
				n++
				b.GuestLen = n
				extend(cur, cur+arch.InstrBytes)
				cur = target
				continue
			}
		}
		if err := emit(b, in, cur, opts); err != nil {
			return fmt.Errorf("translate: at %#08x (%s): %w", cur, in, err)
		}
		n++
		b.GuestLen = n
		extend(cur, cur+arch.InstrBytes)
		if in.Op.EndsBlock() {
			return nil
		}
		cur += arch.InstrBytes
	}
	// Block cap reached: continue at the next instruction.
	b.Emit(ir.Inst{Op: ir.ExitJmp, Addr: cur, GuestPC: cur - arch.InstrBytes})
	return nil
}

// reg converts a guest register, rejecting PC in data positions: GA32
// programs use BX/BL for control flow and may not read or write PC directly.
func reg(r arch.Reg) (ir.RegID, error) {
	if r == arch.PC {
		return 0, fmt.Errorf("pc is not a general operand in GA32")
	}
	return ir.RegID(r), nil
}

var alu3Map = map[arch.Opcode]ir.Op{
	arch.ADD: ir.Add, arch.SUB: ir.Sub, arch.AND: ir.And, arch.ORR: ir.Or,
	arch.EOR: ir.Xor, arch.MUL: ir.Mul, arch.UDIV: ir.UDiv, arch.SDIV: ir.SDiv,
	arch.LSL: ir.Shl, arch.LSR: ir.Shr, arch.ASR: ir.Sar,
	arch.ADDS: ir.FlagsAdd, arch.SUBS: ir.FlagsSub,
}

var alu2iMap = map[arch.Opcode]ir.Op{
	arch.ADDI: ir.AddI, arch.SUBI: ir.SubI, arch.RSBI: ir.RsbI,
	arch.ANDI: ir.AndI, arch.ORRI: ir.OrI, arch.EORI: ir.XorI,
	arch.LSLI: ir.ShlI, arch.LSRI: ir.ShrI, arch.ASRI: ir.SarI,
	arch.ADDSI: ir.FlagsAddI, arch.SUBSI: ir.FlagsSubI,
}

func emit(b *ir.Block, in arch.Instruction, pc uint32, opts Options) error {
	next := pc + arch.InstrBytes
	e := func(op ir.Op, inst ir.Inst) {
		inst.Op = op
		inst.GuestPC = pc
		b.Emit(inst)
	}

	switch in.Op {
	case arch.STR, arch.STRB, arch.STRR, arch.STRBR:
		b.HasStores = true
	case arch.LDR, arch.LDRB, arch.LDRR, arch.LDRBR:
		b.HasLoads = true
	}

	switch in.Op {
	case arch.ADD, arch.SUB, arch.AND, arch.ORR, arch.EOR, arch.MUL,
		arch.UDIV, arch.SDIV, arch.LSL, arch.LSR, arch.ASR,
		arch.ADDS, arch.SUBS:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		e(alu3Map[in.Op], ir.Inst{D: rd, A: rn, B: rm})

	case arch.RSB:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		// rd = rm - rn.
		e(ir.Sub, ir.Inst{D: rd, A: rm, B: rn})

	case arch.ADDI, arch.SUBI, arch.RSBI, arch.ANDI, arch.ORRI, arch.EORI,
		arch.LSLI, arch.LSRI, arch.ASRI, arch.ADDSI, arch.SUBSI:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		e(alu2iMap[in.Op], ir.Inst{D: rd, A: rn, Imm: uint32(in.Imm)})

	case arch.MOV:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		e(ir.Mov, ir.Inst{D: rd, A: rm})

	case arch.MVN:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		e(ir.Not, ir.Inst{D: rd, A: rm})

	case arch.MOVI, arch.MOVW:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		e(ir.MovI, ir.Inst{D: rd, Imm: uint32(in.Imm)})

	case arch.MOVT:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		e(ir.AndI, ir.Inst{D: rd, A: rd, Imm: 0xffff})
		e(ir.OrI, ir.Inst{D: rd, A: rd, Imm: uint32(in.Imm) << 16})

	case arch.CMP, arch.CMN:
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		op := ir.FlagsSub
		if in.Op == arch.CMN {
			op = ir.FlagsAdd
		}
		e(op, ir.Inst{D: b.Temp(), A: rn, B: rm})

	case arch.CMPI:
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		e(ir.FlagsSubI, ir.Inst{D: b.Temp(), A: rn, Imm: uint32(in.Imm)})

	case arch.TST:
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		t := b.Temp()
		e(ir.And, ir.Inst{D: t, A: rn, B: rm})
		e(ir.FlagsNZ, ir.Inst{A: t})

	case arch.LDR, arch.LDRB:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		op := loadOp(in.Op == arch.LDRB, opts.InstrumentLoads)
		e(op, ir.Inst{D: rd, A: rn, Imm: uint32(in.Imm)})

	case arch.LDRR, arch.LDRBR:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		t := b.Temp()
		e(ir.Add, ir.Inst{D: t, A: rn, B: rm})
		op := loadOp(in.Op == arch.LDRBR, opts.InstrumentLoads)
		e(op, ir.Inst{D: rd, A: t})

	case arch.STR, arch.STRB:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		op := storeOp(in.Op == arch.STRB, opts.InstrumentStores)
		e(op, ir.Inst{A: rn, B: rd, Imm: uint32(in.Imm)})

	case arch.STRR, arch.STRBR:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		t := b.Temp()
		e(ir.Add, ir.Inst{D: t, A: rn, B: rm})
		op := storeOp(in.Op == arch.STRBR, opts.InstrumentStores)
		e(op, ir.Inst{A: t, B: rd})

	case arch.LDREX:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		e(ir.LL, ir.Inst{D: rd, A: rn})

	case arch.STREX:
		rd, err := reg(in.Rd)
		if err != nil {
			return err
		}
		rn, err := reg(in.Rn)
		if err != nil {
			return err
		}
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		e(ir.SC, ir.Inst{D: rd, A: rn, B: rm})

	case arch.CLREX:
		e(ir.Clrex, ir.Inst{})

	case arch.DMB:
		e(ir.Fence, ir.Inst{})

	case arch.B:
		target := in.BranchTarget(pc)
		if in.Cond == arch.AL {
			e(ir.ExitJmp, ir.Inst{Addr: target})
		} else {
			e(ir.ExitCond, ir.Inst{Cond: in.Cond, Addr: target, Addr2: next})
		}

	case arch.BL:
		e(ir.MovI, ir.Inst{D: ir.RegID(arch.LR), Imm: next})
		e(ir.ExitJmp, ir.Inst{Addr: in.BranchTarget(pc)})

	case arch.BX:
		rm, err := reg(in.Rm)
		if err != nil {
			return err
		}
		e(ir.ExitInd, ir.Inst{A: rm})

	case arch.SVC:
		e(ir.Syscall, ir.Inst{Imm: uint32(in.Imm), Addr: next})

	case arch.HLT:
		e(ir.Halt, ir.Inst{})

	case arch.NOP:
		// Nothing; a trailing ExitJmp is added by the caller if the block
		// would otherwise be empty.

	case arch.YIELD:
		e(ir.YieldOp, ir.Inst{Addr: next})

	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return nil
}

func loadOp(byte_, instrumented bool) ir.Op {
	switch {
	case byte_ && instrumented:
		return ir.InstrLoadB
	case byte_:
		return ir.LoadB
	case instrumented:
		return ir.InstrLoad
	default:
		return ir.Load
	}
}

func storeOp(byte_, instrumented bool) ir.Op {
	switch {
	case byte_ && instrumented:
		return ir.InstrStoreB
	case byte_:
		return ir.StoreB
	case instrumented:
		return ir.InstrStore
	default:
		return ir.Store
	}
}
