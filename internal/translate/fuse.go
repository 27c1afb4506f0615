package translate

import (
	"atomemu/internal/arch"
	"atomemu/internal/ir"
	"atomemu/internal/mmu"
)

// Rule-based code translation (paper §VI): compilers emit LL/SC in a fixed
// retry-loop shape —
//
//	L: ldrex  rT, [rA]
//	   add    rN, rT, rM      ; or sub/and/orr/eor, register or immediate
//	   strex  rS, rN, [rA]
//	   cmpi   rS, #0
//	   bne    L
//
// (or the exchange shape without the ALU op). When recognized, the whole
// loop is replaced by one fused AtomicRMW executed as one scheme.RMW: a host
// atomic builtin plus the scheme's store test, no per-iteration emulation,
// and ABA-free by construction — a read-modify-write never mistakes "same
// value" for "nothing happened".
//
// The fused lowering reproduces the architectural state the loop leaves
// behind: rT = the old value of the final (successful) attempt, rN = the
// stored value, rS = 0, and NZCV as set by "cmpi rS, #0".

var rmwRegOps = map[arch.Opcode]mmu.UpdateKind{
	arch.ADD: mmu.UpdateAdd, arch.SUB: mmu.UpdateSub, arch.AND: mmu.UpdateAnd,
	arch.ORR: mmu.UpdateOr, arch.EOR: mmu.UpdateXor,
}

var rmwImmOps = map[arch.Opcode]mmu.UpdateKind{
	arch.ADDI: mmu.UpdateAdd, arch.SUBI: mmu.UpdateSub, arch.ANDI: mmu.UpdateAnd,
	arch.ORRI: mmu.UpdateOr, arch.EORI: mmu.UpdateXor,
}

// tryFuse attempts to recognize an atomic retry loop whose LDREX sits at pc.
// On success it emits the fused IR and returns the number of guest
// instructions consumed; 0 means no match (translate normally).
func tryFuse(fetch FetchFunc, b *ir.Block, ll arch.Instruction, pc uint32, opts Options) int {
	// Look ahead up to four instructions; any fetch/decode problem simply
	// declines the fusion.
	var win [4]arch.Instruction
	n := 0
	for ; n < 4; n++ {
		w, err := fetch(pc + uint32(n+1)*arch.InstrBytes)
		if err != nil {
			break
		}
		in, err := arch.Decode(w)
		if err != nil {
			break
		}
		win[n] = in
	}
	rT, rA := ll.Rd, ll.Rn
	if rT == rA {
		return 0 // the loop would clobber its own address register
	}

	// Exchange shape: strex rS, rB, [rA]; cmpi rS, #0; bne L.
	if n >= 3 && win[0].Op == arch.STREX {
		st, cmp, br := win[0], win[1], win[2]
		rS, rB := st.Rd, st.Rm
		if st.Rn == rA && rB != rT && rB != rS && rB != rA &&
			distinct(rS, rT, rA) &&
			cmp.Op == arch.CMPI && cmp.Rn == rS && cmp.Imm == 0 &&
			isLoopBack(br, pc+3*arch.InstrBytes, pc) {
			emitFused(b, pc, ir.Inst{
				Op: ir.AtomicRMW, D: ir.RegID(rT), A: ir.RegID(rA),
				B: ir.RegID(rB), RMW: mmu.UpdateXchg,
			}, nil, rS)
			return 4
		}
		return 0
	}

	// RMW shape: alu; strex; cmpi; bne.
	if n < 4 || win[1].Op != arch.STREX {
		return 0
	}
	alu, st, cmp, br := win[0], win[1], win[2], win[3]
	rN, rS := alu.Rd, st.Rd
	kind, isReg := rmwRegOps[alu.Op]
	kindI, isImm := rmwImmOps[alu.Op]
	if !isReg && !isImm {
		return 0
	}
	if alu.Rn != rT {
		return 0 // the new value must be derived from the loaded one
	}
	if isReg {
		rM := alu.Rm
		// The operand must be loop-invariant: not any register the loop
		// writes.
		if rM == rT || rM == rN || rM == rS {
			return 0
		}
	}
	if st.Rn != rA || st.Rm != rN {
		return 0
	}
	if !distinct(rS, rT, rA) || rS == rN || rA == rN {
		return 0
	}
	if cmp.Op != arch.CMPI || cmp.Rn != rS || cmp.Imm != 0 {
		return 0
	}
	if !isLoopBack(br, pc+4*arch.InstrBytes, pc) {
		return 0
	}

	rmw := ir.Inst{Op: ir.AtomicRMW, D: ir.RegID(rT), A: ir.RegID(rA)}
	var recompute *ir.Inst
	if isReg {
		rmw.B = ir.RegID(alu.Rm)
		rmw.RMW = kind
		recompute = &ir.Inst{Op: aluIROps[alu.Op], D: ir.RegID(rN), A: ir.RegID(rT), B: ir.RegID(alu.Rm)}
	} else {
		rmw.Imm = uint32(alu.Imm)
		rmw.RMWImm = true
		rmw.RMW = kindI
		recompute = &ir.Inst{Op: aluImmIROps[alu.Op], D: ir.RegID(rN), A: ir.RegID(rT), Imm: uint32(alu.Imm)}
	}
	emitFused(b, pc, rmw, recompute, rS)
	return 5
}

var aluIROps = map[arch.Opcode]ir.Op{
	arch.ADD: ir.Add, arch.SUB: ir.Sub, arch.AND: ir.And,
	arch.ORR: ir.Or, arch.EOR: ir.Xor,
}

var aluImmIROps = map[arch.Opcode]ir.Op{
	arch.ADDI: ir.AddI, arch.SUBI: ir.SubI, arch.ANDI: ir.AndI,
	arch.ORRI: ir.OrI, arch.EORI: ir.XorI,
}

func distinct(a, b, c arch.Reg) bool { return a != b && a != c && b != c }

// isLoopBack reports whether in is "bne target" sitting at pc.
func isLoopBack(in arch.Instruction, pc, target uint32) bool {
	return in.Op == arch.B && in.Cond == arch.NE && in.BranchTarget(pc) == target
}

// emitFused writes the fused sequence: the RMW, the recomputation of the
// stored value (nil for exchange), rS = 0, and the flags of "cmpi rS, #0".
func emitFused(b *ir.Block, pc uint32, rmw ir.Inst, recompute *ir.Inst, rS arch.Reg) {
	rmw.GuestPC = pc
	b.Emit(rmw)
	if recompute != nil {
		recompute.GuestPC = pc
		b.Emit(*recompute)
	}
	b.Emit(ir.Inst{Op: ir.MovI, D: ir.RegID(rS), Imm: 0, GuestPC: pc})
	b.Emit(ir.Inst{Op: ir.FlagsSubI, D: b.Temp(), A: ir.RegID(rS), Imm: 0, GuestPC: pc})
}
