package ir

import "math/rand"

// The optimizer passes as they were before they moved their per-slot
// tables onto the stack and made CopyProp's invalidation O(1): one heap
// table per pass, and a full table scan on every redefinition. They are
// kept verbatim as the reference the current passes must match op for op
// (TestQuickOptimizeMatchesReference).

// RefOptimize runs the reference pass pipeline in place.
func RefOptimize(b *Block) {
	refConstFold(b)
	refCopyProp(b)
	refDeadCode(b)
	refCompact(b)
}

// RandomMovChainBlock is randomPureBlock with Mov chains spliced in —
// copies of copies, then often a redefinition of the chain's head or its
// end — so CopyProp's alias bookkeeping is exercised harder than by single
// moves. One block in eight gets more temporaries than the passes keep on
// the stack.
func RandomMovChainBlock(r *rand.Rand) *Block {
	b := randomPureBlock(r)
	if r.Intn(8) == 0 {
		for b.NumSlots <= stackSlots {
			b.Temp()
		}
	}
	reg := func() RegID { return RegID(r.Intn(b.NumSlots)) }
	body := b.Ops[:len(b.Ops)-1]
	exit := b.Ops[len(b.Ops)-1]
	var ops []Inst
	for _, in := range body {
		ops = append(ops, in)
		if r.Intn(3) != 0 {
			continue
		}
		head := reg()
		prev := head
		for n := 1 + r.Intn(4); n > 0; n-- {
			d := reg()
			ops = append(ops, Inst{Op: Mov, D: d, A: prev})
			prev = d
		}
		switch r.Intn(3) {
		case 0:
			ops = append(ops, Inst{Op: MovI, D: head, Imm: r.Uint32() % 16})
		case 1:
			ops = append(ops, Inst{Op: MovI, D: prev, Imm: r.Uint32() % 16})
		}
	}
	b.Ops = append(ops, exit)
	return b
}

// refConstFold tracks constants through the block, folds ALU ops whose inputs
// are all known, and narrows register-register ops to their immediate forms
// when one input is constant.
func refConstFold(b *Block) {
	known := make([]bool, b.NumSlots)
	val := make([]uint32, b.NumSlots)
	kill := func(r RegID) {
		if r >= 0 {
			known[r] = false
		}
	}
	set := func(r RegID, v uint32) {
		known[r] = true
		val[r] = v
	}

	for i := range b.Ops {
		in := &b.Ops[i]
		switch in.Op {
		case MovI:
			set(in.D, in.Imm)
			continue
		case Mov:
			if known[in.A] {
				*in = Inst{Op: MovI, D: in.D, Imm: val[in.A], GuestPC: in.GuestPC}
				set(in.D, in.Imm)
				continue
			}
		case Not:
			if known[in.A] {
				*in = Inst{Op: MovI, D: in.D, Imm: ^val[in.A], GuestPC: in.GuestPC}
				set(in.D, in.Imm)
				continue
			}
		case Add, Sub, And, Or, Xor, Mul, UDiv, SDiv, Shl, Shr, Sar:
			a, bk := known[in.A], known[in.B]
			switch {
			case a && bk:
				*in = Inst{Op: MovI, D: in.D, Imm: evalALU(in.Op, val[in.A], val[in.B]), GuestPC: in.GuestPC}
				set(in.D, in.Imm)
				continue
			case bk:
				if (in.Op == UDiv || in.Op == SDiv) && val[in.B] == 0 {
					// x / 0 = 0 regardless of x (ARM division semantics).
					*in = Inst{Op: MovI, D: in.D, Imm: 0, GuestPC: in.GuestPC}
					set(in.D, 0)
					continue
				}
				if imm, ok := immForm(in.Op); ok {
					*in = Inst{Op: imm, D: in.D, A: in.A, Imm: val[in.B], GuestPC: in.GuestPC}
					// fall through to the immediate-form handling below
					// on the *next* pass; for this pass, treat result as
					// unknown unless identities apply.
					if folded := foldIdentity(in); folded {
						if in.Op == MovI {
							set(in.D, in.Imm)
							continue
						}
					}
				}
			case a && commutative(in.Op):
				if imm, ok := immForm(in.Op); ok {
					*in = Inst{Op: imm, D: in.D, A: in.B, Imm: val[in.A], GuestPC: in.GuestPC}
					if foldIdentity(in) && in.Op == MovI {
						set(in.D, in.Imm)
						continue
					}
				}
			}
		case AddI, SubI, RsbI, AndI, OrI, XorI, ShlI, ShrI, SarI:
			if known[in.A] {
				*in = Inst{Op: MovI, D: in.D, Imm: evalALUImm(in.Op, val[in.A], in.Imm), GuestPC: in.GuestPC}
				set(in.D, in.Imm)
				continue
			}
			if foldIdentity(in) && in.Op == MovI {
				set(in.D, in.Imm)
				continue
			}
		}
		kill(in.writes())
	}
}

// refCopyProp forwards Mov sources into later uses.
func refCopyProp(b *Block) {
	// copyOf[r] = s means r currently holds the same value as s.
	copyOf := make([]RegID, b.NumSlots)
	for i := range copyOf {
		copyOf[i] = RegID(i)
	}
	resolve := func(r RegID) RegID { return copyOf[r] }
	invalidate := func(r RegID) {
		if r < 0 {
			return
		}
		copyOf[r] = r
		for i := range copyOf {
			if copyOf[i] == r && RegID(i) != r {
				copyOf[i] = RegID(i)
			}
		}
	}

	for i := range b.Ops {
		in := &b.Ops[i]
		// Rewrite sources first.
		switch n := in; n.Op {
		case Mov, Not, AddI, SubI, RsbI, AndI, OrI, XorI, ShlI, ShrI, SarI,
			FlagsAddI, FlagsSubI, FlagsNZ, Load, LoadB, InstrLoad, InstrLoadB,
			LL, ExitInd:
			in.A = resolve(in.A)
		case Add, Sub, And, Or, Xor, Mul, UDiv, SDiv, Shl, Shr, Sar,
			FlagsAdd, FlagsSub, Store, StoreB, InstrStore, InstrStoreB, SC:
			in.A = resolve(in.A)
			in.B = resolve(in.B)
		case AtomicRMW:
			in.A = resolve(in.A)
			if !in.RMWImm {
				in.B = resolve(in.B)
			}
		}
		d := in.writes()
		invalidate(d)
		if in.Op == Mov && in.D != in.A {
			copyOf[in.D] = in.A
		}
	}
}

// refDeadCode removes ops whose results are unused, walking backward with
// guest registers live-out. Flag writers and side-effecting ops survive.
func refDeadCode(b *Block) {
	live := make([]bool, b.NumSlots)
	for r := 0; r < NumGuestRegs; r++ {
		live[r] = true
	}
	for i := len(b.Ops) - 1; i >= 0; i-- {
		in := &b.Ops[i]
		d := in.writes()
		if d >= 0 && !live[d] && !in.Op.HasSideEffects() && !in.Op.WritesFlags() {
			in.Op = Nop
			continue
		}
		if d >= 0 && !in.Op.HasSideEffects() {
			// A pure op fully redefines d; for side-effecting ops (LL, SC,
			// Load) d is also redefined but keeping it live is harmless.
			live[d] = false
		}
		srcs, n := in.uses()
		for s := 0; s < n; s++ {
			live[srcs[s]] = true
		}
	}
}

// refCompact removes Nops left by earlier passes.
func refCompact(b *Block) {
	out := b.Ops[:0]
	for _, in := range b.Ops {
		if in.Op != Nop {
			out = append(out, in)
		}
	}
	b.Ops = out
}
