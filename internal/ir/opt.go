package ir

// Optimizer passes. These mirror TCG's per-block optimizations: constant
// folding/propagation, copy propagation and dead-code elimination over
// straight-line code. Guest registers (slots 0..15) and the NZCV flags are
// live-out of every block; temporaries die at the terminator.

// Optimize runs the standard pass pipeline in place.
func Optimize(b *Block) {
	ConstFold(b)
	CopyProp(b)
	DeadCode(b)
	compact(b)
}

// stackSlots is the register-space size up to which the passes keep their
// per-slot tables in fixed arrays on the stack. Plain blocks stay well
// under it; a block with more slots (a large superblock) takes one heap
// table per pass.
const stackSlots = 64

// ConstFold tracks constants through the block, folds ALU ops whose inputs
// are all known, and narrows register-register ops to their immediate forms
// when one input is constant.
func ConstFold(b *Block) {
	var knownBuf [stackSlots]bool
	var valBuf [stackSlots]uint32
	known, val := knownBuf[:], valBuf[:]
	if b.NumSlots > stackSlots {
		known, val = make([]bool, b.NumSlots), make([]uint32, b.NumSlots)
	}
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

// evalALU computes a register-register ALU op on constants.
func evalALU(op Op, a, b uint32) uint32 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Mul:
		return a * b
	case UDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case SDiv:
		return sdiv(a, b)
	case Shl:
		return a << (b & 31)
	case Shr:
		return a >> (b & 31)
	case Sar:
		return uint32(int32(a) >> (b & 31))
	}
	panic("ir: evalALU on non-ALU op " + op.String())
}

// evalALUImm computes an immediate-form ALU op on a constant.
func evalALUImm(op Op, a, imm uint32) uint32 {
	switch op {
	case AddI:
		return a + imm
	case SubI:
		return a - imm
	case RsbI:
		return imm - a
	case AndI:
		return a & imm
	case OrI:
		return a | imm
	case XorI:
		return a ^ imm
	case ShlI:
		return a << (imm & 31)
	case ShrI:
		return a >> (imm & 31)
	case SarI:
		return uint32(int32(a) >> (imm & 31))
	}
	panic("ir: evalALUImm on non-imm op " + op.String())
}

// sdiv implements the ARM SDIV edge cases: x/0 = 0, MinInt32/-1 = MinInt32.
func sdiv(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	sa, sb := int32(a), int32(b)
	if sa == -1<<31 && sb == -1 {
		return a
	}
	return uint32(sa / sb)
}

func commutative(op Op) bool {
	switch op {
	case Add, And, Or, Xor, Mul:
		return true
	}
	return false
}

// immForm maps a register-register op to its immediate form.
func immForm(op Op) (Op, bool) {
	switch op {
	case Add:
		return AddI, true
	case Sub:
		return SubI, true
	case And:
		return AndI, true
	case Or:
		return OrI, true
	case Xor:
		return XorI, true
	case Shl:
		return ShlI, true
	case Shr:
		return ShrI, true
	case Sar:
		return SarI, true
	}
	return 0, false
}

// foldIdentity simplifies algebraic identities on immediate-form ops in
// place. Returns true if the op changed.
func foldIdentity(in *Inst) bool {
	switch in.Op {
	case AddI, SubI, OrI, XorI, ShlI, ShrI, SarI:
		if in.Imm == 0 || (in.Op == ShlI || in.Op == ShrI || in.Op == SarI) && in.Imm&31 == 0 {
			*in = Inst{Op: Mov, D: in.D, A: in.A, GuestPC: in.GuestPC}
			return true
		}
	case AndI:
		if in.Imm == 0 {
			*in = Inst{Op: MovI, D: in.D, Imm: 0, GuestPC: in.GuestPC}
			return true
		}
		if in.Imm == 0xffffffff {
			*in = Inst{Op: Mov, D: in.D, A: in.A, GuestPC: in.GuestPC}
			return true
		}
	}
	return false
}

// CopyProp forwards Mov sources into later uses.
func CopyProp(b *Block) {
	// copyOf[r] = s means r currently holds the same value as s; s is
	// always a root (copyOf[s] == s), because sources are resolved before a
	// Mov records them. aliases[s] counts the slots r != s with
	// copyOf[r] == s, so redefining a slot scans the table only when some
	// live copy still points at it.
	var copyBuf [stackSlots]RegID
	var aliasBuf [stackSlots]RegID
	copyOf, aliases := copyBuf[:], aliasBuf[:]
	if b.NumSlots > stackSlots {
		copyOf, aliases = make([]RegID, b.NumSlots), make([]RegID, b.NumSlots)
	}
	copyOf = copyOf[:b.NumSlots]
	for i := range copyOf {
		copyOf[i] = RegID(i)
	}
	resolve := func(r RegID) RegID { return copyOf[r] }
	invalidate := func(r RegID) {
		if r < 0 {
			return
		}
		if s := copyOf[r]; s != r {
			aliases[s]--
			copyOf[r] = r
		}
		for i := range copyOf {
			if aliases[r] == 0 {
				break
			}
			if copyOf[i] == r && RegID(i) != r {
				copyOf[i] = RegID(i)
				aliases[r]--
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
			aliases[in.A]++
		}
	}
}

// DeadCode removes ops whose results are unused, walking backward with
// guest registers live-out. Flag writers and side-effecting ops survive.
func DeadCode(b *Block) {
	var liveBuf [stackSlots]bool
	live := liveBuf[:]
	if b.NumSlots > stackSlots {
		live = make([]bool, b.NumSlots)
	}
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

// compact removes Nops left by earlier passes.
func compact(b *Block) {
	out := b.Ops[:0]
	for _, in := range b.Ops {
		if in.Op != Nop {
			out = append(out, in)
		}
	}
	b.Ops = out
}
