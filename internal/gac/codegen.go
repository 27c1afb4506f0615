package gac

import (
	"atomemu/internal/arch"
	"atomemu/internal/asm"
	"atomemu/internal/mmu"
)

// Code generator. Conventions:
//
//   - r0..r3: arguments, return value, expression scratch
//   - r11:    frame pointer (locals at [r11 + 4*slot])
//   - r12:    extra scratch for atomic builtins
//   - sp:     expression temporaries are pushed/popped around binary ops
//
// Each function is emitted as "fn_<name>"; globals live on their own page
// after the code so PST-family schemes see realistic data placement.

type gen struct {
	b     *asm.Builder
	names []string
	syms  []symbol // by symbol id

	// per-function state
	locals   []uint32 // the ids with a frame slot, in slot order
	epilogue string
	breaks   []string
	conts    []string
}

// symbol is what a name means in the program being compiled. Names are
// resolved through it by symbol id, so no use of a name hashes it.
type symbol struct {
	global      *globalDecl
	fn          *funcDecl
	globalLabel string // "g_<name>", made once
	fnLabel     string // "fn_<name>", made once
	// slot is the frame slot of the current function's parameter or
	// local of this name, or -1.
	slot int32
}

const fp = arch.R11

func generate(prog *program, names []string, org uint32) (*asm.Image, error) {
	g := &gen{b: asm.NewBuilder(org), names: names, syms: make([]symbol, len(names))}
	for i := range g.syms {
		g.syms[i].slot = -1
	}
	for _, gd := range prog.globals {
		sym := &g.syms[gd.name]
		if sym.global != nil {
			return nil, errf(gd.line, "duplicate global %q", names[gd.name])
		}
		sym.global, sym.globalLabel = gd, "g_"+names[gd.name]
	}
	var main *funcDecl
	for _, f := range prog.funcs {
		sym := &g.syms[f.name]
		if sym.fn != nil {
			return nil, errf(f.line, "duplicate function %q", names[f.name])
		}
		if sym.global != nil {
			return nil, errf(f.line, "%q is both a global and a function", names[f.name])
		}
		sym.fn, sym.fnLabel = f, "fn_"+names[f.name]
		if names[f.name] == "main" {
			main = f
		}
	}
	if main == nil {
		return nil, errf(1, "no main function")
	}
	for _, f := range prog.funcs {
		if err := g.function(f); err != nil {
			return nil, err
		}
	}
	// Data page.
	g.b.AlignWords(mmu.PageWords)
	for _, gd := range prog.globals {
		g.b.Label(g.syms[gd.name].globalLabel)
		if gd.size == 1 {
			g.b.Word(gd.init)
		} else {
			g.b.Space(int(gd.size))
		}
	}
	im, err := g.b.Finish()
	if err != nil {
		return nil, err
	}
	im.Entry = im.MustSymbol("fn_main")
	return im, nil
}

// addLocal gives name the next frame slot; it reports false if name
// already has one.
func (g *gen) addLocal(name uint32) bool {
	if g.syms[name].slot >= 0 {
		return false
	}
	g.syms[name].slot = int32(len(g.locals))
	g.locals = append(g.locals, name)
	return true
}

// countLocals pre-scans a function body for var declarations.
func (g *gen) countLocals(s stmt) error {
	switch n := s.(type) {
	case *blockStmt:
		for _, c := range n.stmts {
			if err := g.countLocals(c); err != nil {
				return err
			}
		}
	case *varStmt:
		if !g.addLocal(n.name) {
			return errf(n.line, "duplicate local %q", g.names[n.name])
		}
	case *ifStmt:
		if err := g.countLocals(n.then); err != nil {
			return err
		}
		if n.els_ != nil {
			return g.countLocals(n.els_)
		}
	case *whileStmt:
		return g.countLocals(n.body)
	}
	return nil
}

// function resolves f's parameters and locals to frame slots, once, and
// emits it.
func (g *gen) function(f *funcDecl) error {
	for _, name := range g.locals {
		g.syms[name].slot = -1
	}
	g.locals = g.locals[:0]
	for _, p := range f.params {
		if !g.addLocal(p) {
			return errf(f.line, "duplicate parameter %q", g.names[p])
		}
	}
	if err := g.countLocals(f.body); err != nil {
		return err
	}
	n := len(g.locals)
	if n > 512 {
		return errf(f.line, "function %s: too many locals (%d)", g.names[f.name], n)
	}
	frame := int32(n * 4)
	g.epilogue = g.b.Gensym("ret_" + g.names[f.name])
	g.breaks, g.conts = g.breaks[:0], g.conts[:0]

	g.b.Label(g.syms[f.name].fnLabel)
	g.b.Push(fp, arch.LR)
	if frame > 0 {
		g.b.SubI(arch.SP, arch.SP, frame)
	}
	g.b.Mov(fp, arch.SP)
	for i := range f.params {
		g.b.Str(arch.Reg(i), fp, int32(i)*4)
	}
	if err := g.stmt(f.body); err != nil {
		return err
	}
	// Implicit "return 0" at the end.
	g.b.MovI(arch.R0, 0)
	g.b.Label(g.epilogue)
	g.b.Mov(arch.SP, fp)
	if frame > 0 {
		g.b.AddI(arch.SP, arch.SP, frame)
	}
	g.b.Pop(fp, arch.LR)
	g.b.Ret()
	return nil
}

// --- statements ---

func (g *gen) stmt(s stmt) error {
	switch n := s.(type) {
	case *blockStmt:
		for _, c := range n.stmts {
			if err := g.stmt(c); err != nil {
				return err
			}
		}
		return nil
	case *varStmt:
		slot := g.syms[n.name].slot
		if n.init != nil {
			if err := g.expr(n.init); err != nil {
				return err
			}
		} else {
			g.b.MovI(arch.R0, 0)
		}
		g.b.Str(arch.R0, fp, slot*4)
		return nil
	case *assignStmt:
		return g.assign(n)
	case *exprStmt:
		return g.expr(n.e)
	case *returnStmt:
		if n.val != nil {
			if err := g.expr(n.val); err != nil {
				return err
			}
		} else {
			g.b.MovI(arch.R0, 0)
		}
		g.b.B(g.epilogue)
		return nil
	case *ifStmt:
		elseL := g.b.Gensym("else")
		doneL := g.b.Gensym("endif")
		if err := g.expr(n.cond); err != nil {
			return err
		}
		g.b.CmpI(arch.R0, 0)
		g.b.Beq(elseL)
		if err := g.stmt(n.then); err != nil {
			return err
		}
		g.b.B(doneL)
		g.b.Label(elseL)
		if n.els_ != nil {
			if err := g.stmt(n.els_); err != nil {
				return err
			}
		}
		g.b.Label(doneL)
		return nil
	case *whileStmt:
		top := g.b.Gensym("while")
		done := g.b.Gensym("wend")
		g.breaks = append(g.breaks, done)
		g.conts = append(g.conts, top)
		g.b.Label(top)
		if err := g.expr(n.cond); err != nil {
			return err
		}
		g.b.CmpI(arch.R0, 0)
		g.b.Beq(done)
		if err := g.stmt(n.body); err != nil {
			return err
		}
		g.b.B(top)
		g.b.Label(done)
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		return nil
	case *breakStmt:
		if len(g.breaks) == 0 {
			return errf(n.line, "break outside loop")
		}
		g.b.B(g.breaks[len(g.breaks)-1])
		return nil
	case *continueStmt:
		if len(g.conts) == 0 {
			return errf(n.line, "continue outside loop")
		}
		g.b.B(g.conts[len(g.conts)-1])
		return nil
	}
	return errf(s.stmtLine(), "unhandled statement")
}

func (g *gen) assign(n *assignStmt) error {
	switch lhs := n.lhs.(type) {
	case *identExpr:
		if slot := g.syms[lhs.name].slot; slot >= 0 {
			if err := g.expr(n.rhs); err != nil {
				return err
			}
			g.b.Str(arch.R0, fp, slot*4)
			return nil
		}
		if g.syms[lhs.name].global != nil {
			if err := g.expr(n.rhs); err != nil {
				return err
			}
			g.b.LoadAddr(arch.R1, g.syms[lhs.name].globalLabel)
			g.b.Str(arch.R0, arch.R1, 0)
			return nil
		}
		return errf(lhs.line, "assignment to undefined name %q", g.names[lhs.name])
	case *unaryExpr:
		if lhs.op != opMul {
			return errf(lhs.line, "cannot assign to unary %q expression", lhs.op)
		}
		if err := g.expr(n.rhs); err != nil {
			return err
		}
		g.push(arch.R0)
		if err := g.expr(lhs.x); err != nil {
			return err
		}
		g.b.Mov(arch.R1, arch.R0)
		g.pop(arch.R0)
		g.b.Str(arch.R0, arch.R1, 0)
		return nil
	case *indexExpr:
		if err := g.expr(n.rhs); err != nil {
			return err
		}
		g.push(arch.R0)
		if err := g.addrOf(lhs); err != nil {
			return err
		}
		g.b.Mov(arch.R1, arch.R0)
		g.pop(arch.R0)
		g.b.Str(arch.R0, arch.R1, 0)
		return nil
	}
	return errf(n.line, "invalid assignment target")
}

// --- expressions: result in r0 ---

func (g *gen) push(r arch.Reg) {
	g.b.SubI(arch.SP, arch.SP, 4)
	g.b.Str(r, arch.SP, 0)
}

func (g *gen) pop(r arch.Reg) {
	g.b.Ldr(r, arch.SP, 0)
	g.b.AddI(arch.SP, arch.SP, 4)
}

func (g *gen) expr(e expr) error {
	switch n := e.(type) {
	case *numExpr:
		g.b.MovImm32(arch.R0, n.val)
		return nil
	case *identExpr:
		if slot := g.syms[n.name].slot; slot >= 0 {
			g.b.Ldr(arch.R0, fp, slot*4)
			return nil
		}
		if g.syms[n.name].global != nil {
			g.b.LoadAddr(arch.R0, g.syms[n.name].globalLabel)
			g.b.Ldr(arch.R0, arch.R0, 0)
			return nil
		}
		return errf(n.line, "undefined name %q", g.names[n.name])
	case *unaryExpr:
		switch n.op {
		case opSub:
			if err := g.expr(n.x); err != nil {
				return err
			}
			g.b.RsbI(arch.R0, arch.R0, 0)
			return nil
		case opCompl:
			if err := g.expr(n.x); err != nil {
				return err
			}
			g.b.Mvn(arch.R0, arch.R0)
			return nil
		case opNot:
			if err := g.expr(n.x); err != nil {
				return err
			}
			g.b.CmpI(arch.R0, 0)
			g.b.MovI(arch.R0, 1)
			done := g.b.Gensym("not")
			g.b.Beq(done)
			g.b.MovI(arch.R0, 0)
			g.b.Label(done)
			return nil
		case opMul:
			if err := g.expr(n.x); err != nil {
				return err
			}
			g.b.Ldr(arch.R0, arch.R0, 0)
			return nil
		case opAnd:
			return g.addrOf(n.x)
		}
		return errf(n.line, "unhandled unary %q", n.op)
	case *binExpr:
		return g.binary(n)
	case *indexExpr:
		if err := g.addrOf(n); err != nil {
			return err
		}
		g.b.Ldr(arch.R0, arch.R0, 0)
		return nil
	case *callExpr:
		return g.call(n)
	}
	return errf(e.exprLine(), "unhandled expression")
}

// addrOf leaves an lvalue's address in r0.
func (g *gen) addrOf(e expr) error {
	switch n := e.(type) {
	case *identExpr:
		if g.syms[n.name].global != nil {
			g.b.LoadAddr(arch.R0, g.syms[n.name].globalLabel)
			return nil
		}
		if g.syms[n.name].slot >= 0 {
			return errf(n.line, "cannot take the address of local %q (locals live in the frame; use a global)", g.names[n.name])
		}
		return errf(n.line, "undefined name %q", g.names[n.name])
	case *indexExpr:
		base, ok := n.base.(*identExpr)
		if !ok || g.syms[base.name].global == nil {
			return errf(n.line, "indexing requires a global array")
		}
		if err := g.expr(n.idx); err != nil {
			return err
		}
		g.b.LslI(arch.R0, arch.R0, 2)
		g.push(arch.R0)
		g.b.LoadAddr(arch.R0, g.syms[base.name].globalLabel)
		g.pop(arch.R1)
		g.b.Add(arch.R0, arch.R0, arch.R1)
		return nil
	case *unaryExpr:
		if n.op == opMul {
			return g.expr(n.x)
		}
	}
	return errf(e.exprLine(), "expression is not addressable")
}

// cmpConds maps each comparison operator to the condition that holds when
// it is true.
var cmpConds = [numCodes]arch.Cond{
	opEq: arch.EQ, opNe: arch.NE, opLt: arch.LT, opLe: arch.LE,
	opGt: arch.GT, opGe: arch.GE,
}

func (g *gen) binary(n *binExpr) error {
	// Short-circuit forms first.
	if n.op == opAndAnd || n.op == opOrOr {
		out := g.b.Gensym("sc_out")
		short := g.b.Gensym("sc_short")
		if err := g.expr(n.l); err != nil {
			return err
		}
		g.b.CmpI(arch.R0, 0)
		if n.op == opAndAnd {
			g.b.Beq(short)
		} else {
			g.b.Bne(short)
		}
		if err := g.expr(n.r); err != nil {
			return err
		}
		g.b.CmpI(arch.R0, 0)
		if n.op == opAndAnd {
			g.b.Beq(short)
		} else {
			g.b.Bne(short)
		}
		if n.op == opAndAnd {
			g.b.MovI(arch.R0, 1)
		} else {
			g.b.MovI(arch.R0, 0)
		}
		g.b.B(out)
		g.b.Label(short)
		if n.op == opAndAnd {
			g.b.MovI(arch.R0, 0)
		} else {
			g.b.MovI(arch.R0, 1)
		}
		g.b.Label(out)
		return nil
	}

	if err := g.expr(n.l); err != nil {
		return err
	}
	g.push(arch.R0)
	if err := g.expr(n.r); err != nil {
		return err
	}
	g.b.Mov(arch.R1, arch.R0)
	g.pop(arch.R0)

	switch n.op {
	case opAdd:
		g.b.Add(arch.R0, arch.R0, arch.R1)
	case opSub:
		g.b.Sub(arch.R0, arch.R0, arch.R1)
	case opMul:
		g.b.Mul(arch.R0, arch.R0, arch.R1)
	case opDiv:
		g.b.Sdiv(arch.R0, arch.R0, arch.R1)
	case opMod:
		g.b.Sdiv(arch.R2, arch.R0, arch.R1)
		g.b.Mul(arch.R2, arch.R2, arch.R1)
		g.b.Sub(arch.R0, arch.R0, arch.R2)
	case opAnd:
		g.b.And(arch.R0, arch.R0, arch.R1)
	case opOr:
		g.b.Orr(arch.R0, arch.R0, arch.R1)
	case opXor:
		g.b.Eor(arch.R0, arch.R0, arch.R1)
	case opShl:
		g.b.Lsl(arch.R0, arch.R0, arch.R1)
	case opShr:
		g.b.Lsr(arch.R0, arch.R0, arch.R1)
	case opEq, opNe, opLt, opLe, opGt, opGe:
		g.b.Cmp(arch.R0, arch.R1)
		g.b.MovI(arch.R0, 1)
		done := g.b.Gensym("cmp")
		g.b.BCond(cmpConds[n.op], done)
		g.b.MovI(arch.R0, 0)
		g.b.Label(done)
	default:
		return errf(n.line, "unhandled operator %q", n.op)
	}
	return nil
}

// call dispatches builtins and user functions.
func (g *gen) call(n *callExpr) error {
	if b := n.name - numKeywords; b < uint32(len(builtins)) {
		return builtins[b].emit(g, n)
	}
	f := g.syms[n.name].fn
	if f == nil {
		return errf(n.line, "call to undefined function %q", g.names[n.name])
	}
	if len(n.args) != len(f.params) {
		return errf(n.line, "%s takes %d argument(s), got %d", g.names[n.name], len(f.params), len(n.args))
	}
	for _, a := range n.args {
		if err := g.expr(a); err != nil {
			return err
		}
		g.push(arch.R0)
	}
	for i := len(n.args) - 1; i >= 0; i-- {
		g.pop(arch.Reg(i))
	}
	g.b.BL(g.syms[n.name].fnLabel)
	return nil
}

// argRegs evaluates call arguments into r0..rN-1 via the stack.
func (g *gen) argRegs(n *callExpr, want int) error {
	if len(n.args) != want {
		return errf(n.line, "%s takes %d argument(s), got %d", g.names[n.name], want, len(n.args))
	}
	for _, a := range n.args {
		if err := g.expr(a); err != nil {
			return err
		}
		g.push(arch.R0)
	}
	for i := want - 1; i >= 0; i-- {
		g.pop(arch.Reg(i))
	}
	return nil
}

// builtin is a function the compiler emits inline.
type builtin struct {
	name string
	emit func(*gen, *callExpr) error
}

// builtins' symbol ids follow the keywords', in this order (see newLexer).
var builtins []builtin

// init breaks the builtins/expr initialization cycle.
func init() {
	builtins = []builtin{
		{"print", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 1); err != nil {
				return err
			}
			g.b.Svc(6)
			return nil
		}},
		{"exit", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 1); err != nil {
				return err
			}
			g.b.Svc(1)
			return nil
		}},
		{"spawn", func(g *gen, n *callExpr) error {
			if len(n.args) != 2 {
				return errf(n.line, "spawn takes (func, arg)")
			}
			fn, ok := n.args[0].(*identExpr)
			if !ok || g.syms[fn.name].fn == nil {
				return errf(n.line, "spawn's first argument must name a function")
			}
			if len(g.syms[fn.name].fn.params) > 1 {
				return errf(n.line, "spawned function %q may take at most one parameter", g.names[fn.name])
			}
			if err := g.expr(n.args[1]); err != nil {
				return err
			}
			g.b.Mov(arch.R1, arch.R0)
			g.b.LoadAddr(arch.R0, g.syms[fn.name].fnLabel)
			g.b.Svc(3)
			return nil
		}},
		{"join", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 1); err != nil {
				return err
			}
			g.b.Svc(4)
			return nil
		}},
		{"tid", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 0); err != nil {
				return err
			}
			g.b.Svc(5)
			return nil
		}},
		{"futex_wait", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 2); err != nil {
				return err
			}
			g.b.Svc(7)
			return nil
		}},
		{"futex_wake", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 2); err != nil {
				return err
			}
			g.b.Svc(8)
			return nil
		}},
		{"barrier_init", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 2); err != nil {
				return err
			}
			g.b.Svc(9)
			return nil
		}},
		{"barrier_wait", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 1); err != nil {
				return err
			}
			g.b.Svc(10)
			return nil
		}},
		{"mmap", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 1); err != nil {
				return err
			}
			g.b.Svc(11)
			return nil
		}},
		{"clock", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 0); err != nil {
				return err
			}
			g.b.Svc(12)
			return nil
		}},
		{"yield", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 0); err != nil {
				return err
			}
			g.b.Yield()
			return nil
		}},
		{"fence", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 0); err != nil {
				return err
			}
			g.b.Dmb()
			return nil
		}},
		{"clrex", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 0); err != nil {
				return err
			}
			g.b.Clrex()
			return nil
		}},
		{"ll", func(g *gen, n *callExpr) error {
			if err := g.argRegs(n, 1); err != nil {
				return err
			}
			g.b.Mov(arch.R1, arch.R0)
			g.b.Ldrex(arch.R0, arch.R1)
			return nil
		}},
		{"sc", func(g *gen, n *callExpr) error {
			// sc(addr, val) -> 0 on success, 1 on failure.
			if err := g.argRegs(n, 2); err != nil {
				return err
			}
			g.b.Mov(arch.R2, arch.R1)
			g.b.Mov(arch.R1, arch.R0)
			g.b.Strex(arch.R0, arch.R2, arch.R1)
			return nil
		}},
		{"atomic_add", func(g *gen, n *callExpr) error {
			// atomic_add(addr, delta) -> new value. The emitted retry loop is
			// exactly the fuser's RMW pattern.
			if err := g.argRegs(n, 2); err != nil {
				return err
			}
			g.b.Mov(arch.R2, arch.R1)
			g.b.Mov(arch.R1, arch.R0)
			retry := g.b.Gensym("aadd")
			g.b.Label(retry)
			g.b.Ldrex(arch.R0, arch.R1)
			g.b.Add(arch.R0, arch.R0, arch.R2)
			g.b.Strex(arch.R3, arch.R0, arch.R1)
			g.b.CmpI(arch.R3, 0)
			g.b.Bne(retry)
			return nil
		}},
		{"atomic_xchg", func(g *gen, n *callExpr) error {
			// atomic_xchg(addr, val) -> old value.
			if err := g.argRegs(n, 2); err != nil {
				return err
			}
			g.b.Mov(arch.R2, arch.R1)
			g.b.Mov(arch.R1, arch.R0)
			retry := g.b.Gensym("axchg")
			g.b.Label(retry)
			g.b.Ldrex(arch.R0, arch.R1)
			g.b.Strex(arch.R3, arch.R2, arch.R1)
			g.b.CmpI(arch.R3, 0)
			g.b.Bne(retry)
			return nil
		}},
		{"atomic_cas", func(g *gen, n *callExpr) error {
			// atomic_cas(addr, old, new) -> 0 on success, 1 on mismatch.
			if err := g.argRegs(n, 3); err != nil {
				return err
			}
			g.b.Mov(arch.R12, arch.R2) // new
			g.b.Mov(arch.R2, arch.R1)  // expected
			g.b.Mov(arch.R1, arch.R0)  // addr
			retry := g.b.Gensym("acas")
			fail := g.b.Gensym("acasf")
			done := g.b.Gensym("acasd")
			g.b.Label(retry)
			g.b.Ldrex(arch.R0, arch.R1)
			g.b.Cmp(arch.R0, arch.R2)
			g.b.Bne(fail)
			g.b.Strex(arch.R3, arch.R12, arch.R1)
			g.b.CmpI(arch.R3, 0)
			g.b.Bne(retry)
			g.b.MovI(arch.R0, 0)
			g.b.B(done)
			g.b.Label(fail)
			g.b.Clrex()
			g.b.MovI(arch.R0, 1)
			g.b.Label(done)
			return nil
		}},
	}
}
