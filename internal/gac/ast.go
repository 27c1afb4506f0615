package gac

// The GAC abstract syntax tree. Every value is a 32-bit word. A name is a
// symbol id (an index into lexer.names), so the code generator resolves it
// by indexing, never by hashing.

type program struct {
	globals []*globalDecl
	funcs   []*funcDecl
}

type globalDecl struct {
	name uint32
	// size is the word count: 1 for scalars, n for "var a[n]".
	size uint32
	// init is the scalar initializer (constant only).
	init uint32
	line int
}

type funcDecl struct {
	name   uint32
	params []uint32
	body   *blockStmt
	line   int
}

// --- statements ---

type stmt interface{ stmtLine() int }

type blockStmt struct {
	stmts []stmt
	line  int
}

type varStmt struct {
	name uint32
	init expr // nil means zero
	line int
}

type ifStmt struct {
	cond       expr
	then, els_ stmt // els_ may be nil
	line       int
}

type whileStmt struct {
	cond expr
	body stmt
	line int
}

type returnStmt struct {
	val  expr // nil means return 0
	line int
}

type breakStmt struct{ line int }
type continueStmt struct{ line int }

type exprStmt struct {
	e    expr
	line int
}

// assignStmt is "lhs = rhs" where lhs is a local, global, *expr or g[i].
type assignStmt struct {
	lhs  expr
	rhs  expr
	line int
}

func (s *blockStmt) stmtLine() int    { return s.line }
func (s *varStmt) stmtLine() int      { return s.line }
func (s *ifStmt) stmtLine() int       { return s.line }
func (s *whileStmt) stmtLine() int    { return s.line }
func (s *returnStmt) stmtLine() int   { return s.line }
func (s *breakStmt) stmtLine() int    { return s.line }
func (s *continueStmt) stmtLine() int { return s.line }
func (s *exprStmt) stmtLine() int     { return s.line }
func (s *assignStmt) stmtLine() int   { return s.line }

// --- expressions ---

type expr interface{ exprLine() int }

type numExpr struct {
	val  uint32
	line int
}

type identExpr struct {
	name uint32
	line int
}

type unaryExpr struct {
	op   tokCode // opSub, opNot, opCompl, opMul or opAnd
	x    expr
	line int
}

type binExpr struct {
	op   tokCode
	l, r expr
	line int
}

type callExpr struct {
	name uint32
	args []expr
	line int
}

type indexExpr struct {
	base expr // must be an addressable global (array)
	idx  expr
	line int
}

func (e *numExpr) exprLine() int   { return e.line }
func (e *identExpr) exprLine() int { return e.line }
func (e *unaryExpr) exprLine() int { return e.line }
func (e *binExpr) exprLine() int   { return e.line }
func (e *callExpr) exprLine() int  { return e.line }
func (e *indexExpr) exprLine() int { return e.line }

// nodes allocates a program's statements and expressions from arenas, one
// per node type, so a tree of tens of thousands of nodes costs tens of
// allocations rather than one per node.
type nodes struct {
	blocks    arena[blockStmt]
	vars      arena[varStmt]
	ifs       arena[ifStmt]
	whiles    arena[whileStmt]
	returns   arena[returnStmt]
	breaks    arena[breakStmt]
	conts     arena[continueStmt]
	exprStmts arena[exprStmt]
	assigns   arena[assignStmt]
	nums      arena[numExpr]
	idents    arena[identExpr]
	unaries   arena[unaryExpr]
	bins      arena[binExpr]
	calls     arena[callExpr]
	indexes   arena[indexExpr]
}

// arena hands out values of one type from chunks that double in size, from
// 8 up to 1024: a small program pays for few, a large one allocates once
// per thousand nodes.
type arena[T any] struct {
	free []T
	size int
}

func (a *arena[T]) new(v T) *T {
	if len(a.free) == 0 {
		a.size = min(max(2*a.size, 8), 1024)
		a.free = make([]T, a.size)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	*p = v
	return p
}
