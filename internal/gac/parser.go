package gac

// Recursive-descent parser with precedence climbing for expressions. It
// reads each token in place as the lexer scans it, and compares codes,
// never text.

type parser struct {
	*lexer
	tok token // the current token
	nodes
}

// parse parses the program l scans. A lexical error anywhere in the
// source is the error, whatever the parser found before it.
func parse(l *lexer) (*program, error) {
	p := &parser{lexer: l}
	p.advance()
	prog, err := p.program()
	if lexErr := l.finish(); lexErr != nil {
		return nil, lexErr
	}
	return prog, err
}

func (p *parser) program() (*program, error) {
	prog := &program{}
	for !p.at(tokEOF) {
		switch {
		case p.atCode(kwVar):
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			prog.globals = append(prog.globals, g)
		case p.atCode(kwFunc):
			f, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			prog.funcs = append(prog.funcs, f)
		default:
			return nil, p.errCur("expected 'var' or 'func', got %s", p.describe(&p.tok))
		}
	}
	return prog, nil
}

func (p *parser) advance() { p.scan(&p.tok) }

// next returns the current token and moves past it.
func (p *parser) next() token {
	t := p.tok
	p.advance()
	return t
}

func (p *parser) line() int { return int(p.tok.line) }

func (p *parser) errCur(format string, args ...any) error {
	return errf(p.line(), format, args...)
}

func (p *parser) at(kind tokKind) bool { return p.tok.kind == kind }

// atCode reports whether the current token is the keyword or operator c.
// Identifiers and numbers carry codeNone, so the kind need not be checked.
func (p *parser) atCode(c tokCode) bool { return p.tok.code == c }

func (p *parser) eat(c tokCode) bool {
	if p.atCode(c) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(c tokCode) error {
	if !p.eat(c) {
		return p.errCur("expected %q, got %s", c, p.describe(&p.tok))
	}
	return nil
}

// expectIdent returns the current token's symbol id if it is an
// identifier.
func (p *parser) expectIdent() (uint32, error) {
	if !p.at(tokIdent) {
		return 0, p.errCur("expected identifier, got %s", p.describe(&p.tok))
	}
	return p.next().val, nil
}

// globalDecl parses: var name; | var name = NUM; | var name[NUM];
func (p *parser) globalDecl() (*globalDecl, error) {
	kw := p.next() // 'var'
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	g := &globalDecl{name: name, size: 1, line: int(kw.line)}
	if p.eat(opLBrack) {
		if !p.at(tokNumber) {
			return nil, p.errCur("array size must be a constant")
		}
		g.size = p.next().val
		if g.size == 0 || g.size > 1<<20 {
			return nil, errf(g.line, "array size %d out of range", g.size)
		}
		if err := p.expect(opRBrack); err != nil {
			return nil, err
		}
	} else if p.eat(opAssign) {
		if !p.at(tokNumber) {
			return nil, p.errCur("global initializer must be a constant")
		}
		g.init = p.next().val
	}
	return g, p.expect(opSemi)
}

func (p *parser) funcDecl() (*funcDecl, error) {
	kw := p.next() // 'func'
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f := &funcDecl{name: name, line: int(kw.line)}
	if err := p.expect(opLParen); err != nil {
		return nil, err
	}
	for !p.atCode(opRParen) {
		if len(f.params) > 0 {
			if err := p.expect(opComma); err != nil {
				return nil, err
			}
		}
		prm, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		f.params = append(f.params, prm)
	}
	p.advance() // ')'
	if len(f.params) > 4 {
		return nil, errf(f.line, "function %s: at most 4 parameters (r0-r3 ABI)", p.names[f.name])
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	f.body = body
	return f, nil
}

func (p *parser) block() (*blockStmt, error) {
	line := p.line()
	if err := p.expect(opLBrace); err != nil {
		return nil, err
	}
	b := p.blocks.new(blockStmt{line: line})
	for !p.atCode(opRBrace) {
		if p.at(tokEOF) {
			return nil, errf(line, "unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
	}
	p.advance() // '}'
	return b, nil
}

func (p *parser) statement() (stmt, error) {
	line := p.line()
	switch p.tok.code {
	case opLBrace:
		return p.block()
	case kwVar:
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s := p.vars.new(varStmt{name: name, line: line})
		if p.eat(opAssign) {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.init = e
		}
		return s, p.expect(opSemi)
	case kwIf:
		p.advance()
		cond, err := p.condition()
		if err != nil {
			return nil, err
		}
		then, err := p.statement()
		if err != nil {
			return nil, err
		}
		s := p.ifs.new(ifStmt{cond: cond, then: then, line: line})
		if p.eat(kwElse) {
			els, err := p.statement()
			if err != nil {
				return nil, err
			}
			s.els_ = els
		}
		return s, nil
	case kwWhile:
		p.advance()
		cond, err := p.condition()
		if err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return p.whiles.new(whileStmt{cond: cond, body: body, line: line}), nil
	case kwReturn:
		p.advance()
		s := p.returns.new(returnStmt{line: line})
		if !p.atCode(opSemi) {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.val = e
		}
		return s, p.expect(opSemi)
	case kwBreak:
		p.advance()
		return p.breaks.new(breakStmt{line: line}), p.expect(opSemi)
	case kwContinue:
		p.advance()
		return p.conts.new(continueStmt{line: line}), p.expect(opSemi)
	}
	// Expression or assignment statement.
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	if p.eat(opAssign) {
		rhs, err := p.expression()
		if err != nil {
			return nil, err
		}
		return p.assigns.new(assignStmt{lhs: e, rhs: rhs, line: line}), p.expect(opSemi)
	}
	return p.exprStmts.new(exprStmt{e: e, line: line}), p.expect(opSemi)
}

// condition parses the parenthesized condition of an if or while.
func (p *parser) condition() (expr, error) {
	if err := p.expect(opLParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	return cond, p.expect(opRParen)
}

// Binary operator precedence (higher binds tighter); 0 for codes that are
// not binary operators.
var precedence = [numCodes]int{
	opOrOr: 1, opAndAnd: 2, opOr: 3, opXor: 4, opAnd: 5,
	opEq: 6, opNe: 6,
	opLt: 7, opLe: 7, opGt: 7, opGe: 7,
	opShl: 8, opShr: 8,
	opAdd: 9, opSub: 9,
	opMul: 10, opDiv: 10, opMod: 10,
}

func (p *parser) expression() (expr, error) { return p.binary(1) }

func (p *parser) binary(minPrec int) (expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		prec := precedence[p.tok.code]
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = p.bins.new(binExpr{op: op.code, l: lhs, r: rhs, line: int(op.line)})
	}
}

func (p *parser) unary() (expr, error) {
	switch p.tok.code {
	case opSub, opNot, opCompl, opMul, opAnd:
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return p.unaries.new(unaryExpr{op: t.code, x: x, line: int(t.line)}), nil
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.atCode(opLBrack) {
		t := p.next()
		idx, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expect(opRBrack); err != nil {
			return nil, err
		}
		e = p.indexes.new(indexExpr{base: e, idx: idx, line: int(t.line)})
	}
	return e, nil
}

func (p *parser) primary() (expr, error) {
	t := p.tok
	switch {
	case t.kind == tokNumber:
		p.advance()
		return p.nums.new(numExpr{val: t.val, line: int(t.line)}), nil
	case t.kind == tokIdent:
		p.advance()
		if p.eat(opLParen) {
			call := p.calls.new(callExpr{name: t.val, line: int(t.line)})
			for !p.atCode(opRParen) {
				if len(call.args) > 0 {
					if err := p.expect(opComma); err != nil {
						return nil, err
					}
				}
				a, err := p.expression()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, a)
			}
			p.advance() // ')'
			return call, nil
		}
		return p.idents.new(identExpr{name: t.val, line: int(t.line)}), nil
	case t.code == opLParen:
		p.advance()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return e, p.expect(opRParen)
	}
	return nil, errf(int(t.line), "unexpected %s in expression", p.describe(&t))
}
