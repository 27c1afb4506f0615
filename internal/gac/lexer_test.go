package gac

import "testing"

// lexAll scans all of src into a list, with the lexer that did it.
func lexAll(src string) ([]token, *lexer, error) {
	l := newLexer(src)
	var toks []token
	for {
		var t token
		l.scan(&t)
		if l.err != nil {
			return nil, l, l.err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, l, nil
		}
	}
}

func mustLex(t *testing.T, src string) ([]token, *lexer) {
	t.Helper()
	toks, l, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return toks, l
}

func TestLexBasics(t *testing.T) {
	toks, l := mustLex(t, "var x = 0x1f + 42;")
	want := []struct {
		kind tokKind
		code tokCode
		text string
	}{
		{tokKeyword, kwVar, "var"}, {tokIdent, codeNone, "x"}, {tokPunct, opAssign, "="},
		{tokNumber, codeNone, "0x1f"}, {tokPunct, opAdd, "+"}, {tokNumber, codeNone, "42"},
		{tokPunct, opSemi, ";"}, {tokEOF, codeNone, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		tk := &toks[i]
		if tk.kind != w.kind || tk.code != w.code || l.text(tk) != w.text {
			t.Errorf("token %d = %v %v %q, want %v %v %q", i, tk.kind, tk.code, l.text(tk), w.kind, w.code, w.text)
		}
	}
	if toks[3].val != 0x1f || toks[5].val != 42 {
		t.Errorf("numbers: %d %d", toks[3].val, toks[5].val)
	}
	if name := l.names[toks[1].val]; name != "x" {
		t.Errorf("identifier interned as %q", name)
	}
}

func TestLexMultiCharOps(t *testing.T) {
	toks, l := mustLex(t, "a<=b>=c==d!=e&&f||g<<h>>i")
	var ops []tokCode
	for i := range toks {
		if tk := &toks[i]; tk.kind == tokPunct {
			if l.text(tk) != tk.code.String() {
				t.Errorf("operator %q carries code %v", l.text(tk), tk.code)
			}
			ops = append(ops, tk.code)
		}
	}
	want := []tokCode{opLe, opGe, opEq, opNe, opAndAnd, opOrOr, opShl, opShr}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestLexLineTracking(t *testing.T) {
	toks, l := mustLex(t, "a\nb\n\nc")
	lines := map[string]int32{}
	for i := range toks {
		if tk := &toks[i]; tk.kind == tokIdent {
			lines[l.text(tk)] = tk.line
		}
	}
	if lines["a"] != 1 || lines["b"] != 2 || lines["c"] != 4 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestLexErrors(t *testing.T) {
	if _, _, err := lexAll("a $ b"); err == nil {
		t.Error("bad character should fail")
	}
	if _, _, err := lexAll("/* never closed"); err == nil {
		t.Error("unterminated comment should fail")
	}
	if _, _, err := lexAll("var x = 99999999999999;"); err == nil {
		t.Error("overflowing number should fail")
	}
}

func TestParsePrecedenceShape(t *testing.T) {
	prog, err := parse(newLexer("func main() { return 1 + 2 * 3 == 7 && 1; }"))
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.funcs[0].body.stmts[0].(*returnStmt)
	// Top level must be &&.
	and, ok := ret.val.(*binExpr)
	if !ok || and.op != opAndAnd {
		t.Fatalf("top op = %#v", ret.val)
	}
	eq, ok := and.l.(*binExpr)
	if !ok || eq.op != opEq {
		t.Fatalf("second level = %#v", and.l)
	}
	plus, ok := eq.l.(*binExpr)
	if !ok || plus.op != opAdd {
		t.Fatalf("third level = %#v", eq.l)
	}
	mul, ok := plus.r.(*binExpr)
	if !ok || mul.op != opMul {
		t.Fatalf("mul did not bind tighter: %#v", plus.r)
	}
}

func TestParseDanglingElse(t *testing.T) {
	prog, err := parse(newLexer("func main() { if (1) if (2) return 3; else return 4; }"))
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.funcs[0].body.stmts[0].(*ifStmt)
	if outer.els_ != nil {
		t.Fatal("else must bind to the inner if")
	}
	inner := outer.then.(*ifStmt)
	if inner.els_ == nil {
		t.Fatal("inner if lost its else")
	}
}

func TestParseErrorsHaveLines(t *testing.T) {
	cases := []string{
		"func main( { }",
		"func main() { var; }",
		"func main() { while 1 {} }",
		"var a[0]; func main() {}",
		"func main() { return 1 }",
	}
	for _, src := range cases {
		if _, _, err := lexAll(src); err != nil {
			continue
		}
		if _, err := parse(newLexer(src)); err == nil {
			t.Errorf("parse(%q) should fail", src)
		}
	}
}
