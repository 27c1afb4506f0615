package gac

import (
	"fmt"
	"strings"
	"testing"

	"atomemu/internal/engine"
)

// run compiles and executes a GAC program single-threaded, returning the
// output log.
func run(t *testing.T, src string, scheme string, args ...uint32) []uint32 {
	t.Helper()
	m, _ := start(t, src, scheme, args...)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Output()
}

func start(t *testing.T, src, scheme string, args ...uint32) (*engine.Machine, *engine.CPU) {
	t.Helper()
	im, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(scheme)
	cfg.MaxGuestInstrs = 200_000_000
	m, err := engine.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	c, err := m.Start(im.Entry, args...)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func expectOutput(t *testing.T, src string, want ...uint32) {
	t.Helper()
	got := run(t, src, "hst")
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output = %v, want %v", got, want)
		}
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	expectOutput(t, `
func main() {
    print(2 + 3 * 4);          // 14
    print((2 + 3) * 4);        // 20
    print(100 / 7);            // 14
    print(100 % 7);            // 2
    print(1 << 10);            // 1024
    print(0xff00 >> 8);        // 255
    print(0xf0 | 0x0f);        // 255
    print(0xff & 0x18);        // 24
    print(0xff ^ 0x0f);        // 240
    print(-5 + 10);            // 5
    print(~0 - 0xfffffffe);    // 1
    exit(0);
}`, 14, 20, 14, 2, 1024, 255, 255, 24, 240, 5, 1)
}

func TestComparisonsAndLogic(t *testing.T) {
	expectOutput(t, `
func main() {
    print(3 < 4);
    print(4 <= 4);
    print(5 > 6);
    print(5 >= 6);
    print(7 == 7);
    print(7 != 7);
    print(1 && 0);
    print(1 && 2);
    print(0 || 0);
    print(0 || 9);
    print(!0);
    print(!42);
    exit(0);
}`, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0)
}

func TestShortCircuitDoesNotEvaluate(t *testing.T) {
	// The right side of && must not run when the left is false: the global
	// would record it.
	expectOutput(t, `
var touched;
func touch() { touched = 1; return 1; }
func main() {
    var x = 0 && touch();
    print(x);
    print(touched);
    var y = 1 || touch();
    print(y);
    print(touched);
    exit(0);
}`, 0, 0, 1, 0)
}

func TestControlFlow(t *testing.T) {
	expectOutput(t, `
func main() {
    var i = 0;
    var sum = 0;
    while (i < 10) {
        i = i + 1;
        if (i == 3) { continue; }
        if (i == 8) { break; }
        sum = sum + i;
    }
    print(sum);                 // 1+2+4+5+6+7 = 25
    if (sum > 20) { print(1); } else { print(2); }
    exit(0);
}`, 25, 1)
}

func TestFunctionsAndRecursion(t *testing.T) {
	expectOutput(t, `
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func max(a, b) {
    if (a > b) { return a; }
    return b;
}
func sub2(a, b) { return a - b; }
func main() {
    print(fib(15));            // 610
    print(max(3, 9));
    print(max(9, 3));
    print(sub2(10, 4));        // argument order: 6, not -6
    exit(0);
}`, 610, 9, 9, 6)
}

func TestGlobalsPointersArrays(t *testing.T) {
	expectOutput(t, `
var g = 7;
var arr[8];
func bump(p) { *p = *p + 1; }
func main() {
    bump(&g);
    bump(&g);
    print(g);                   // 9
    var i = 0;
    while (i < 8) { arr[i] = i * i; i = i + 1; }
    print(arr[5]);              // 25
    print(*(&arr[3]));          // 9
    var p = &arr[0];
    print(*(p + 4 * 2));        // arr[2] = 4
    exit(0);
}`, 9, 25, 9, 4)
}

func TestAtomicBuiltinsSingleThread(t *testing.T) {
	expectOutput(t, `
var cell = 10;
func main() {
    print(atomic_add(&cell, 5));       // returns new value: 15
    print(atomic_xchg(&cell, 99));     // returns old: 15
    print(cell);                       // 99
    print(atomic_cas(&cell, 99, 1));   // success: 0
    print(atomic_cas(&cell, 99, 2));   // mismatch: 1
    print(cell);                       // 1
    var v = ll(&cell);
    print(v);                          // 1
    print(sc(&cell, 42));              // success: 0
    print(cell);                       // 42
    exit(0);
}`, 15, 15, 99, 0, 1, 1, 1, 0, 42)
}

func TestSpawnJoinThreads(t *testing.T) {
	// Concurrency correctness end-to-end from the high-level language.
	for _, scheme := range []string{"pico-cas", "hst", "pst"} {
		t.Run(scheme, func(t *testing.T) {
			out := run(t, `
var counter;
var done;
func worker(n) {
    var i = 0;
    while (i < n) {
        atomic_add(&counter, 1);
        i = i + 1;
    }
    atomic_add(&done, 1);
}
func main() {
    var t1 = spawn(worker, 2000);
    var t2 = spawn(worker, 2000);
    worker(2000);
    join(t1);
    join(t2);
    print(counter);
    print(done);
    exit(0);
}`, scheme)
			if len(out) != 2 || out[0] != 6000 || out[1] != 3 {
				t.Fatalf("output = %v, want [6000 3]", out)
			}
		})
	}
}

// TestLockFreeStackInGAC: the paper's Figure 3 micro-benchmark written in
// the high-level language — ABA under pico-cas would corrupt it; under HST
// it must survive.
func TestLockFreeStackInGAC(t *testing.T) {
	src := `
var top;
var nodes[32];     // 16 nodes x [next, value]

func push(node) {
    var old = ll(&top);
    *node = old;                 // node->next = old (store in the window)
    while (sc(&top, node)) {
        old = ll(&top);
        *node = old;
    }
}

func pop() {
    while (1) {
        var old = ll(&top);
        if (old == 0) { clrex(); return 0; }
        var next = *old;
        if (sc(&top, next) == 0) { return old; }
    }
}

func worker(n) {
    var i = 0;
    while (i < n) {
        var node = pop();
        if (node == 0) { yield(); continue; }
        *(node + 4) = *(node + 4) + 1;   // touch the payload
        push(node);
        i = i + 1;
    }
}

func main(n) {
    // Link 16 nodes onto the stack.
    var i = 0;
    while (i < 16) {
        var node = &nodes[i * 2];
        if (i == 15) { *node = 0; } else { *node = &nodes[(i + 1) * 2]; }
        top = node;
        i = i + 1;
    }
    // Relink properly: push order above left top at the last node; rebuild.
    top = 0;
    i = 0;
    while (i < 16) {
        push(&nodes[i * 2]);
        i = i + 1;
    }
    var t1 = spawn(worker, n);
    var t2 = spawn(worker, n);
    var t3 = spawn(worker, n);
    worker(n);
    join(t1); join(t2); join(t3);
    // Audit: walk the stack counting nodes and self-loops.
    var count = 0;
    var cur = top;
    while (cur != 0) {
        if (*cur == cur) { print(777777); exit(2); }  // ABA signature
        count = count + 1;
        if (count > 16) { print(888888); exit(3); }   // cycle
        cur = *cur;
    }
    print(count);
    exit(0);
}`
	m, _ := start(t, src, "hst", 1500)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	if len(out) != 1 || out[0] != 16 {
		t.Fatalf("stack audit = %v, want [16] — corruption under HST", out)
	}
}

func TestExitCodePropagates(t *testing.T) {
	m, c := start(t, "func main() { exit(42); }", "pico-cas")
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode() != 42 {
		t.Fatalf("exit code = %d", c.ExitCode())
	}
}

func TestMainReceivesArgument(t *testing.T) {
	m, _ := start(t, "func main(n) { print(n * 2); exit(0); }", "pico-cas", 21)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 42 {
		t.Fatalf("output = %v", out)
	}
}

// TestCompileErrors has one row per error path of the lexer, parser, code
// generator and builder, each with the exact message, line included.
func TestCompileErrors(t *testing.T) {
	var manyLocals strings.Builder
	manyLocals.WriteString("func main() {\n")
	for i := 0; i < 513; i++ {
		fmt.Fprintf(&manyLocals, "var l%d;\n", i)
	}
	manyLocals.WriteString("}\n")
	cases := []struct {
		name, src string
		org       uint32
		want      string
	}{
		// lexer
		{name: "bad token", src: "func main() { $; }", want: "gac: line 1: unexpected character \"$\""},
		{name: "non-ASCII byte", src: "func main() {\n\x80; }", want: "gac: line 2: unexpected character \"\\u0080\""},
		{name: "Latin-1 letter then bad byte", src: "func main() { \xc3\xa9; }", want: "gac: line 1: unexpected character \"©\""},
		{name: "unterminated comment", src: "func main() {}\n/* never\nclosed", want: "gac: line 2: unterminated block comment"},
		{name: "number overflows", src: "var x = 99999999999999;", want: "gac: line 1: bad number \"99999999999999\""},
		{name: "bare hex prefix", src: "var x = 0x;", want: "gac: line 1: bad number \"0x\""},
		{name: "bad octal", src: "\nvar x = 09;", want: "gac: line 2: bad number \"09\""},
		{name: "letters in number", src: "var x = 1e5;", want: "gac: line 1: bad number \"1e5\""},
		{name: "misplaced underscore", src: "var x = 1__0;", want: "gac: line 1: bad number \"1__0\""},
		// parser
		{name: "top level junk", src: "x = 1;", want: "gac: line 1: expected 'var' or 'func', got \"x\""},
		{name: "top level number", src: "42", want: "gac: line 1: expected 'var' or 'func', got number 42"},
		{name: "missing identifier", src: "func main( { }", want: "gac: line 1: expected identifier, got \"{\""},
		{name: "var without name", src: "func main() { var; }", want: "gac: line 1: expected identifier, got \";\""},
		{name: "while without parens", src: "func main() { while 1 {} }", want: "gac: line 1: expected \"(\", got number 1"},
		{name: "missing semicolon", src: "func main() { return 1 }", want: "gac: line 1: expected \";\", got \"}\""},
		{name: "missing semicolon at end", src: "var g", want: "gac: line 1: expected \";\", got end of file"},
		{name: "array size not const", src: "var a[x]; func main() {}", want: "gac: line 1: array size must be a constant"},
		{name: "array size zero", src: "var a[0]; func main() {}", want: "gac: line 1: array size 0 out of range"},
		{name: "array size too big", src: "\n\nvar a[2000000]; func main() {}", want: "gac: line 3: array size 2000000 out of range"},
		{name: "global init not const", src: "var g = x; func main() {}", want: "gac: line 1: global initializer must be a constant"},
		{name: "global init not folded", src: "var g = 1 + 2; func main() {}", want: "gac: line 1: expected \";\", got \"+\""},
		{name: "too many params", src: "func f(a, b, c, d, e) {} func main() {}", want: "gac: line 1: function f: at most 4 parameters (r0-r3 ABI)"},
		{name: "missing comma", src: "func f(a b) {}", want: "gac: line 1: expected \",\", got \"b\""},
		{name: "unterminated block", src: "func main() {", want: "gac: line 1: unterminated block"},
		{name: "unexpected token in expression", src: "func main() { return ); }", want: "gac: line 1: unexpected \")\" in expression"},
		{name: "expression at end of file", src: "func main() { return", want: "gac: line 1: unexpected end of file in expression"},
		{name: "unclosed paren", src: "func main() { print((1 + 2); }", want: "gac: line 1: expected \",\", got \";\""},
		{name: "unclosed index", src: "var a[2]; func main() { a[1 = 2; }", want: "gac: line 1: expected \"]\", got \"=\""},
		// code generator
		{name: "no main", src: "func f() {}", want: "gac: line 1: no main function"},
		{name: "duplicate global", src: "var g;\nvar g; func main() {}", want: "gac: line 2: duplicate global \"g\""},
		{name: "duplicate function", src: "func f() {}\nfunc f() {} func main() {}", want: "gac: line 2: duplicate function \"f\""},
		{name: "global and function", src: "var f;\nfunc f() {} func main() {}", want: "gac: line 2: \"f\" is both a global and a function"},
		{name: "duplicate parameter", src: "func f(a, a) {} func main() {}", want: "gac: line 1: duplicate parameter \"a\""},
		{name: "duplicate local", src: "func main() {\nvar a;\nvar a; }", want: "gac: line 3: duplicate local \"a\""},
		{name: "parameter redeclared", src: "func main(a) { var a; }", want: "gac: line 1: duplicate local \"a\""},
		{name: "too many locals", src: manyLocals.String(), want: "gac: line 1: function main: too many locals (513)"},
		{name: "break outside loop", src: "func main() { break; }", want: "gac: line 1: break outside loop"},
		{name: "continue outside loop", src: "func main() {\ncontinue; }", want: "gac: line 2: continue outside loop"},
		{name: "assign to undefined", src: "func main() { x = 1; }", want: "gac: line 1: assignment to undefined name \"x\""},
		{name: "assign to unary", src: "func main() { var x; -x = 1; }", want: "gac: line 1: cannot assign to unary \"-\" expression"},
		{name: "assign to expression", src: "func main() { 1 + 2 = 3; }", want: "gac: line 1: invalid assignment target"},
		{name: "undefined variable", src: "func main() { print(x); }", want: "gac: line 1: undefined name \"x\""},
		{name: "address of local", src: "func main() { var a; print(&a); }", want: "gac: line 1: cannot take the address of local \"a\" (locals live in the frame; use a global)"},
		{name: "address of undefined", src: "func main() { print(&y); }", want: "gac: line 1: undefined name \"y\""},
		{name: "address of constant", src: "func main() { print(&1); }", want: "gac: line 1: expression is not addressable"},
		{name: "index a local", src: "func main() { var l; print(l[0]); }", want: "gac: line 1: indexing requires a global array"},
		{name: "assign through bad index", src: "func main() { var l; l[0] = 1; }", want: "gac: line 1: indexing requires a global array"},
		{name: "undefined function", src: "func main() { f(); }", want: "gac: line 1: call to undefined function \"f\""},
		{name: "wrong arity", src: "func f(a) {} func main() { f(1, 2); }", want: "gac: line 1: f takes 1 argument(s), got 2"},
		{name: "builtin arity", src: "func main() { print(); }", want: "gac: line 1: print takes 1 argument(s), got 0"},
		{name: "spawn arity", src: "func main() { spawn(main); }", want: "gac: line 1: spawn takes (func, arg)"},
		{name: "bad spawn target", src: "func main() { spawn(1 + 2, 0); }", want: "gac: line 1: spawn's first argument must name a function"},
		{name: "spawn two params", src: "func f(a, b) {} func main() { spawn(f, 0); }", want: "gac: line 1: spawned function \"f\" may take at most one parameter"},
		{name: "first error wins", src: "func main() { print(x); }\nfunc g() { break; }", want: "gac: line 1: undefined name \"x\""},
		// builder
		{name: "misaligned origin", src: "func main() {}", org: 0x10002, want: "asm: 1 error(s), first: asm: org 0x10002 not word-aligned"},
	}
	for _, c := range cases {
		org := c.org
		if org == 0 {
			org = 0x10000
		}
		_, err := CompileAt(c.src, org)
		if err == nil {
			t.Errorf("%s: compile should fail:\n%s", c.name, c.src)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error\n  %q\nwant\n  %q", c.name, err.Error(), c.want)
		}
	}
}

func TestCommentsAndHexNumbers(t *testing.T) {
	expectOutput(t, `
// line comment
/* block
   comment */
func main() {
    print(0x10);   // 16
    print(0777);   // octal via strconv: 511
    exit(0);
}`, 16, 511)
}

func TestDeepExpressionStack(t *testing.T) {
	// Nested expressions exercise the push/pop temporary stack.
	expectOutput(t, `
func main() {
    print(((1 + 2) * (3 + 4)) - ((5 - 6) * (7 + 8)));  // 21 + 15 = 36
    exit(0);
}`, 36)
}

// TestGACAtomicAddFuses: the compiler's atomic_add emits exactly the LL/SC
// retry shape the rule-based fuser recognizes — with fusion on, no SC ever
// fails and the result is still exact.
func TestGACAtomicAddFuses(t *testing.T) {
	im, err := Compile(`
var counter;
func worker(n) {
    var i = 0;
    while (i < n) { atomic_add(&counter, 1); i = i + 1; }
}
func main(n) {
    var t1 = spawn(worker, n);
    worker(n);
    join(t1);
    print(counter);
    exit(0);
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig("hst")
	cfg.FuseAtomics = true
	cfg.MaxGuestInstrs = 200_000_000
	m, err := engine.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry, 3000); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 6000 {
		t.Fatalf("output = %v, want [6000]", out)
	}
	agg := m.AggregateStats()
	if agg.SCFails != 0 {
		t.Fatalf("SC failures under fusion: %d — atomic_add did not fuse", agg.SCFails)
	}
	if agg.LLs < 6000 {
		t.Fatalf("fused RMWs not counted as LL/SC pairs: %d", agg.LLs)
	}
}
