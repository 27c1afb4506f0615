package gac

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"atomemu/internal/asm"
)

// TestCompileGolden holds the compiler to byte-identical output: every GAC
// program in the repository, and seeded generated programs that use every
// statement, operator and builtin, must compile to exactly the image whose
// digest testdata/compile_golden.txt records. A deliberate change to code
// generation rewrites that file from the table this test prints on failure.
func TestCompileGolden(t *testing.T) {
	got := map[string]string{}
	var names []string
	add := func(name, src string, org uint32) {
		im, err := CompileAt(src, org)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		got[name] = imageDigest(im)
		names = append(names, name)
	}
	for _, c := range goldenCorpus(t) {
		add(c.name, c.src, 0x10000)
	}
	for i, stmts := range []int{1000, 1400, 1800, 2200, 2600, 3000} {
		src := genProgram(uint64(i+1), stmts)
		add(fmt.Sprintf("gen/seed%d/%d", i+1, stmts), src, 0x10000)
		if i == 0 {
			add(fmt.Sprintf("gen/seed%d/%d@0x400000", i+1, stmts), src, 0x400000)
		}
	}
	sort.Strings(names)

	want := readGolden(t, "testdata/compile_golden.txt")
	bad := false
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no recorded digest", name)
			bad = true
		} else if w != got[name] {
			t.Errorf("%s: image digest %s, recorded %s", name, got[name], w)
			bad = true
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded but no longer in the corpus", name)
			bad = true
		}
	}
	if bad {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		t.Logf("the table as compiled now:\n%s", b.String())
	}
}

// imageDigest hashes what a loader sees of an image: origin, entry, every
// word and the sorted symbol table.
func imageDigest(im *asm.Image) string {
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	put(im.Org)
	put(im.Entry)
	put(uint32(len(im.Words)))
	for _, v := range im.Words {
		put(v)
	}
	syms := make([]string, 0, len(im.Symbols))
	for name := range im.Symbols {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	for _, name := range syms {
		h.Write([]byte(name))
		h.Write([]byte{0})
		put(im.Symbols[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

type goldenSource struct{ name, src string }

// goldenCorpus gathers the repository's GAC programs: every string literal
// of the Go files below that compiles (test programs and embedded guests),
// the fuzz seed corpus and the .gac files. A literal is named by its file
// and the first bytes of its own digest, so editing one program renames
// only its row.
func goldenCorpus(t *testing.T) []goldenSource {
	t.Helper()
	var out []goldenSource
	named := func(file, src string) goldenSource {
		sum := sha256.Sum256([]byte(src))
		return goldenSource{file + ":" + hex.EncodeToString(sum[:6]), src}
	}
	for _, file := range []string{
		"gac_test.go",
		"fuzz_test.go",
		"../../examples/gaclang/main.go",
		"../../cmd/atomemu-bench/crashsoak.go",
	} {
		fset := gotoken.NewFileSet()
		f, err := goparser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.Contains(src, "func main") {
				return true
			}
			if _, err := Compile(src); err == nil {
				out = append(out, named(filepath.Base(file), src))
			}
			return true
		})
	}
	seeds, err := filepath.Glob("testdata/fuzz/FuzzGACParse/*")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("../../cmd/atomemu/testdata/*.gac")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(seeds, files...) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		if strings.HasPrefix(src, "go test fuzz v1\n") {
			line := strings.TrimSpace(strings.TrimPrefix(src, "go test fuzz v1\n"))
			if src, err = strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		out = append(out, goldenSource{filepath.Base(path), src})
	}
	if len(out) < 20 {
		t.Fatalf("corpus has only %d programs", len(out))
	}
	return out
}

// genProgram writes a seeded GAC program of about stmts statements that uses
// every statement form, operator, builtin and number syntax. It is compiled,
// never run: loops need not end and calls need not make sense.
func genProgram(seed uint64, stmts int) string {
	g := &progGen{s: seed}
	g.b.WriteString("// generated\n/* globals:\n   scalars and arrays */\nvar acc;\nvar flag = 0x1f;\nvar big = 4000000000;\nvar arr[64];\nvar cells[16];\n")
	g.helper("h0", 0, 20)
	g.helper("h1", 1, 40)
	g.helper("h2", 2, 40)
	g.helper("h3", 3, 40)
	g.helper("h4", 4, 40)
	g.b.WriteString("func main(a) {\n")
	g.locals = []string{"a"}
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&g.b, "var v%d = %s;\n", i, g.number())
		g.locals = append(g.locals, fmt.Sprintf("v%d", i))
	}
	g.budget = stmts
	for g.budget > 0 {
		g.stmt(0, 0)
	}
	g.b.WriteString("exit(acc);\n}\n")
	return g.b.String()
}

type progGen struct {
	s      uint64
	b      strings.Builder
	locals []string
	fresh  int
	budget int
}

func (g *progGen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (g *progGen) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *progGen) helper(name string, params, stmts int) {
	g.locals = g.locals[:0]
	var ps []string
	for i := 0; i < params; i++ {
		ps = append(ps, fmt.Sprintf("p%d", i))
	}
	g.locals = append(g.locals, ps...)
	fmt.Fprintf(&g.b, "func %s(%s) {\n", name, strings.Join(ps, ", "))
	if params == 0 {
		g.b.WriteString("var z;\n")
		g.locals = append(g.locals, "z")
	}
	g.budget = stmts
	for g.budget > 0 {
		g.stmt(0, 0)
	}
	if params%2 == 0 {
		g.b.WriteString("return;\n}\n")
	} else {
		fmt.Fprintf(&g.b, "return %s;\n}\n", g.expr(2))
	}
}

func (g *progGen) number() string {
	v := g.next()
	switch g.intn(6) {
	case 0:
		return strconv.FormatUint(v%10, 10)
	case 1:
		return strconv.FormatUint(v%4096, 10)
	case 2:
		return strconv.FormatUint(v%65536, 10)
	case 3:
		return "0x" + strconv.FormatUint(v&0xffffffff, 16)
	case 4:
		return "0" + strconv.FormatUint(v%512, 8)
	}
	return strconv.FormatUint(v&0xffffffff, 10)
}

func (g *progGen) local() string { return g.locals[g.intn(len(g.locals))] }

var genBinOps = []string{"||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=", "<<", ">>", "+", "-", "*", "/", "%"}

func (g *progGen) expr(depth int) string {
	if depth <= 0 {
		switch g.intn(4) {
		case 0:
			return g.number()
		case 1:
			return "acc"
		}
		return g.local()
	}
	switch g.intn(14) {
	case 0:
		return g.number()
	case 1:
		return g.local()
	case 2:
		return []string{"acc", "flag", "big"}[g.intn(3)]
	case 3:
		return fmt.Sprintf("arr[%s]", g.expr(depth-1))
	case 4:
		return fmt.Sprintf("%s%s", []string{"-", "!", "~"}[g.intn(3)], g.expr(depth-1))
	case 5:
		return fmt.Sprintf("*(&arr[%d])", g.intn(64))
	case 6:
		return fmt.Sprintf("&cells[%s]", g.expr(depth-1))
	case 7:
		return fmt.Sprintf("h%d(%s)", 1, g.expr(depth-1))
	case 8:
		return fmt.Sprintf("h2(%s, %s)", g.expr(depth-1), g.expr(depth-1))
	case 9:
		return g.builtinExpr(depth - 1)
	case 10:
		return fmt.Sprintf("(%s)", g.expr(depth-1))
	}
	op := genBinOps[g.intn(len(genBinOps))]
	return fmt.Sprintf("%s %s %s", g.expr(depth-1), op, g.expr(depth-1))
}

func (g *progGen) builtinExpr(depth int) string {
	e := func() string { return g.expr(depth) }
	switch g.intn(14) {
	case 0:
		return "tid()"
	case 1:
		return "clock()"
	case 2:
		return fmt.Sprintf("ll(&arr[%d])", g.intn(64))
	case 3:
		return fmt.Sprintf("sc(&acc, %s)", e())
	case 4:
		return fmt.Sprintf("atomic_add(&acc, %s)", e())
	case 5:
		return fmt.Sprintf("atomic_xchg(&cells[%d], %s)", g.intn(16), e())
	case 6:
		return fmt.Sprintf("atomic_cas(&flag, %s, %s)", e(), e())
	case 7:
		return fmt.Sprintf("spawn(h1, %s)", e())
	case 8:
		return fmt.Sprintf("spawn(h0, %s)", e())
	case 9:
		return fmt.Sprintf("mmap(%s)", e())
	case 10:
		return fmt.Sprintf("futex_wait(&acc, %s)", e())
	case 11:
		return fmt.Sprintf("futex_wake(&acc, %s)", e())
	case 12:
		return fmt.Sprintf("h3(%s, %s, %s)", e(), e(), e())
	}
	return fmt.Sprintf("h4(%s, %s, %s, %s)", e(), e(), e(), e())
}

// stmt writes one statement; loops counts the enclosing while loops.
func (g *progGen) stmt(depth, loops int) {
	g.budget--
	d := 1 + g.intn(3)
	if depth > 3 {
		fmt.Fprintf(&g.b, "%s = %s;\n", g.local(), g.expr(d))
		return
	}
	switch pick := g.intn(100); {
	case pick < 25:
		fmt.Fprintf(&g.b, "%s = %s;\n", g.local(), g.expr(d))
	case pick < 30:
		fmt.Fprintf(&g.b, "acc = %s;\n", g.expr(d))
	case pick < 36:
		fmt.Fprintf(&g.b, "arr[%s] = %s;\n", g.expr(1), g.expr(d))
	case pick < 40:
		fmt.Fprintf(&g.b, "*(&cells[%d]) = %s;\n", g.intn(16), g.expr(d))
	case pick < 44:
		if len(g.locals) < 200 {
			name := fmt.Sprintf("t%d", g.fresh)
			g.fresh++
			if g.intn(2) == 0 {
				fmt.Fprintf(&g.b, "var %s = %s;\n", name, g.expr(d))
			} else {
				fmt.Fprintf(&g.b, "var %s;\n", name)
			}
			g.locals = append(g.locals, name)
		} else {
			fmt.Fprintf(&g.b, "%s;\n", g.expr(d))
		}
	case pick < 52:
		fmt.Fprintf(&g.b, "if (%s) {\n", g.expr(d))
		g.block(depth, loops)
		if g.intn(2) == 0 {
			g.b.WriteString("} else {\n")
			g.block(depth, loops)
		}
		g.b.WriteString("}\n")
	case pick < 55:
		fmt.Fprintf(&g.b, "if (%s) %s = %s; else %s = 0;\n", g.expr(d), g.local(), g.expr(1), g.local())
	case pick < 60:
		fmt.Fprintf(&g.b, "while (%s < %s) {\n", g.local(), g.number())
		g.block(depth, loops+1)
		g.b.WriteString("}\n")
	case pick < 63 && loops > 0:
		fmt.Fprintf(&g.b, "if (%s) { break; }\n", g.expr(1))
	case pick < 66 && loops > 0:
		fmt.Fprintf(&g.b, "if (%s) continue;\n", g.expr(1))
	case pick < 70:
		g.b.WriteString("{\n")
		g.block(depth, loops)
		g.b.WriteString("}\n")
	case pick < 74:
		fmt.Fprintf(&g.b, "print(%s); // trace\n", g.expr(d))
	case pick < 76:
		fmt.Fprintf(&g.b, "if (%s) { exit(%s); }\n", g.expr(1), g.expr(1))
	case pick < 78:
		fmt.Fprintf(&g.b, "join(%s);\n", g.expr(1))
	case pick < 80:
		fmt.Fprintf(&g.b, "barrier_init(&cells[%d], %s);\nbarrier_wait(&cells[%d]);\n", g.intn(16), g.number(), g.intn(16))
	case pick < 82:
		g.b.WriteString("yield(); fence(); clrex(); /* hints */\n")
	case pick < 84:
		fmt.Fprintf(&g.b, "h0();\n")
	case pick < 86:
		fmt.Fprintf(&g.b, "if (%s) { return %s; }\n", g.expr(1), g.expr(1))
	case pick < 87:
		g.b.WriteString("if (acc == 7) { return; }\n")
	default:
		fmt.Fprintf(&g.b, "%s;\n", g.builtinExpr(d))
	}
}

func (g *progGen) block(depth, loops int) {
	for n := 1 + g.intn(4); n > 0 && g.budget > 0; n-- {
		g.stmt(depth+1, loops)
	}
}
