package gac

import (
	"testing"

	"atomemu/internal/arch"
)

// FuzzGACParse feeds arbitrary text through the full GAC pipeline (lexer,
// parser, code generator). It must never panic, and any program it accepts
// must compile to an image of decodable instructions up to the data section.
func FuzzGACParse(f *testing.F) {
	f.Add("func main() { exit(0); }")
	f.Add("var x = 3;\nfunc main() { x = x + 1; print(x); }")
	f.Add("func main() { var i = 0; while (i < 10) { i = i + 1; } exit(i); }")
	f.Add("func add(a, b) { return a + b; }\nfunc main() { print(add(2, 3)); }")
	f.Add("var cell = 10;\nfunc main() { print(atomic_add(&cell, 5)); print(atomic_cas(&cell, 15, 1)); }")
	f.Add("func main() { if (1) { exit(1); } else { exit(2); } }")
	f.Add("}{)(;;")
	f.Fuzz(func(t *testing.T, src string) {
		im, err := Compile(src)
		if err != nil {
			return
		}
		if im == nil {
			t.Fatal("Compile returned nil image and nil error")
		}
		// Entry must land inside the image on a word boundary.
		if im.Entry < im.Org || im.Entry >= im.End() || im.Entry%arch.WordBytes != 0 {
			t.Fatalf("entry %#x outside image [%#x,%#x)", im.Entry, im.Org, im.End())
		}
	})
}

// FuzzLexMatchesReference holds the scanning lexer to the string-token
// lexer it replaced (lexer_ref_test.go): for any input, the same tokens —
// kind, text, value and line — or the same error. A lexical error must
// also be what Compile reports, whatever the parser met first.
func FuzzLexMatchesReference(f *testing.F) {
	f.Add("var x = 0x1f + 42;\nfunc main() { return x <= 3 && y != 0x_ff || !z; }")
	f.Add("a<=b>=c==d!=e&&f||g<<h>>i = ~j % k ^ l | m & n")
	f.Add("var a = 1_000; var b = 0b101; var c = 0o17; var d = 0777; var e = 09;")
	f.Add("x = 0x; y = 1e5; z = 99999999999999;")
	f.Add("// comment\n/* block\n comment */ a /* */ b //")
	f.Add("/* never closed\n\n")
	f.Add("caf\xe9 = \xc3\xa9; \xaa\xb5\xba \xd7 \x80")
	f.Add("func main() { $; }")
	f.Add("\t\r\n_a9 0xAbC _ __ 0X1F")
	f.Add(genProgram(7, 40))
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := refLex(src)
		got, l, err := lexAll(src)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("lex error %v, reference %v", err, wantErr)
			}
			if _, cerr := Compile(src); cerr == nil || cerr.Error() != wantErr.Error() {
				t.Fatalf("Compile error %v, lex error %v", cerr, wantErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d tokens, reference %d", len(got), len(want))
		}
		for i := range want {
			g, w := &got[i], &want[i]
			text := l.text(g)
			if g.kind != w.kind || text != w.text || int(g.line) != w.line {
				t.Fatalf("token %d = kind %d %q line %d, reference kind %d %q line %d",
					i, g.kind, text, g.line, w.kind, w.text, w.line)
			}
			switch g.kind {
			case tokNumber:
				if g.val != w.num {
					t.Fatalf("token %d %q = %d, reference %d", i, text, g.val, w.num)
				}
			case tokIdent:
				if l.names[g.val] != text {
					t.Fatalf("token %d %q interned as %q", i, text, l.names[g.val])
				}
			case tokKeyword, tokPunct:
				if g.code.String() != text {
					t.Fatalf("token %d %q carries code %q", i, text, g.code)
				}
			}
		}
	})
}
