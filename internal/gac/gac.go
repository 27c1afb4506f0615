// Package gac implements GAC ("GA32 C"), a small C-like language that
// compiles to GA32 guest images — so atomemu guest programs (tests,
// workloads, reproduction experiments) can be written above assembly level.
// The compiler is a classic three-stage pipeline: hand-written lexer,
// recursive-descent parser with precedence climbing, and a one-pass code
// generator that emits through the internal/asm macro-assembler.
//
// The language, in one example:
//
//	var counter;          // one-word global, zero-initialized
//	var nodes[64];        // word-array global
//
//	func worker(n) {
//	    var i = 0;
//	    while (i < n) {
//	        atomic_add(&counter, 1);   // LL/SC retry loop (fusable, §VI)
//	        i = i + 1;
//	    }
//	    return i;
//	}
//
//	func main(arg) {
//	    var t = spawn(worker, arg);
//	    worker(arg);
//	    join(t);
//	    print(counter);
//	    exit(0);
//	}
//
// Everything is a 32-bit word. Pointers are words; `&g` takes a global's
// address, `*p` dereferences, `g[i]` indexes a global array. Control flow:
// if/else, while, break, continue, return. Builtins map to the engine's
// guest syscalls (print, exit, spawn, join, tid, futex_wait, futex_wake,
// barrier_init, barrier_wait, mmap, clock, yield) and to atomic primitives
// (ll, sc, clrex, fence, atomic_add, atomic_xchg, atomic_cas) emitted as
// LL/SC instruction sequences — which the rule-based fuser then recognizes.
package gac

import (
	"fmt"

	"atomemu/internal/asm"
)

// Compile turns GAC source into a runnable guest image with entry at main.
func Compile(src string) (*asm.Image, error) {
	return CompileAt(src, 0x10000)
}

// CompileAt compiles with an explicit load address.
func CompileAt(src string, org uint32) (*asm.Image, error) {
	l := newLexer(src)
	prog, err := parse(l)
	if err != nil {
		return nil, err
	}
	return generate(prog, l.names, org)
}

// Error is a positioned compile error.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("gac: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
