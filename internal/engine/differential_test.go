package engine

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"atomemu/internal/arch"
	"atomemu/internal/asm"
	"atomemu/internal/mmu"
)

// Differential testing: a single-threaded guest program must produce
// identical architectural results — registers, memory, output log — under
// every emulation scheme (LL/SC without interference always succeeds) and
// with the IR optimizer on or off. Divergence means a scheme or an
// optimizer pass changed guest semantics.

const scratchBase = 0x20000

// genProgram builds a random but terminating guest program: straight-line
// ALU/memory/LLSC ops with occasional bounded forward branches, operating
// on registers r0..r8 and a 4 KiB scratch region.
func genProgram(r *rand.Rand, nops int) (*asm.Image, error) {
	b := asm.NewBuilder(0x10000)
	// r4 stays the scratch base and r9/r10 are generator temps; everything
	// else is fair game.
	pool := []arch.Reg{arch.R0, arch.R1, arch.R2, arch.R3, arch.R5, arch.R6, arch.R7, arch.R8}
	reg := func() arch.Reg { return pool[r.Intn(len(pool))] }
	off := func() int32 { return int32(r.Intn(1024)) * 4 }

	b.Label("main")
	// Deterministic-ish initial registers.
	for i := 0; i < 9; i++ {
		b.MovImm32(arch.Reg(i), r.Uint32())
	}
	b.MovImm32(arch.R4, scratchBase) // keep r4 as the scratch base
	skip := 0
	for i := 0; i < nops; i++ {
		switch r.Intn(12) {
		case 0:
			b.Raw(arch.Instruction{Op: arch.ADD, Rd: reg(), Rn: reg(), Rm: reg()})
		case 1:
			b.Raw(arch.Instruction{Op: arch.SUBS, Rd: reg(), Rn: reg(), Rm: reg()})
		case 2:
			b.Raw(arch.Instruction{Op: arch.EORI, Rd: reg(), Rn: reg(), Imm: int32(r.Intn(4096))})
		case 3:
			b.Raw(arch.Instruction{Op: arch.MUL, Rd: reg(), Rn: reg(), Rm: reg()})
		case 4:
			b.Raw(arch.Instruction{Op: arch.LSRI, Rd: reg(), Rn: reg(), Imm: int32(r.Intn(31))})
		case 5:
			// Store then load so memory round-trips mix into registers.
			b.Str(reg(), arch.R4, off())
		case 6:
			b.Ldr(reg(), arch.R4, off())
		case 7:
			b.Strb(reg(), arch.R4, off()+int32(r.Intn(4)))
		case 8:
			// An uncontended LL/SC pair: must always succeed and store.
			o := off()
			dst := reg()
			b.AddI(arch.R9, arch.R4, o)
			b.Ldrex(dst, arch.R9)
			b.AddI(dst, dst, 1)
			b.Strex(arch.R10, dst, arch.R9)
			// Fold the status (always 0) into the data flow.
			b.Add(dst, dst, arch.R10)
		case 9:
			// Bounded forward skip over the next few instructions.
			b.Raw(arch.Instruction{Op: arch.CMPI, Rn: reg(), Imm: int32(r.Intn(4096))})
			label := fmt.Sprintf("skip%d", skip)
			skip++
			b.BCond(arch.Cond(r.Intn(int(arch.NumConds))), label)
			n := 1 + r.Intn(3)
			for j := 0; j < n; j++ {
				b.Raw(arch.Instruction{Op: arch.ADDI, Rd: reg(), Rn: reg(), Imm: int32(r.Intn(64))})
			}
			b.Label(label)
		case 10:
			b.Raw(arch.Instruction{Op: arch.UDIV, Rd: reg(), Rn: reg(), Rm: reg()})
		case 11:
			// Emit part of the register state to the output log.
			b.Mov(arch.R0, reg())
			b.Svc(6)
		}
	}
	// Final: write every register to the log, then exit.
	for i := 0; i < 9; i++ {
		b.Mov(arch.R0, arch.Reg(i))
		b.Svc(6)
	}
	b.MovI(arch.R0, 0)
	b.Svc(1)
	return b.Finish()
}

type archResult struct {
	output []uint32
	mem    []uint32
}

func runDifferential(t *testing.T, im *asm.Image, scheme string, noOpt bool) archResult {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.NoOptimize = noOpt
	cfg.MaxGuestInstrs = 10_000_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if err := m.MapRegion(scratchBase, 4096, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("scheme %s: %v", scheme, err)
	}
	res := archResult{output: m.Output(), mem: make([]uint32, 1024)}
	for i := range res.mem {
		v, f := m.Mem().ReadWordPriv(scratchBase + uint32(i)*4)
		if f != nil {
			t.Fatal(f)
		}
		res.mem[i] = v
	}
	return res
}

func diffResults(t *testing.T, tag string, want, got archResult) {
	t.Helper()
	if len(want.output) != len(got.output) {
		t.Fatalf("%s: output length %d vs %d", tag, len(want.output), len(got.output))
	}
	for i := range want.output {
		if want.output[i] != got.output[i] {
			t.Fatalf("%s: output[%d] = %#x vs %#x", tag, i, want.output[i], got.output[i])
		}
	}
	for i := range want.mem {
		if want.mem[i] != got.mem[i] {
			t.Fatalf("%s: scratch[%#x] = %#x vs %#x", tag, i*4, want.mem[i], got.mem[i])
		}
	}
}

// TestDifferentialSchemesAgree: every scheme must give bit-identical
// single-threaded results.
func TestDifferentialSchemesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	schemes := []string{"pico-cas", "pico-st", "pico-htm", "hst", "hst-weak", "hst-htm", "pst", "pst-remap", "pst-mpk"}
	for round := 0; round < 8; round++ {
		im, err := genProgram(r, 120)
		if err != nil {
			t.Fatal(err)
		}
		ref := runDifferential(t, im, "pico-cas", false)
		for _, scheme := range schemes[1:] {
			got := runDifferential(t, im, scheme, false)
			diffResults(t, fmt.Sprintf("round %d scheme %s", round, scheme), ref, got)
		}
	}
}

// TestDifferentialOptimizerPreservesSemantics: optimized vs unoptimized IR
// must match on random programs (the end-to-end version of the ir package's
// property test).
func TestDifferentialOptimizerPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for round := 0; round < 12; round++ {
		im, err := genProgram(r, 150)
		if err != nil {
			t.Fatal(err)
		}
		opt := runDifferential(t, im, "hst", false)
		raw := runDifferential(t, im, "hst", true)
		diffResults(t, fmt.Sprintf("round %d optimizer", round), opt, raw)
	}
}

// TestDifferentialBlockSizeInvariant: translation-block length must not
// change semantics (single-step blocks vs full blocks). A TraceWriter forces
// one-instruction blocks, as StepMode does, without giving up the vCPU
// goroutines.
func TestDifferentialBlockSizeInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	im, err := genProgram(r, 120)
	if err != nil {
		t.Fatal(err)
	}
	full := runDifferential(t, im, "hst", false)

	cfg := DefaultConfig("hst")
	cfg.TraceWriter = io.Discard
	cfg.MaxGuestInstrs = 10_000_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.topts.MaxGuestInstrs != 1 {
		t.Fatalf("TraceWriter left the block cap at %d, want 1", m.topts.MaxGuestInstrs)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if err := m.MapRegion(scratchBase, 4096, mmu.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tiny := archResult{output: m.Output(), mem: make([]uint32, 1024)}
	for i := range tiny.mem {
		v, _ := m.Mem().ReadWordPriv(scratchBase + uint32(i)*4)
		tiny.mem[i] = v
	}
	diffResults(t, "block size", full, tiny)
}
