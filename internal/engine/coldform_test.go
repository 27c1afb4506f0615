package engine

import (
	"slices"
	"strings"
	"testing"

	"atomemu/internal/arch"
	"atomemu/internal/mmu"
	"atomemu/internal/stats"
)

// Cold-form equivalence: under tiering a cold block is the same lowering
// the always-IR pipeline produces with the optimizer off, run by the same
// execBlock, and differs only in what its translation is charged. The test
// below pins that for every arch opcode — a new opcode without a row fails
// it — so the cold form cannot drift from the IR pipeline the way a second
// interpreter could.

// coldFormPrologue seeds registers with operands that make every ALU,
// shift, divide and flag result distinctive; r4 is the scratch base and r5
// a register offset into it.
const coldFormPrologue = `
.org 0x10000
.entry main
main:
    ldr r0, =0x80000001
    ldr r1, =0x7fffffff
    ldr r2, =0x0000000d
    ldr r3, =0xfffffff3
    ldr r4, =0x20000
    movi r5, #8
    ldr r6, =0x12345678
    movi r7, #0
`

// coldFormCases holds one row per arch opcode plus the lowering shapes that
// are not one guest instruction to one IR op: register-offset memory ops
// (an extra address add), MOVT and TST (two ops), BL (link move + jump),
// NOP (no op at all), blocks cut short by the cap or by a fetch fault
// (continuation jump), and the MaxGuestInstrs clamp. A row's src follows
// the prologue unless raw is set; budget, when nonzero, is MaxGuestInstrs
// and the run is expected to fail on it.
var coldFormCases = []struct {
	name   string
	src    string
	raw    bool
	budget uint64
}{
	{name: "add", src: "add r8, r0, r1\n hlt"},
	{name: "sub", src: "sub r8, r0, r1\n hlt"},
	{name: "rsb", src: "rsb r8, r2, r6\n hlt"},
	{name: "and", src: "and r8, r6, r3\n hlt"},
	{name: "orr", src: "orr r8, r6, r2\n hlt"},
	{name: "eor", src: "eor r8, r6, r3\n hlt"},
	{name: "mul", src: "mul r8, r6, r3\n hlt"},
	{name: "udiv", src: "udiv r8, r6, r2\n udiv r9, r6, r7\n hlt"},
	{name: "sdiv", src: "sdiv r8, r3, r2\n sdiv r9, r3, r7\n ldr r10, =0xffffffff\n ldr r11, =0x80000000\n sdiv r12, r11, r10\n hlt"},
	{name: "lsl", src: "lsl r8, r6, r2\n hlt"},
	{name: "lsr", src: "lsr r8, r3, r2\n hlt"},
	{name: "asr", src: "asr r8, r3, r2\n hlt"},
	{name: "adds", src: "adds r8, r0, r0\n hlt"},
	{name: "subs", src: "subs r8, r2, r6\n hlt"},
	{name: "addi", src: "addi r8, r6, #4095\n hlt"},
	{name: "subi", src: "subi r8, r2, #14\n hlt"},
	{name: "rsbi", src: "rsbi r8, r2, #5\n hlt"},
	{name: "andi", src: "andi r8, r6, #0xff0\n hlt"},
	{name: "orri", src: "orri r8, r6, #0xf0f\n hlt"},
	{name: "eori", src: "eori r8, r6, #0xfff\n hlt"},
	{name: "lsli", src: "lsli r8, r6, #7\n hlt"},
	{name: "lsri", src: "lsri r8, r3, #7\n hlt"},
	{name: "asri", src: "asri r8, r3, #7\n hlt"},
	{name: "addsi", src: "addsi r8, r1, #1\n hlt"},
	{name: "subsi", src: "subsi r8, r2, #13\n hlt"},
	{name: "mov", src: "mov r8, r6\n hlt"},
	{name: "mvn", src: "mvn r8, r6\n hlt"},
	{name: "movi", src: "movi r8, #1234\n hlt"},
	{name: "movw", src: "movw r8, #0xbeef\n hlt"},
	{name: "movt", src: "movw r8, #0xbeef\n movt r8, #0xdead\n hlt"},
	{name: "cmp", src: "cmp r2, r6\n hlt"},
	{name: "cmpi", src: "cmpi r2, #13\n hlt"},
	{name: "cmn", src: "cmn r0, r1\n hlt"},
	{name: "tst", src: "tst r0, r3\n hlt"},
	{name: "ldr", src: "ldr r8, [r4, #12]\n hlt"},
	{name: "str", src: "str r6, [r4, #16]\n hlt"},
	{name: "ldrb", src: "ldrb r8, [r4, #13]\n hlt"},
	{name: "strb", src: "strb r6, [r4, #18]\n hlt"},
	{name: "ldrr", src: "ldrr r8, [r4, r5]\n hlt"},
	{name: "strr", src: "strr r6, [r4, r5]\n hlt"},
	{name: "ldrbr", src: "addi r5, r5, #1\n ldrbr r8, [r4, r5]\n hlt"},
	{name: "strbr", src: "addi r5, r5, #3\n strbr r6, [r4, r5]\n hlt"},
	{name: "ldrex-strex", src: "ldrex r8, [r4]\n addi r8, r8, #1\n strex r9, r8, [r4]\n hlt"},
	{name: "strex-unarmed", src: "strex r9, r6, [r4]\n hlt"},
	{name: "clrex", src: "ldrex r8, [r4]\n clrex\n strex r9, r6, [r4]\n hlt"},
	{name: "dmb", src: "str r6, [r4]\n dmb\n ldr r8, [r4]\n hlt"},
	{name: "b-always", src: "b over\n addi r7, r7, #1\nover:\n hlt"},
	{name: "b-cond", src: "cmpi r2, #13\n beq eq\n addi r7, r7, #1\neq:\n bne ne\n addi r7, r7, #2\nne:\n hlt"},
	{name: "bl-bx", src: "bl fn\n addi r7, r7, #1\n hlt\nfn:\n addi r7, r7, #4\n bx lr"},
	{name: "svc", src: "mov r0, r6\n svc #6\n hlt"},
	{name: "nop", src: "nop\n addi r7, r7, #1\n nop\n b tail\ntail:\n nop\n nop\n hlt"},
	{name: "yield", src: "yield\n addi r7, r7, #1\n hlt"},
	{name: "capped-block", src: repeatLine("addi r7, r7, #3", 70) + "hlt"},
	{name: "fetch-fault-truncated", raw: true,
		src: ".org 0x10fc0\n.entry main\nmain:\n" + repeatLine("addi r7, r7, #1", 16)},
	{name: "budget-clamp", budget: 1003,
		src: "loop:\n" + repeatLine("addi r7, r7, #1", 7) + "b loop"},
}

func repeatLine(line string, n int) string { return strings.Repeat(line+"\n", n) }

// coldFormRun is everything one run leaves behind that the two pipelines
// must agree on.
type coldFormRun struct {
	err      string
	regs     [16]uint32
	flags    arch.Flags
	pc       uint32
	mem      [1024]uint32
	output   []uint32
	st       stats.CPU
	vt       uint64
	transLen uint64 // guest instructions across the blocks left in the TB cache
}

func runColdForm(t *testing.T, cfg Config, src string) coldFormRun {
	t.Helper()
	im := buildImage(t, src)
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
	for i := uint32(0); i < 1024; i++ {
		if f := m.Mem().WriteWordPriv(scratchBase+i*4, 0x9e3779b9*(i+1)); f != nil {
			t.Fatal(f)
		}
	}
	c, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	var r coldFormRun
	if err := m.Run(); err != nil {
		r.err = err.Error()
	}
	for i := range r.regs {
		r.regs[i] = c.Reg(arch.Reg(i))
	}
	r.flags, r.pc = c.Flags(), c.PC()
	for i := range r.mem {
		v, f := m.Mem().ReadWordPriv(scratchBase + uint32(i)*4)
		if f != nil {
			t.Fatal(f)
		}
		r.mem[i] = v
	}
	r.output, r.st, r.vt = m.Output(), m.AggregateStats(), m.VirtualTime()
	for i := range m.tbs.shards {
		if snap := m.tbs.shards[i].snap.Load(); snap != nil {
			for _, tb := range *snap {
				b := tb.cold
				if b == nil {
					b = tb.ir.Load()
				}
				r.transLen += uint64(b.GuestLen)
			}
		}
	}
	return r
}

// TestColdFormMatchesUnoptimizedIR: tiering that never promotes and the
// always-IR pipeline with the optimizer off must leave identical registers,
// flags, memory, output and counters, and identical virtual cycles in every
// component except CompTBTranslate, where the gap is exactly the decode
// rate versus the translate rate over the instructions translated.
func TestColdFormMatchesUnoptimizedIR(t *testing.T) {
	// pico-cas instruments nothing, hst stores, pico-htm loads and stores.
	schemes := []string{"pico-cas", "hst", "pico-htm"}
	var covered [arch.NumOpcodes]bool
	for _, tc := range coldFormCases {
		src := tc.src
		if !tc.raw {
			src = coldFormPrologue + src
		}
		for _, w := range buildImage(t, src).Words {
			if in, err := arch.Decode(w); err == nil {
				covered[in.Op] = true
			}
		}
		for _, scheme := range schemes {
			t.Run(tc.name+"/"+scheme, func(t *testing.T) {
				base := DefaultConfig(scheme)
				base.NoOptimize = true
				base.MaxGuestInstrs = tc.budget
				cold := DefaultConfig(scheme)
				cold.Tiered = true
				cold.HotThreshold = 1 << 30
				cold.MaxGuestInstrs = tc.budget
				want, got := runColdForm(t, base, src), runColdForm(t, cold, src)

				if got.err != want.err {
					t.Fatalf("run error %q, baseline %q", got.err, want.err)
				}
				if tc.budget != 0 && want.err == "" {
					t.Fatal("budgeted run finished; the clamp was never exercised")
				}
				if got.regs != want.regs || got.flags != want.flags || got.pc != want.pc {
					t.Errorf("architectural state diverged:\n cold %x %+v pc=%#x\n base %x %+v pc=%#x",
						got.regs, got.flags, got.pc, want.regs, want.flags, want.pc)
				}
				if got.mem != want.mem {
					t.Error("scratch memory diverged")
				}
				if !slices.Equal(got.output, want.output) {
					t.Errorf("output %v, baseline %v", got.output, want.output)
				}
				for _, f := range []struct {
					name      string
					got, want uint64
				}{
					{"GuestInstrs", got.st.GuestInstrs, want.st.GuestInstrs},
					{"IROps", got.st.IROps, want.st.IROps},
					{"Loads", got.st.Loads, want.st.Loads},
					{"Stores", got.st.Stores, want.st.Stores},
					{"LLs", got.st.LLs, want.st.LLs},
					{"SCs", got.st.SCs, want.st.SCs},
					{"SCFails", got.st.SCFails, want.st.SCFails},
					{"TBTranslations", got.st.TBTranslations, want.st.TBTranslations},
					{"translated instructions", got.transLen, want.transLen},
				} {
					if f.got != f.want {
						t.Errorf("%s = %d, baseline %d", f.name, f.got, f.want)
					}
				}
				if got.st.InterpBlocks == 0 || want.st.InterpBlocks != 0 || got.st.TierPromotions != 0 {
					t.Errorf("cold run: InterpBlocks=%d TierPromotions=%d; baseline InterpBlocks=%d",
						got.st.InterpBlocks, got.st.TierPromotions, want.st.InterpBlocks)
				}
				gap := (base.Cost.TBTranslate - base.Cost.TBDecode) * want.transLen
				for comp := stats.Component(0); comp < stats.NumComponents; comp++ {
					wantCycles := want.st.Cycles[comp]
					if comp == stats.CompTBTranslate {
						wantCycles -= gap
					}
					if got.st.Cycles[comp] != wantCycles {
						t.Errorf("%s cycles = %d, want %d (baseline %d)",
							comp, got.st.Cycles[comp], wantCycles, want.st.Cycles[comp])
					}
				}
				if got.vt != want.vt-gap {
					t.Errorf("virtual time = %d, want %d", got.vt, want.vt-gap)
				}
			})
		}
	}
	for op := arch.Opcode(0); op < arch.NumOpcodes; op++ {
		if !covered[op] {
			t.Errorf("opcode %s has no row in coldFormCases", op)
		}
	}
}
