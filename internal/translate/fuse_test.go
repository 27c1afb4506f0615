package translate

import (
	"testing"

	"atomemu/internal/ir"
	"atomemu/internal/mmu"
)

func fuseOpts() Options { return Options{FuseAtomics: true, InstrumentStores: true} }

func countOp(b *ir.Block, op ir.Op) int {
	n := 0
	for _, in := range b.Ops {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestFuseAtomicAddImmediate(t *testing.T) {
	b := translate(t, `
retry:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne retry
    hlt
`, fuseOpts())
	if countOp(b, ir.AtomicRMW) != 1 {
		t.Fatalf("expected one fused RMW:\n%s", b)
	}
	if countOp(b, ir.LL) != 0 || countOp(b, ir.SC) != 0 {
		t.Fatalf("LL/SC should be gone:\n%s", b)
	}
	var rmw *ir.Inst
	for i := range b.Ops {
		if b.Ops[i].Op == ir.AtomicRMW {
			rmw = &b.Ops[i]
		}
	}
	if rmw.RMW != mmu.UpdateAdd || !rmw.RMWImm || rmw.Imm != 1 {
		t.Fatalf("rmw = %s", rmw)
	}
	// The whole loop (5 instrs) plus hlt were consumed into one block.
	if b.GuestLen != 6 {
		t.Errorf("GuestLen = %d, want 6", b.GuestLen)
	}
}

func TestFuseAtomicOpsRegisterVariants(t *testing.T) {
	for _, mn := range []string{"add", "sub", "and", "orr", "eor"} {
		src := `
retry:
    ldrex r1, [r4]
    ` + mn + ` r3, r1, r5
    strex r2, r3, [r4]
    cmpi r2, #0
    bne retry
    hlt
`
		b := translate(t, src, fuseOpts())
		if countOp(b, ir.AtomicRMW) != 1 {
			t.Errorf("%s: not fused:\n%s", mn, b)
		}
	}
}

func TestFuseExchange(t *testing.T) {
	b := translate(t, `
retry:
    ldrex r1, [r4]
    strex r2, r5, [r4]
    cmpi r2, #0
    bne retry
    hlt
`, fuseOpts())
	if countOp(b, ir.AtomicRMW) != 1 {
		t.Fatalf("xchg not fused:\n%s", b)
	}
	for _, in := range b.Ops {
		if in.Op == ir.AtomicRMW && in.RMW != mmu.UpdateXchg {
			t.Fatalf("kind = %v", in.RMW)
		}
	}
}

func TestNoFuseWhenDisabled(t *testing.T) {
	b := translate(t, `
retry:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne retry
    hlt
`, Options{})
	if countOp(b, ir.AtomicRMW) != 0 {
		t.Fatal("fusion must be opt-in")
	}
}

func TestNoFuseOnNonPatterns(t *testing.T) {
	cases := map[string]string{
		"branch inside window": `
retry:
    ldrex r1, [r4]
    cmpi r1, #0
    bne retry
    strex r2, r1, [r4]
    hlt`,
		"operand not loop-invariant": `
retry:
    ldrex r1, [r4]
    add r1, r1, r1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne retry
    hlt`,
		"alu source is not the load": `
retry:
    ldrex r1, [r4]
    addi r3, r5, #1
    strex r2, r3, [r4]
    cmpi r2, #0
    bne retry
    hlt`,
		"different strex address": `
retry:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r6]
    cmpi r2, #0
    bne retry
    hlt`,
		"branch to wrong target": `
top:
    nop
retry:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne top
    hlt`,
		"compares wrong register": `
retry:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r1, #0
    bne retry
    hlt`,
		"address clobbered by load": `
retry:
    ldrex r4, [r4]
    addi r1, r4, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne retry
    hlt`,
	}
	for name, src := range cases {
		b := translate(t, src, fuseOpts())
		if countOp(b, ir.AtomicRMW) != 0 {
			t.Errorf("%s: must not fuse:\n%s", name, b)
		}
	}
}

func TestFusedBlockVerifies(t *testing.T) {
	b := translate(t, `
retry:
    ldrex r1, [r4]
    sub r3, r1, r5
    strex r2, r3, [r4]
    cmpi r2, #0
    bne retry
    bx lr
`, fuseOpts())
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	// The fused sequence must set the architectural leftovers: rS = 0
	// (MovI to r2) and the flags of "cmpi rS, #0".
	foundRS, foundFlags := false, false
	for _, in := range b.Ops {
		if in.Op == ir.MovI && in.D == 2 && in.Imm == 0 {
			foundRS = true
		}
		if in.Op == ir.FlagsSubI && in.Imm == 0 {
			foundFlags = true
		}
	}
	if !foundRS || !foundFlags {
		t.Fatalf("architectural leftovers missing (rS=%v flags=%v):\n%s", foundRS, foundFlags, b)
	}
}
