package ir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"atomemu/internal/arch"
	"atomemu/internal/ir"
	"atomemu/internal/translate"
)

// randomGA32Words returns n decodable GA32 words that name no pc operand,
// so the translator lowers every one of them.
func randomGA32Words(r *rand.Rand, n int) []uint32 {
	words := make([]uint32, 0, n)
	for len(words) < n {
		op := arch.Opcode(r.Intn(int(arch.NumOpcodes)))
		w := uint32(op)<<24 | r.Uint32()&0xffffff
		in, err := arch.Decode(w)
		if err != nil || in.Rd == arch.PC || in.Rn == arch.PC || in.Rm == arch.PC {
			continue
		}
		words = append(words, w)
	}
	return words
}

// randomLoweredBlock lowers a block of random GA32 code, unoptimized, under
// random translation options (superblocks included, whose register space
// outgrows the passes' stack tables).
func randomLoweredBlock(r *rand.Rand) (*ir.Block, error) {
	const org = 0x1000
	words := randomGA32Words(r, 8+r.Intn(160))
	fetch := func(pc uint32) (uint32, error) {
		i := (pc - org) / arch.InstrBytes
		if pc < org || pc%arch.InstrBytes != 0 || int(i) >= len(words) {
			return 0, fmt.Errorf("fetch outside image at %#x", pc)
		}
		return words[i], nil
	}
	opts := translate.Options{
		InstrumentStores: r.Intn(2) == 0,
		InstrumentLoads:  r.Intn(2) == 0,
		FuseAtomics:      r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		opts.FollowUncond, opts.MaxGuestInstrs = true, translate.DefaultSuperblockInstrs
	}
	start := org + uint32(r.Intn(len(words)))*arch.InstrBytes
	return translate.Block(fetch, start, opts)
}

// TestQuickOptimizeMatchesReference: Optimize must rewrite every block
// exactly as the reference passes (the heap-table, scan-on-redefine
// implementation kept in opt_ref_test.go) do, op for op, on random pure
// blocks with Mov chains and on blocks lowered from random GA32 code.
func TestQuickOptimizeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	check := func(b *ir.Block) {
		t.Helper()
		got, want := *b, *b
		got.Ops = append([]ir.Inst(nil), b.Ops...)
		want.Ops = append([]ir.Inst(nil), b.Ops...)
		ir.Optimize(&got)
		ir.RefOptimize(&want)
		if len(got.Ops) != len(want.Ops) {
			t.Fatalf("Optimize left %d ops, the reference %d\ninput:\n%s\ngot:\n%s\nwant:\n%s",
				len(got.Ops), len(want.Ops), b, &got, &want)
		}
		for i := range got.Ops {
			if got.Ops[i] != want.Ops[i] {
				t.Fatalf("op %d: Optimize %v, reference %v\ninput:\n%s\ngot:\n%s\nwant:\n%s",
					i, got.Ops[i], want.Ops[i], b, &got, &want)
			}
		}
	}
	wide := 0
	for i := 0; i < 3000; i++ {
		b := ir.RandomMovChainBlock(r)
		if b.NumSlots > 64 {
			wide++
		}
		check(b)
	}
	lowered := 0
	for lowered < 3000 {
		b, err := randomLoweredBlock(r)
		if err != nil {
			continue
		}
		if b.NumSlots > 64 {
			wide++
		}
		check(b)
		lowered++
	}
	if wide == 0 {
		t.Fatal("no block outgrew the passes' stack tables")
	}
}
