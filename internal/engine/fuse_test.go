package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"atomemu/internal/core"
	"atomemu/internal/mmu"
)

const fusedCounterSrc = `
.org 0x10000
.entry worker
worker:                 ; r0 = iterations
    ldr r4, =counter
loop:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne loop
    subsi r0, r0, #1
    bne loop
    movi r0, #0
    svc #1
.align 1024
counter: .word 0
`

// TestFusedCounterAllSchemes: with rule-based fusion on, the canonical
// atomic-increment loop must stay correct under concurrency for every
// scheme (fused RMWs run through Scheme.RMW).
func TestFusedCounterAllSchemes(t *testing.T) {
	const threads, iters = 6, 2000
	for _, scheme := range core.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			im := buildImage(t, fusedCounterSrc)
			cfg := DefaultConfig(scheme)
			cfg.FuseAtomics = true
			cfg.MaxGuestInstrs = 100_000_000
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadImage(im); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < threads; i++ {
				if _, err := m.SpawnThread(im.Entry, iters); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			v, _ := m.Mem().ReadWordPriv(im.MustSymbol("counter"))
			if v != threads*iters {
				t.Fatalf("fused counter = %d, want %d", v, threads*iters)
			}
			// The loop really was fused: SC failures are impossible for a
			// host atomic RMW.
			agg := m.AggregateStats()
			if agg.SCFails != 0 {
				t.Errorf("fused RMW reported %d SC failures", agg.SCFails)
			}
		})
	}
}

// TestFusedAndRawMixOnSameVariable: thread A uses the fused increment while
// thread B hammers the same word with a raw (unfusable) LL/SC increment.
// The scheme's RMW must keep B's monitors honest: the total must be exact.
func TestFusedAndRawMixOnSameVariable(t *testing.T) {
	// The raw loop inserts a nop between ldrex and the add so the fusion
	// pattern does not match, keeping it on the scheme path.
	src := `
.org 0x10000
.entry fusedworker
fusedworker:            ; r0 = iterations
    ldr r4, =counter
floop:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne floop
    subsi r0, r0, #1
    bne floop
    movi r0, #0
    svc #1
rawworker:              ; r0 = iterations
    ldr r4, =counter
rloop:
    ldrex r1, [r4]
    nop
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne rloop
    subsi r0, r0, #1
    bne rloop
    movi r0, #0
    svc #1
.align 1024
counter: .word 0
`
	const iters = 3000
	for _, scheme := range core.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			im := buildImage(t, src)
			cfg := DefaultConfig(scheme)
			cfg.FuseAtomics = true
			cfg.MaxGuestInstrs = 200_000_000
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadImage(im); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := m.SpawnThread(im.MustSymbol("fusedworker"), iters); err != nil {
					t.Fatal(err)
				}
				if _, err := m.SpawnThread(im.MustSymbol("rawworker"), iters); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			v, _ := m.Mem().ReadWordPriv(im.MustSymbol("counter"))
			if v != 4*iters {
				t.Fatalf("mixed counter = %d, want %d — fused RMW broke scheme monitors", v, 4*iters)
			}
		})
	}
}

// TestAtomicIncrementOnReadOnlyPageFaults: an atomic increment on a
// read-only page must stop with the protection fault a store takes, at the
// instruction that writes (the STREX, or the LDREX a fused loop starts at),
// and leave the word unchanged — under every scheme, fused or not. A scheme
// that commits with privileges (the PST family's SC and fault handler) must
// not grant the guest a write its page never allowed.
func TestAtomicIncrementOnReadOnlyPageFaults(t *testing.T) {
	src := `
.org 0x10000
.entry worker
worker:                 ; r0 = address of the word
    ldrex r1, [r0]
    addi r1, r1, #1
    strex r2, r1, [r0]
    cmpi r2, #0
    bne worker
    movi r0, #0
    svc #1
`
	const word = 41
	for _, scheme := range core.SchemeNames() {
		for _, fuse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fuse=%v", scheme, fuse), func(t *testing.T) {
				im := buildImage(t, src)
				cfg := DefaultConfig(scheme)
				cfg.FuseAtomics = fuse
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadImage(im); err != nil {
					t.Fatal(err)
				}
				if err := m.MapRegion(scratchBase, mmu.PageSize, mmu.PermRead); err != nil {
					t.Fatal(err)
				}
				if f := m.Mem().WriteWordPriv(scratchBase, word); f != nil {
					t.Fatal(f)
				}
				if _, err := m.SpawnThread(im.Entry, scratchBase); err != nil {
					t.Fatal(err)
				}
				pc := im.Entry + 8 // the strex
				if fuse {
					pc = im.Entry
				}
				want := fmt.Sprintf("at pc %#08x: mmu: protection fault on store at %#08x", pc, scratchBase)
				if err := m.Run(); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Run = %v, want an error containing %q", err, want)
				}
				if v, _ := m.Mem().ReadWordPriv(scratchBase); v != word {
					t.Fatalf("read-only word = %d, want %d", v, word)
				}
			})
		}
	}
}

// TestDifferentialFusionPreservesSemantics: random single-threaded programs
// must behave identically with fusion on and off.
func TestDifferentialFusionPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for round := 0; round < 10; round++ {
		im, err := genProgram(r, 120)
		if err != nil {
			t.Fatal(err)
		}
		plain := runDifferential(t, im, "hst", false)

		cfg := DefaultConfig("hst")
		cfg.FuseAtomics = true
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
			t.Fatal(err)
		}
		fused := archResult{output: m.Output(), mem: make([]uint32, 1024)}
		for i := range fused.mem {
			v, _ := m.Mem().ReadWordPriv(scratchBase + uint32(i)*4)
			fused.mem[i] = v
		}
		diffResults(t, "fusion", plain, fused)
	}
}

// TestFusionReducesVirtualTime: the point of rule-based translation is
// cheaper atomics. On an atomic-heavy workload HST+fusion must beat plain
// HST in virtual time.
func TestFusionReducesVirtualTime(t *testing.T) {
	run := func(fuse bool) uint64 {
		im := buildImage(t, fusedCounterSrc)
		cfg := DefaultConfig("hst")
		cfg.FuseAtomics = fuse
		cfg.MaxGuestInstrs = 100_000_000
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(im); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := m.SpawnThread(im.Entry, 3000); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.VirtualTime()
	}
	plain, fused := run(false), run(true)
	if fused >= plain {
		t.Fatalf("fusion did not pay: fused=%d plain=%d", fused, plain)
	}
	t.Logf("fusion speedup on atomic counter: %.2fx", float64(plain)/float64(fused))
}
