package engine

import (
	"io"
	"reflect"
	"slices"
	"testing"

	"atomemu/internal/tbstore"
)

// sharedTBDeterminismImage: a single-threaded mix of compute, plain memory
// traffic and LL/SC on a data page .align-ed away from the code page, so the
// code span stays pristine and every code block is publishable.
const sharedTBDeterminismImage = `
.org 0x10000
.entry main
main:
    movi r5, #0
    movi r6, #400
loop:
    bl work
    add r5, r5, r0
    ldr r2, =cell
    str r5, [r2]
    subsi r6, r6, #1
    bne loop
    ldr r3, [r2]
    mov r0, r3
    svc #6
    ldrex r1, [r2]
    add r1, r1, r5
    strex r4, r1, [r2]
    mov r0, r4
    svc #6
    movi r0, #0
    svc #1
work:
    movi r0, #3
    mul r0, r0, r0
    ret
.align 4096
cell: .word 0
`

func TestSharedStoreCrossMachineReuse(t *testing.T) {
	im := buildImage(t, sharedTBDeterminismImage)
	store := tbstore.New[*TB](4096)
	run := func() *Machine {
		cfg := DefaultConfig("pico-cas")
		cfg.MaxGuestInstrs = 50_000_000
		cfg.SharedTBStore = store
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(im); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Start(im.Entry, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := run()
	m2 := run()

	a1, a2 := m1.AggregateStats(), m2.AggregateStats()
	if a1.TBStorePublishes == 0 {
		t.Error("first machine should publish its translations")
	}
	if a2.TBStoreHits == 0 {
		t.Error("second machine should adopt shared translations")
	}
	if a2.TBStoreHits < a1.TBStorePublishes {
		t.Errorf("second machine adopted %d blocks, first published %d",
			a2.TBStoreHits, a1.TBStorePublishes)
	}
	out1, out2 := m1.Output(), m2.Output()
	if len(out1) != len(out2) {
		t.Fatalf("output lengths differ: %v vs %v", out1, out2)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, out1, out2)
		}
	}
	if a1.GuestInstrs != a2.GuestInstrs {
		t.Errorf("guest instruction counts differ: %d vs %d", a1.GuestInstrs, a2.GuestInstrs)
	}
	st := store.Stats()
	if st.Hits == 0 || st.Publishes == 0 {
		t.Errorf("store counters flat: %+v", st)
	}
}

// TestSharedStoreDeterminismColdHit is the cross-start determinism
// contract: for each scheme, a cold run and a shared-store-hit run must
// produce byte-identical output and identical guest instruction counts.
func TestSharedStoreDeterminismColdHit(t *testing.T) {
	for _, scheme := range []string{"pico-cas", "hst", "pico-htm"} {
		t.Run(scheme, func(t *testing.T) {
			im := buildImage(t, sharedTBDeterminismImage)
			// run executes the image once; a nil store is the cold start.
			run := func(store *tbstore.Store[*TB]) *Machine {
				cfg := DefaultConfig(scheme)
				cfg.MaxGuestInstrs = 50_000_000
				cfg.SharedTBStore = store
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadImage(im); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Start(im.Entry, 0); err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				return m
			}

			cold := run(nil)
			store := tbstore.New[*TB](4096)
			run(store) // producer: publishes what the hit run adopts
			hit := run(store)
			if hit.AggregateStats().TBStoreHits == 0 {
				t.Error("hit run adopted nothing from the shared store")
			}

			if got, want := hit.Output(), cold.Output(); !slices.Equal(got, want) {
				t.Fatalf("hit output %v, cold %v", got, want)
			}
			if gi, ci := hit.AggregateStats().GuestInstrs, cold.AggregateStats().GuestInstrs; gi != ci {
				t.Errorf("hit GuestInstrs = %d, cold = %d", gi, ci)
			}
		})
	}
}

// selfModifyLitmusImage patches target's first instruction (movi r0, #1 →
// the donor word, movi r0, #2) before calling it when the spawn argument is
// non-zero. A machine that mutates its code span must never adopt (or keep
// serving to others) a translation of the pristine bytes.
const selfModifyLitmusImage = `
.org 0x10000
.entry main
main:
    cmpi r0, #0
    beq run
    ldr r2, =donor
    ldr r1, [r2]
    ldr r3, =target
    str r1, [r3]
run:
    bl target
    svc #6
    movi r0, #0
    svc #1
target:
    movi r0, #1
    ret
donor:
    movi r0, #2
    ret
`

func TestSharedStoreSelfModifyLitmus(t *testing.T) {
	im := buildImage(t, selfModifyLitmusImage)
	store := tbstore.New[*TB](4096)
	run := func(arg uint32) *Machine {
		cfg := DefaultConfig("pico-cas")
		cfg.MaxGuestInstrs = 1_000_000
		cfg.SharedTBStore = store
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(im); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Start(im.Entry, arg); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Job 1 runs pristine and publishes target's original translation.
	m1 := run(0)
	if out := m1.Output(); len(out) != 1 || out[0] != 1 {
		t.Fatalf("pristine run output = %v, want [1]", out)
	}
	if m1.ImageMutated() {
		t.Fatal("pristine run must not trip the store watch")
	}

	// Job 2 patches the code first. Adopting the shared pristine block would
	// print 1; the store-watch span check must force a retranslation of the
	// mutated bytes.
	m2 := run(1)
	if out := m2.Output(); len(out) != 1 || out[0] != 2 {
		t.Fatalf("self-modifying run output = %v, want [2] (stale shared TB executed?)", out)
	}
	if !m2.ImageMutated() {
		t.Fatal("store watch missed the code-span store")
	}
	a2 := m2.AggregateStats()
	if a2.TBStoreInvalidations == 0 {
		t.Error("mutated-span adoption should count TBStoreInvalidations")
	}
	if a2.TBStoreHits == 0 {
		t.Error("blocks reached before the mutation should still be adopted")
	}

	// Job 3 runs pristine again: the store must still serve the original,
	// unpoisoned translation.
	m3 := run(0)
	if out := m3.Output(); len(out) != 1 || out[0] != 1 {
		t.Fatalf("post-litmus pristine run output = %v, want [1]", out)
	}
}

// demotionRetentionImage exercises three leaf functions with distinct
// instrumentation sensitivity: compute (neither), reader (loads), writer
// (stores only — ldr =cell is a mov-immediate pseudo, not a load).
const demotionRetentionImage = `
.org 0x10000
.entry main
main:
    movi r6, #100
loop:
    bl compute
    bl reader
    bl writer
    subsi r6, r6, #1
    bne loop
    mov r0, r5
    svc #6
    movi r0, #0
    svc #1
compute:
    movi r3, #7
    mul r3, r3, r3
    ret
reader:
    ldr r2, =cell
    ldr r5, [r2]
    ret
writer:
    ldr r2, =cell
    str r6, [r2]
    ret
.align 4096
cell: .word 0
`

// TestDemotionRetainsCompatibleTranslations is the regression test for the
// demotion cache flush: demoting pico-htm (stores+loads instrumented) to hst
// (stores only) used to reset the whole machine cache; it must instead drop
// exactly the blocks whose translation depended on load instrumentation.
func TestDemotionRetainsCompatibleTranslations(t *testing.T) {
	im := buildImage(t, demotionRetentionImage)
	m := newTestMachine(t, "pico-htm", im)
	if _, err := m.Start(im.Entry, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	computePC := im.MustSymbol("compute")
	readerPC := im.MustSymbol("reader")
	writerPC := im.MustSymbol("writer")
	for name, pc := range map[string]uint32{"compute": computePC, "reader": readerPC, "writer": writerPC} {
		if m.tbs.get(pc) == nil {
			t.Fatalf("setup: %s block not cached after the run", name)
		}
	}
	before := m.tbs.len()

	if err := m.demoteScheme(); err != nil {
		t.Fatal(err)
	}
	if got := m.scheme.Name(); got != "hst" {
		t.Fatalf("scheme after demotion = %q, want hst", got)
	}
	if m.tbs.get(computePC) == nil {
		t.Error("pure-compute block dropped by demotion; translation will be re-paid")
	}
	if m.tbs.get(writerPC) == nil {
		t.Error("store-only block dropped, but store instrumentation did not change")
	}
	if m.tbs.get(readerPC) != nil {
		t.Error("load-bearing block survived a load-instrumentation change")
	}
	if after := m.tbs.len(); after >= before || after == 0 {
		t.Errorf("cache went %d -> %d blocks; want a partial retain", before, after)
	}
}

// TestDemotionDropsUnpromotedColdTBs covers the tiered variant: a block
// still in its cold form must not survive a demotion that changes the
// translation options, even when its own translation would be compatible —
// a post-demotion promotion would otherwise install new-universe IR onto an
// object still resident in the pre-demotion shared-store segment.
func TestDemotionDropsUnpromotedColdTBs(t *testing.T) {
	im := buildImage(t, demotionRetentionImage)
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 50_000_000
	cfg.Tiered = true
	cfg.HotThreshold = 1 << 30 // nothing promotes: every block stays cold
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	computePC := im.MustSymbol("compute")
	old := m.tbs.get(computePC)
	if old == nil {
		t.Fatal("setup: compute block not cached")
	}
	if old.ir.Load() != nil || old.cold == nil {
		t.Fatal("setup: compute block promoted despite the huge threshold")
	}
	if err := m.demoteScheme(); err != nil {
		t.Fatal(err)
	}
	if m.tbs.get(computePC) != nil {
		t.Error("cold compute block survived demotion; a promotion could publish onto the old universe's object")
	}
}

// TestMidRunDemotionDoesNotRetranslateComputeBlocks drives a wedged SC loop
// (strex address differs from the ldrex address) through the watchdog so the
// first rollback demotes pico-htm to hst mid-run, then bounds the total
// translation work: the compute leaves the loop keeps calling must be served
// from the retained cache after demotion, so translations stay near the
// distinct-block count instead of re-paying the whole working set.
func TestMidRunDemotionDoesNotRetranslateComputeBlocks(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    ldr r4, =xvar
    ldr r5, =yvar
loop:
    bl c1
    bl c2
    bl c3
    bl c4
    ldrex r1, [r4]
    strex r2, r1, [r5]
    b loop
c1:
    movi r3, #5
    mul r3, r3, r3
    ret
c2:
    addi r3, r3, #1
    ret
c3:
    addi r3, r3, #2
    ret
c4:
    addi r3, r3, #3
    ret
.align 1024
xvar: .word 1
yvar: .word 2
`)
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.WatchdogSCFails = 500
	cfg.CheckpointEvery = 2_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(im.Entry, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err == nil {
		t.Fatal("wedged guest should not finish cleanly")
	}
	if got := m.Scheme().Name(); got != "hst" {
		t.Fatalf("run never demoted (scheme %q); the test exercised nothing", got)
	}
	distinct := uint64(m.tbs.len())
	agg := m.AggregateStats()
	// Only the load-bearing SC block is invalidated by the demotion; budget
	// a handful of retranslations on top of one translation per distinct
	// block. Resetting the cache instead re-pays every block the post-demote
	// loop touches across every recovery attempt, which blows this bound.
	if agg.TBTranslations > distinct+4 {
		t.Errorf("TBTranslations = %d with %d distinct blocks; demotion re-paid retained translations",
			agg.TBTranslations, distinct)
	}
	if m.tbs.get(im.MustSymbol("c1")) == nil {
		t.Error("compute block evicted across mid-run demotion")
	}
}

// sharedKeyShaping perturbs, one field at a time, every Config field that
// changes what a translation block means; sharedOptsKey must render each.
var sharedKeyShaping = map[string]func(*Config){
	"Scheme":       func(c *Config) { c.Scheme = "pico-st" },
	"NoOptimize":   func(c *Config) { c.NoOptimize = true },
	"FuseAtomics":  func(c *Config) { c.FuseAtomics = true },
	"ChainBudget":  func(c *Config) { c.ChainBudget = 16 },
	"Tiered":       func(c *Config) { c.Tiered = true },
	"HotThreshold": func(c *Config) { c.HotThreshold = 7 },
	"StepMode":     func(c *Config) { c.StepMode = true },          // one-instruction blocks
	"TraceWriter":  func(c *Config) { c.TraceWriter = io.Discard }, // likewise
}

// sharedKeyNeutral names every other Config field and why two machines that
// differ only there may exchange translation blocks.
var sharedKeyNeutral = map[string]string{
	"Cost":              "charged when a block is translated or run; not part of the block",
	"MemBytes":          "sizes guest memory",
	"HashBits":          "sizes the scheme's table, reached through the same hooks",
	"MaxThreads":        "spawn limit",
	"HTMInterference":   "abort probability at block boundaries, decided at run time",
	"MaxGuestInstrs":    "run budget; the clamp's one-off blocks bypass both caches",
	"TraceEvents":       "event ring, emitted by the executor",
	"TraceRingBits":     "event ring size",
	"ProfileCollisions": "census inside the hst scheme; same name, same hooks",
	"StrictPaper":       "scheme retry policy at run time",
	"ResilienceSeed":    "scheme retry policy at run time",
	"WatchdogSCFails":   "dispatch-loop watchdog",
	"CheckpointEvery":   "checkpoint cadence",
	"RecoveryAttempts":  "rollback policy; a demotion re-keys through Scheme",
	"CheckpointSink":    "host plumbing",
	"VirtualDeadline":   "run budget",
	"HashSpinBudget":    "hash-lock spin bound at run time",
	"FaultInjector":     "can fault a fetch mid-translation: callers must not attach an injected machine (server.run does not)",
	"SchedHook":         "host plumbing",
	"SharedTBStore":     "the store itself",
}

// TestSharedOptsKeyCoversConfig is the drift guard for the hand-written
// field list in sharedOptsKey: every Config field must either move the key
// when it changes or be listed above with the reason it need not. A new
// knob that is in neither table fails here, before the store can serve a
// block translated under different semantics.
func TestSharedOptsKeyCoversConfig(t *testing.T) {
	keyOf := func(cfg Config) string {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.sharedOptsKey()
	}
	base := keyOf(DefaultConfig("hst"))
	typ := reflect.TypeOf(Config{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		perturb, shaping := sharedKeyShaping[name]
		_, neutral := sharedKeyNeutral[name]
		switch {
		case shaping == neutral:
			t.Errorf("Config.%s must be in exactly one of sharedKeyShaping (and rendered by sharedOptsKey) or sharedKeyNeutral", name)
		case shaping:
			cfg := DefaultConfig("hst")
			perturb(&cfg)
			if keyOf(cfg) == base {
				t.Errorf("Config.%s changes translations but sharedOptsKey does not render it", name)
			}
		}
	}
	for name := range sharedKeyShaping {
		if !fields[name] {
			t.Errorf("sharedKeyShaping names %s, which is not a Config field", name)
		}
	}
	for name := range sharedKeyNeutral {
		if !fields[name] {
			t.Errorf("sharedKeyNeutral names %s, which is not a Config field", name)
		}
	}
}
