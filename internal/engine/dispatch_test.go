package engine

import (
	"fmt"
	"testing"
)

// TestHostYieldNeedsASecondVCPU: the run loop and maybePreempt yield the
// host only while another vCPU is live — false for a lone vCPU, true from
// the second SpawnThread until that thread halts.
func TestHostYieldNeedsASecondVCPU(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #0
    svc #1
`)
	cfg := DefaultConfig("hst")
	cfg.StepMode = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	first, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if first.sharesHost() {
		t.Fatal("a lone vCPU would yield the host")
	}
	second, err := m.SpawnThread(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if !first.sharesHost() || !second.sharesHost() {
		t.Fatal("two live vCPUs must yield the host to each other")
	}
	for !second.Halted() {
		if !first.sharesHost() {
			t.Fatal("yielding stopped while the second vCPU was still live")
		}
		if _, err := second.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if first.sharesHost() {
		t.Fatal("the survivor still yields after the second vCPU halted")
	}
}

// TestJumpCacheCollisionKeepsBothLocalTBs runs a loop whose two hot blocks
// start 16 KB apart, so they share a jump-cache slot, with a chain budget
// small enough that the dispatch loop looks both up again and again. An
// evicted entry must come back from localTBs as the same localTB — a fresh
// one would have lost its promotion count and its chain links.
func TestJumpCacheCollisionKeepsBothLocalTBs(t *testing.T) {
	const iters = 50
	im := buildImage(t, fmt.Sprintf(`
.org 0x10000
.entry main
main:
    movi r4, #%d
loopA:
    b blockB
back:
    subsi r4, r4, #1
    bne loopA
    movi r0, #0
    svc #1
.align %d
    .word 0
blockB:
    addi r5, r5, #1
    b back
`, iters, jumpCacheSize))
	a, b := im.MustSymbol("loopA"), im.MustSymbol("blockB")
	if a == b || jumpSlot(a) != jumpSlot(b) {
		t.Fatalf("loopA %#x and blockB %#x do not collide in the jump cache", a, b)
	}
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 1_000_000
	cfg.ChainBudget = 2
	cfg.Tiered = true
	cfg.HotThreshold = 1 << 20 // stay cold: execs keeps counting
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	c, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.st.TBSharedLookups, uint64(len(c.localTBs)); got != want {
		t.Errorf("%d localTBs were created for %d pcs: an evicted entry was rebuilt", got, want)
	}
	la, lb := c.localTBs[a], c.localTBs[b]
	if la == nil || lb == nil || la == lb || la.start != a || lb.start != b {
		t.Fatalf("localTBs lost a colliding block: loopA=%+v blockB=%+v", la, lb)
	}
	// loopA is entered by the taken bne iters-1 times, blockB every iteration.
	if la.execs != iters-1 || lb.execs != iters {
		t.Errorf("execs loopA=%d blockB=%d, want %d and %d", la.execs, lb.execs, iters-1, iters)
	}
	if la.taken != lb || lb.taken != c.localTBs[im.MustSymbol("back")] {
		t.Errorf("chain links lost: loopA.taken=%p (want %p) blockB.taken=%p", la.taken, lb, lb.taken)
	}
	if e := c.jumpCache[jumpSlot(a)]; e != la && e != lb {
		t.Errorf("the shared slot holds neither colliding block: %+v", e)
	}
	checkLocalTierConsistent(t, m)
}

// Golden AggregateStats recorded at the commit before execBlock's deferred
// bookkeeping became straight-line code: a one-vCPU loop with calls, loads
// and instrumented stores, and a block whose seventh instruction faults —
// which still books the whole block's IROps and GuestInstrs and the native
// cycles of the ops that ran.
func TestExecBlockBookkeepingGolden(t *testing.T) {
	for _, tc := range []struct{ name, src, wantErr, want string }{
		{"loop", `
.org 0x10000
.entry main
main:
    movi r0, #0
    movi r1, #100
    ldr r2, =cell
loop:
    add r0, r0, r1
    str r0, [r2]
    ldr r3, [r2]
    bl bump
    subsi r1, r1, #1
    bne loop
    mov r0, r3
    svc #6
    movi r0, #0
    svc #1
bump:
    addi r3, r3, #1
    ret
.align 4
cell: .word 0
`, "<nil>",
			"{GuestInstrs:808 IROps:906 Loads:100 Stores:100 LLs:0 SCs:0 SCFails:0 HashConflicts:0 PageFaults:0 FalseSharing:0 HTMCommits:0 HTMAborts:0 ExclSections:0 HTMRetries:0 HTMBackoffWaits:0 SchemeFallbacks:0 WatchdogTrips:0 Checkpoints:0 CheckpointPages:0 RecoveryAttempts:0 RecoveryRestores:0 TBSharedLookups:6 TBTranslations:6 TBRaceDiscards:0 ChainLinks:0 ChainFollows:0 TierPromotions:0 InterpBlocks:0 TBStoreHits:0 TBStoreMisses:0 TBStorePublishes:0 TBStoreInvalidations:0 Cycles:[15040 0 300 0 0 0 3624 8000]}"},
		{"fault", `
.org 0x10000
.entry main
main:
    movi r0, #1
    movi r1, #2
    add r2, r0, r1
    ldr r3, =cell
    str r2, [r3]
    ldr r4, =0x60000000
    ldr r5, [r4]
    add r2, r2, r2
    str r2, [r3]
    svc #1
.align 4
cell: .word 0
`, "engine: tid 1: guest fault at pc 0x00010020: mmu: unmapped fault on load at 0x60000000",
			"{GuestInstrs:12 IROps:10 Loads:0 Stores:1 LLs:0 SCs:0 SCFails:0 HashConflicts:0 PageFaults:0 FalseSharing:0 HTMCommits:0 HTMAborts:0 ExclSections:0 HTMRetries:0 HTMBackoffWaits:0 SchemeFallbacks:0 WatchdogTrips:0 Checkpoints:0 CheckpointPages:0 RecoveryAttempts:0 RecoveryRestores:0 TBSharedLookups:1 TBTranslations:1 TBRaceDiscards:0 ChainLinks:0 ChainFollows:0 TierPromotions:0 InterpBlocks:0 TBStoreHits:0 TBStoreMisses:0 TBStorePublishes:0 TBStoreInvalidations:0 Cycles:[80 0 3 0 0 0 12 4800]}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im := buildImage(t, tc.src)
			m := newTestMachine(t, "hst", im)
			if _, err := m.Start(im.Entry); err != nil {
				t.Fatal(err)
			}
			if err := fmt.Sprint(m.Run()); err != tc.wantErr {
				t.Errorf("Run() = %s, want %s", err, tc.wantErr)
			}
			if got := fmt.Sprintf("%+v", m.AggregateStats()); got != tc.want {
				t.Errorf("AggregateStats\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
