package engine

import (
	"errors"
	"strings"
	"testing"

	"atomemu/internal/checkpoint"
	"atomemu/internal/core"
	"atomemu/internal/faultinject"
	"atomemu/internal/guestlib"
	"atomemu/internal/stats"
)

// runStackResilience drives the lock-free-stack bench through an explicit
// config and returns the aggregate stats, the post-run stack audit and the
// scheme the machine ended on.
func runStackResilience(t *testing.T, cfg Config, threads int, pairsPerThread uint64, nodes uint32) (stats.CPU, guestlib.StackReport, string) {
	t.Helper()
	sb, err := guestlib.BuildStackBench(0x10000, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(sb.Image); err != nil {
		t.Fatal(err)
	}
	if err := sb.InitStack(m.Mem()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(sb.Worker, uint32(pairsPerThread)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run should complete under the resilient policy: %v", err)
	}
	for _, c := range m.CPUs() {
		if c.ExitCode() != 0 {
			t.Fatalf("vCPU %d exit code %d", c.TID(), c.ExitCode())
		}
	}
	rep, err := sb.CheckStack(m.Mem())
	if err != nil {
		t.Fatal(err)
	}
	return m.AggregateStats(), rep, m.Scheme().Name()
}

// checkDemotedOnce asserts a resilient pico-htm run's outcome: an intact
// stack, finished on hst after exactly one machine demotion.
func checkDemotedOnce(t *testing.T, agg stats.CPU, rep guestlib.StackReport, scheme string) {
	t.Helper()
	if rep.Corrupted() {
		t.Errorf("stack corrupted: %+v", rep)
	}
	if scheme != "hst" {
		t.Errorf("machine ended on %s, want hst", scheme)
	}
	if agg.SchemeFallbacks != 1 {
		t.Errorf("SchemeFallbacks = %d, want exactly one machine demotion", agg.SchemeFallbacks)
	}
}

// TestStressPicoHTMFaultInjectedAbortStorm forces a storm of
// transaction-begin aborts, so the first LL/SC window retries with backoff
// until its budget runs out and asks for the machine's demotion. PICO-HTM
// must finish the stack workload on hst, demoted once, with a fully intact
// stack.
func TestStressPicoHTMFaultInjectedAbortStorm(t *testing.T) {
	for _, threads := range []int{8, 16} {
		t.Run(map[int]string{8: "8vcpu", 16: "16vcpu"}[threads], func(t *testing.T) {
			cfg := DefaultConfig("pico-htm")
			cfg.MaxGuestInstrs = 2_000_000_000
			cfg.FaultInjector = faultinject.New(faultinject.Rule{
				Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, Count: 16000,
			})
			agg, rep, scheme := runStackResilience(t, cfg, threads, 384, 256)
			if agg.HTMRetries == 0 {
				t.Error("expected backoff retries before demotion")
			}
			checkDemotedOnce(t, agg, rep, scheme)
		})
	}
}

// TestStressHSTHTMFaultInjectedAbortStorm storms HST-HTM's SC transaction
// with begin aborts (they fire before the entry-owner check, so each SC
// takes consecutive aborts until its retry budget runs out): each such SC
// falls back to the stop-the-world path and completes, and the machine
// stays on hst-htm. Count-bounded: an unbounded storm would (rightly)
// starve individual vCPUs into the progress watchdog.
func TestStressHSTHTMFaultInjectedAbortStorm(t *testing.T) {
	for _, threads := range []int{8, 16} {
		t.Run(map[int]string{8: "8vcpu", 16: "16vcpu"}[threads], func(t *testing.T) {
			cfg := DefaultConfig("hst-htm")
			cfg.MaxGuestInstrs = 2_000_000_000
			cfg.FaultInjector = faultinject.New(faultinject.Rule{
				Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, Count: 16000,
			})
			agg, rep, scheme := runStackResilience(t, cfg, threads, 384, 256)
			if agg.SchemeFallbacks == 0 {
				t.Error("expected per-SC fallbacks under a begin-abort storm")
			}
			if agg.HTMRetries == 0 {
				t.Error("expected backoff retries before falling back")
			}
			if scheme != "hst-htm" {
				t.Errorf("hst-htm must not demote the machine; ended on %s", scheme)
			}
			if rep.Corrupted() {
				t.Errorf("stack corrupted: %+v", rep)
			}
		})
	}
}

// TestStressPicoHTM16VCPUsCompletesDegraded is the headline robustness
// claim: at 16 vCPUs the paper's PICO-HTM livelocks and crashes, while the
// default resilient policy demotes the machine to hst once and completes
// with a correct stack — no fault injection involved.
func TestStressPicoHTM16VCPUsCompletesDegraded(t *testing.T) {
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 2_000_000_000
	agg, rep, scheme := runStackResilience(t, cfg, 16, 1024, 256)
	checkDemotedOnce(t, agg, rep, scheme)
}

// windowCounterProgram is counterProgram with each LL/SC window spanning a
// block boundary, so a vCPU parked between blocks can hold an open
// transaction. The first pass runs the window's tail with no monitor (its
// SC fails), which translates it outside any transaction.
const windowCounterProgram = `
.org 0x10000
.entry worker
worker:
    ldr r4, =counter
    b tail
loop:
    ldrex r1, [r4]
    cmpi r1, #0
    bne tail
tail:
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

// TestPicoHTMLiveDemotionLosesNoUpdate demotes a 16-vCPU pico-htm machine
// mid-run while other vCPUs sit between the blocks of open LL/SC windows.
// The interference model is off so those windows stay open across the
// boundary; vCPU 1's transactions then all abort, so its window gives up
// and asks for the demotion. The demotion aborts the open windows, whose
// SCs then fail under hst and retry: not one increment may be lost.
func TestPicoHTMLiveDemotionLosesNoUpdate(t *testing.T) {
	const threads, iters = 16, 400
	im := buildImage(t, windowCounterProgram)
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 200_000_000
	cfg.Cost.HTMInterference = 1 << 30
	cfg.FaultInjector = faultinject.New(faultinject.Rule{
		Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, TID: 1, After: iters / 4, Count: 64,
	})
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
	if v, _ := m.Mem().LoadWord(im.MustSymbol("counter")); v != threads*iters {
		t.Fatalf("counter = %d, want %d: %d updates lost", v, threads*iters, threads*iters-int(v))
	}
	agg := m.AggregateStats()
	if got := m.Scheme().Name(); got != "hst" || agg.SchemeFallbacks != 1 {
		t.Fatalf("scheme %s after %d demotions, want hst after exactly one", got, agg.SchemeFallbacks)
	}
}

// faultAfterLoopProgram increments the counter r0 times, then stores to
// done, where the test injects a fault.
const faultAfterLoopProgram = `
.org 0x10000
.entry worker
worker:
    ldr r4, =counter
    ldr r5, =done
loop:
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne loop
    subsi r0, r0, #1
    bne loop
    movi r1, #1
    str r1, [r5]
    movi r0, #0
    svc #1
.align 1024
counter: .word 0
done: .word 0
`

// TestCheckpointBeforeLiveDemotionRestoresUnderHST rolls a live-demoted
// machine back to a cut taken before its demotion: the restore stays on
// hst, never on the HTM scheme the cut was taken under. One vCPU keeps the
// run deterministic: the last window's transactions all abort, so it asks
// for the demotion; a first run without checkpoints measures where the
// run ends, and the second places its only cut before the demotion and
// faults the store after it once. A rollback that kept the cut's pico-htm
// payload under hst fails the restore, so the run would exhaust its
// recovery attempts.
func TestCheckpointBeforeLiveDemotionRestoresUnderHST(t *testing.T) {
	const iters = 300
	im := buildImage(t, faultAfterLoopProgram)
	storm := faultinject.Rule{Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, After: iters - 1, Count: 64}
	run := func(every uint64, rules ...faultinject.Rule) (*Machine, error) {
		cfg := DefaultConfig("pico-htm")
		cfg.MaxGuestInstrs = 10_000_000
		cfg.CheckpointEvery = every
		cfg.FaultInjector = faultinject.New(rules...)
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(im); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SpawnThread(im.Entry, iters); err != nil {
			t.Fatal(err)
		}
		return m, m.Run()
	}
	m, err := run(0, storm)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Scheme().Name(); got != "hst" {
		t.Fatalf("the last window should demote the machine; ended on %s", got)
	}
	// The storm's backoff takes most of the run's last quarter: a cadence
	// of 3/4 of the run cuts once, before the demotion, and never again.
	m, err = run(m.VirtualTime()*3/4, storm, faultinject.Rule{
		Op: faultinject.OpMemStore, Action: faultinject.ActFault, Addr: im.MustSymbol("done"), Count: 1,
	})
	if err != nil {
		t.Fatalf("rollback should recover the run: %v", err)
	}
	agg := m.AggregateStats()
	if agg.RecoveryRestores != 1 || agg.Checkpoints != 1 {
		t.Fatalf("restores=%d checkpoints=%d, want one of each", agg.RecoveryRestores, agg.Checkpoints)
	}
	if agg.SchemeFallbacks != 0 {
		t.Fatalf("SchemeFallbacks = %d: the restored cut should predate the demotion", agg.SchemeFallbacks)
	}
	if got := m.Scheme().Name(); got != "hst" {
		t.Fatalf("restored under %s, want hst", got)
	}
	if v, _ := m.Mem().LoadWord(im.MustSymbol("counter")); v != iters {
		t.Fatalf("counter = %d, want %d", v, iters)
	}
}

// TestStressStrictPaperReproducesLivelockCrash: the same 16-vCPU run with
// StrictPaper set reproduces the paper's crash (EmulationError livelock).
func TestStressStrictPaperReproducesLivelockCrash(t *testing.T) {
	sb, err := guestlib.BuildStackBench(0x10000, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.StrictPaper = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(sb.Image); err != nil {
		t.Fatal(err)
	}
	if err := sb.InitStack(m.Mem()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := m.SpawnThread(sb.Worker, 4096); err != nil {
			t.Fatal(err)
		}
	}
	err = m.Run()
	var ee *core.EmulationError
	if !errors.As(err, &ee) {
		t.Fatalf("strict 16-vCPU pico-htm should crash with EmulationError, got %v", err)
	}
	if !strings.Contains(ee.Reason, "livelock") {
		t.Fatalf("crash reason = %q, want a livelock report", ee.Reason)
	}
}

// TestFaultWatchdogTripsOnSCFailureStorm runs a guest whose SC address
// never matches its LL (so the SC fails forever) and checks the progress
// watchdog converts the storm into a structured diagnostic.
func TestFaultWatchdogTripsOnSCFailureStorm(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    ldr r4, =xvar
    ldr r5, =yvar
loop:
    ldrex r1, [r4]
    strex r2, r1, [r5]
    b loop
.align 1024
xvar: .word 1
yvar: .word 2
`)
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 200_000_000
	cfg.WatchdogSCFails = 500
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	cpu, err := m.SpawnThread(im.Entry, 0)
	if err != nil {
		t.Fatal(err)
	}
	tid := cpu.TID()
	err = m.Run()
	var werr *core.WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("SC-failure storm should trip the watchdog, got %v", err)
	}
	if werr.Kind != "sc-failure storm" || werr.TID != tid {
		t.Fatalf("diagnostic = %+v", werr)
	}
	if werr.Addr != im.MustSymbol("yvar") {
		t.Fatalf("diagnostic addr = %#x, want yvar %#x", werr.Addr, im.MustSymbol("yvar"))
	}
	if werr.Fails < 500 {
		t.Fatalf("diagnostic fails = %d, want >= 500", werr.Fails)
	}
	if agg := m.AggregateStats(); agg.WatchdogTrips == 0 {
		t.Error("WatchdogTrips stat not counted")
	}
}

// TestFaultWatchdogDisabledByNegativeLimit: a negative limit turns the
// watchdog off; the run then ends via the instruction budget instead.
func TestFaultWatchdogDisabledByNegativeLimit(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    ldr r4, =xvar
    ldr r5, =yvar
loop:
    ldrex r1, [r4]
    strex r2, r1, [r5]
    b loop
.align 1024
xvar: .word 1
yvar: .word 2
`)
	cfg := DefaultConfig("pico-cas")
	cfg.MaxGuestInstrs = 100_000
	cfg.WatchdogSCFails = -1
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
	err = m.Run()
	var werr *core.WatchdogError
	if errors.As(err, &werr) {
		t.Fatalf("watchdog should be disabled, got %v", err)
	}
	if err == nil {
		t.Fatal("run should still stop on the instruction budget")
	}
}

// TestFaultVCPUPanicContained: a panic on a vCPU goroutine must not kill
// the process; it surfaces as a machine stop error naming the vCPU. The
// panic comes from a checkpoint sink, which runs on the capturing vCPU's
// goroutine, standing in for a buggy host integration; recovery is off so
// the run ends on the panic.
func TestFaultVCPUPanicContained(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #0
    b done
done:
    svc #1
`)
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 1_000_000
	cfg.CheckpointEvery = 1
	cfg.RecoveryAttempts = -1
	cfg.CheckpointSink = func(*checkpoint.Snapshot) { panic("injected sink panic") }
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	if err == nil {
		t.Fatal("panicking sink should fail the run")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "vCPU") {
		t.Fatalf("error should report the contained panic with its vCPU: %v", err)
	}
}
