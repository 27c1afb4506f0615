package engine

import (
	"errors"
	"strings"
	"testing"

	"atomemu/internal/core"
	"atomemu/internal/faultinject"
	"atomemu/internal/guestlib"
	"atomemu/internal/stats"
)

// runStackResilience drives the lock-free-stack bench through an explicit
// config and returns the aggregate stats and the post-run stack audit.
func runStackResilience(t *testing.T, cfg Config, threads int, pairsPerThread uint64, nodes uint32) (stats.CPU, guestlib.StackReport) {
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
	return m.AggregateStats(), rep
}

// TestStressPicoHTMFaultInjectedAbortStorm forces a long storm of
// transaction-begin aborts (so every LL/SC window retries with backoff and
// then demotes) and checks PICO-HTM degrades (SchemeFallbacks > 0) yet
// finishes the stack workload with a fully intact stack. The storm is
// Count-bounded: an unbounded one would (rightly) starve individual vCPUs
// into the progress watchdog. The count is sized to core.DefaultResilience's
// 16-retry budget: about a thousand demotions, which keep most SCs of the
// 16-vCPU HST-HTM run below on the fallback path. With fewer, more SCs
// commit transactionally, where HST-HTM's known stack corruption is still
// open, and that test would measure the hole instead of the policy.
func TestStressPicoHTMFaultInjectedAbortStorm(t *testing.T) {
	for _, threads := range []int{8, 16} {
		t.Run(map[int]string{8: "8vcpu", 16: "16vcpu"}[threads], func(t *testing.T) {
			cfg := DefaultConfig("pico-htm")
			cfg.MaxGuestInstrs = 2_000_000_000
			cfg.FaultInjector = faultinject.New(faultinject.Rule{
				Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, Count: 16000,
			})
			agg, rep := runStackResilience(t, cfg, threads, 384, 256)
			if agg.SchemeFallbacks == 0 {
				t.Error("expected scheme fallbacks under a commit-abort storm")
			}
			if agg.HTMRetries == 0 {
				t.Error("expected backoff retries before demotion")
			}
			if rep.Corrupted() {
				t.Errorf("stack corrupted: %+v", rep)
			}
		})
	}
}

// TestStressHSTHTMFaultInjectedAbortStorm storms HST-HTM's SC transaction
// with begin aborts (they fire before the entry-owner check, so each SC
// takes consecutive aborts until its retry budget demotes it): the SC
// falls back to the stop-the-world path and completes. Count-bounded for
// the same starvation reason as above.
func TestStressHSTHTMFaultInjectedAbortStorm(t *testing.T) {
	for _, threads := range []int{8, 16} {
		t.Run(map[int]string{8: "8vcpu", 16: "16vcpu"}[threads], func(t *testing.T) {
			cfg := DefaultConfig("hst-htm")
			cfg.MaxGuestInstrs = 2_000_000_000
			cfg.FaultInjector = faultinject.New(faultinject.Rule{
				Op: faultinject.OpTxnBegin, Action: faultinject.ActAbort, Count: 16000,
			})
			agg, rep := runStackResilience(t, cfg, threads, 384, 256)
			if agg.SchemeFallbacks == 0 {
				t.Error("expected scheme fallbacks under a commit-abort storm")
			}
			if agg.HTMRetries == 0 {
				t.Error("expected backoff retries before demotion")
			}
			if rep.Corrupted() {
				t.Errorf("stack corrupted: %+v", rep)
			}
		})
	}
}

// TestStressPicoHTM16VCPUsCompletesDegraded is the headline robustness
// claim: at 16 vCPUs the paper's PICO-HTM livelocks and crashes, while the
// default resilient policy completes the run (degraded) with a correct
// stack — no fault injection involved.
func TestStressPicoHTM16VCPUsCompletesDegraded(t *testing.T) {
	cfg := DefaultConfig("pico-htm")
	cfg.MaxGuestInstrs = 2_000_000_000
	agg, rep := runStackResilience(t, cfg, 16, 1024, 256)
	if agg.SchemeFallbacks == 0 {
		t.Error("16-vCPU pico-htm should have demoted at least once")
	}
	if rep.Corrupted() {
		t.Errorf("stack corrupted: %+v", rep)
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

// panicWriter panics on the first write, standing in for a buggy
// tracing/IO integration inside the vCPU goroutine.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("injected writer panic") }

// TestFaultVCPUPanicContained: a panic on a vCPU goroutine must not kill
// the process; it surfaces as a machine stop error naming the vCPU.
func TestFaultVCPUPanicContained(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #0
    svc #1
`)
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 1_000_000
	cfg.TraceWriter = panicWriter{}
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
		t.Fatal("panicking writer should fail the run")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "vCPU") {
		t.Fatalf("error should report the contained panic with its vCPU: %v", err)
	}
}
