package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"atomemu/internal/core"
	"atomemu/internal/faultinject"
	"atomemu/internal/guestlib"
)

// TestRecoveryFromInjectedFault is the headline recovery demo: a 16-vCPU
// lock-free-stack run is killed mid-flight by an injected store fault; the
// machine rolls back to the last checkpoint, resumes, and finishes with a
// fully intact stack and a clean exit. The injector is not rolled back, so
// the Count-bounded fault does not re-fire after the restore.
func TestRecoveryFromInjectedFault(t *testing.T) {
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.CheckpointEvery = 100_000
	cfg.FaultInjector = faultinject.New(faultinject.Rule{
		Op: faultinject.OpMemStore, Action: faultinject.ActFault, After: 6_000, Count: 1,
	})
	agg, rep, _ := runStackResilience(t, cfg, 16, 384, 256)
	if cfg.FaultInjector.Fired() == 0 {
		t.Fatal("injected fault never fired; the demo tested nothing")
	}
	if agg.RecoveryRestores == 0 {
		t.Error("run should have rolled back to a checkpoint at least once")
	}
	if agg.Checkpoints == 0 {
		t.Error("no checkpoints captured")
	}
	if rep.Corrupted() {
		t.Errorf("stack corrupted after recovery: %+v", rep)
	}
}

// TestRecoveryDemotesSchemeOnWatchdogAndExhausts drives a guest whose SC can
// never succeed (strex address differs from the ldrex address) into the
// progress watchdog with checkpointing on. The failure is scheme-attributed,
// so the first rollback demotes PICO-HTM to portable HST — but the guest is
// wedged under any scheme, so recovery retries its full budget and gives up
// with RecoveryExhaustedError wrapping the watchdog diagnostic.
func TestRecoveryDemotesSchemeOnWatchdogAndExhausts(t *testing.T) {
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
	err = m.Run()
	var re *RecoveryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("wedged guest should exhaust recovery, got %v", err)
	}
	if re.Attempts != cfg.RecoveryAttempts {
		t.Errorf("attempts = %d, want %d", re.Attempts, cfg.RecoveryAttempts)
	}
	var werr *core.WatchdogError
	if !errors.As(err, &werr) {
		t.Errorf("exhaustion should wrap the watchdog diagnostic, got %v", re.Err)
	}
	if got := m.Scheme().Name(); got != "hst" {
		t.Errorf("scheme-attributed failure should demote to hst, still %q", got)
	}
	agg := m.AggregateStats()
	if agg.RecoveryAttempts != uint64(cfg.RecoveryAttempts) {
		t.Errorf("RecoveryAttempts stat = %d, want %d", agg.RecoveryAttempts, cfg.RecoveryAttempts)
	}
	if agg.RecoveryRestores != uint64(cfg.RecoveryAttempts) {
		t.Errorf("RecoveryRestores stat = %d, want %d", agg.RecoveryRestores, cfg.RecoveryAttempts)
	}
}

// checkpointDeterminismImage: main spawns four workers, each incrementing a
// private counter 800 times through LL/SC, joins them, and emits the
// counters. Under pico-cas nothing stalls or serializes across vCPUs, so
// output AND virtual time are schedule-independent — the reference for
// checking that checkpointing is invisible to the virtual-time model.
const checkpointDeterminismImage = `
.org 0x10000
.entry main
main:
    ldr r6, =counters
    ldr r8, =tids
    movi r7, #4
spawn_loop:
    ldr r0, =worker
    mov r1, r6
    svc #3
    str r0, [r8]
    addi r8, r8, #4
    addi r6, r6, #4
    subsi r7, r7, #1
    bne spawn_loop
    ldr r8, =tids
    movi r7, #4
join_loop:
    ldr r0, [r8]
    svc #4
    addi r8, r8, #4
    subsi r7, r7, #1
    bne join_loop
    ldr r6, =counters
    movi r7, #4
emit_loop:
    ldr r0, [r6]
    svc #6
    addi r6, r6, #4
    subsi r7, r7, #1
    bne emit_loop
    movi r0, #0
    svc #1

worker:
    movi r2, #800
wloop:
    ldrex r1, [r0]
    addi r1, r1, #1
    strex r3, r1, [r0]
    cmpi r3, #0
    bne wloop
    subsi r2, r2, #1
    bne wloop
    movi r0, #0
    svc #1

.align 64
counters: .space 16
tids:     .space 16
`

func runDeterminism(t *testing.T, checkpointEvery uint64) ([]uint32, uint64, uint64) {
	t.Helper()
	im := buildImage(t, checkpointDeterminismImage)
	cfg := DefaultConfig("pico-cas")
	cfg.MaxGuestInstrs = 100_000_000
	cfg.CheckpointEvery = checkpointEvery
	// The translate charge is the engine's one scheduling-dependent cost: a
	// vCPU that loses the shared-TB publish race pays for its discarded
	// translation (engine.lookupTB), so the per-vCPU clocks jitter by
	// TBTranslate multiples across host schedules. Zero it so virtual time
	// is exactly reproducible and the on/off comparison is meaningful.
	cfg.Cost.TBTranslate = 0
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
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Output(), m.VirtualTime(), m.AggregateStats().Checkpoints
}

// TestCheckpointingIsInvisibleToVirtualTime: the same guest run with
// checkpointing off and on (and again on, across host schedules) produces
// identical output and identical virtual time — capture cost is charged to
// the checkpoint component, never the guest-visible clocks.
func TestCheckpointingIsInvisibleToVirtualTime(t *testing.T) {
	outOff, vtOff, ckOff := runDeterminism(t, 0)
	if ckOff != 0 {
		t.Fatalf("checkpointing off captured %d checkpoints", ckOff)
	}
	want := []uint32{800, 800, 800, 800}
	for i, v := range outOff {
		if v != want[i] {
			t.Fatalf("baseline output = %v, want %v", outOff, want)
		}
	}
	for round := 0; round < 3; round++ {
		outOn, vtOn, ckOn := runDeterminism(t, 2_000)
		if ckOn == 0 {
			t.Fatal("checkpointing on captured no checkpoints")
		}
		if len(outOn) != len(outOff) {
			t.Fatalf("output length %d vs %d", len(outOn), len(outOff))
		}
		for i := range outOn {
			if outOn[i] != outOff[i] {
				t.Fatalf("round %d: output diverged: %v vs %v", round, outOn, outOff)
			}
		}
		if vtOn != vtOff {
			t.Fatalf("round %d: virtual time diverged: %d (on) vs %d (off)", round, vtOn, vtOff)
		}
	}
}

// TestDeadlockFutexSelf: a lone vCPU futex-waiting on a value nobody will
// change is the minimal all-parked deadlock; the detector must convert it
// into a structured core.DeadlockError instead of hanging the host.
func TestDeadlockFutexSelf(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r0, =cell
    movi r1, #0
    svc #7
    movi r0, #0
    svc #1
.align 16
cell: .word 0
`)
	m := newTestMachine(t, "hst", im)
	cpu, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	var derr *core.DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want core.DeadlockError, got %v", err)
	}
	if len(derr.Waiters) != 1 {
		t.Fatalf("waiters = %+v, want exactly one", derr.Waiters)
	}
	w := derr.Waiters[0]
	if w.TID != cpu.TID() || w.Kind != "futex" || w.Addr != im.MustSymbol("cell") {
		t.Errorf("waiter = %+v, want futex wait on cell by tid %d", w, cpu.TID())
	}
}

// TestDeadlockJoinCycle: two vCPUs joining each other can never finish, so
// no waker will ever end either wait — the detector plus the stop's wake
// of every waiter must still unwedge the host and report both waiters.
func TestDeadlockJoinCycle(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r0, =peer
    movi r1, #1
    svc #3
    svc #4
    movi r0, #0
    svc #1
peer:
    svc #4
    movi r0, #0
    svc #1
`)
	m := newTestMachine(t, "hst", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	err := m.Run()
	var derr *core.DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want core.DeadlockError, got %v", err)
	}
	if len(derr.Waiters) != 2 {
		t.Fatalf("waiters = %+v, want both joiners", derr.Waiters)
	}
	for _, w := range derr.Waiters {
		if w.Kind != "join" {
			t.Errorf("waiter %+v should be a join wait", w)
		}
	}
}

// TestDeadlockBarrierShortfall: a 3-party barrier with only two arrivals
// parks every live vCPU; the diagnostic reports the barrier occupancy.
func TestDeadlockBarrierShortfall(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r0, =bar
    movi r1, #3
    svc #9
    ldr r0, =waiter
    movi r1, #0
    svc #3
    ldr r0, =bar
    svc #10
    movi r0, #0
    svc #1
waiter:
    ldr r0, =bar
    svc #10
    movi r0, #0
    svc #1
.align 16
bar: .word 0
`)
	m := newTestMachine(t, "hst", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	err := m.Run()
	var derr *core.DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want core.DeadlockError, got %v", err)
	}
	if len(derr.Waiters) != 2 {
		t.Fatalf("waiters = %+v, want two barrier waiters", derr.Waiters)
	}
	for _, w := range derr.Waiters {
		if w.Kind != "barrier" || w.Total != 3 {
			t.Errorf("waiter %+v, want a barrier wait with total 3", w)
		}
	}
}

// TestRunContextCancel: cancelling the context stops a spinning guest
// cleanly and surfaces the context error.
func TestRunContextCancel(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
loop:
    b loop
`)
	cfg := DefaultConfig("hst") // no instruction budget: only the cancel stops it
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
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err = m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestVirtualDeadline: the deadline is virtual-time based, so a spinning
// guest stops with a DeadlineError naming the clock that crossed it.
func TestVirtualDeadline(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
loop:
    b loop
`)
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 1_000_000_000
	cfg.VirtualDeadline = 50_000
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
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
	if de.Deadline != 50_000 || de.Clock <= de.Deadline {
		t.Errorf("diagnostic = %+v", de)
	}
}

// TestSpawnAfterStopReturnsStopError (regression): Start/SpawnThread on a
// stopped machine used to launch a goroutine that raced teardown; now they
// fail fast, wrapping the machine's stop error.
func TestSpawnAfterStopReturnsStopError(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r1, #0
    str r0, [r1]
    movi r0, #0
    svc #1
`)
	m := newTestMachine(t, "hst", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	runErr := m.Run()
	if runErr == nil {
		t.Fatal("store to unmapped page should fail the run")
	}
	_, err := m.SpawnThread(im.Entry)
	if err == nil {
		t.Fatal("SpawnThread on a stopped machine must fail")
	}
	if !strings.Contains(err.Error(), "machine stopped") || !errors.Is(err, runErr) {
		t.Errorf("spawn error should wrap the stop error: %v", err)
	}
	if _, err := m.Start(im.Entry); err == nil {
		t.Error("Start on a stopped machine must fail")
	}
}

// TestRecoveryDisabledByNegativeAttempts: RecoveryAttempts < 0 returns the
// raw failure even when a checkpoint exists.
func TestRecoveryDisabledByNegativeAttempts(t *testing.T) {
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.CheckpointEvery = 100_000
	cfg.RecoveryAttempts = -1
	cfg.FaultInjector = faultinject.New(faultinject.Rule{
		Op: faultinject.OpMemStore, Action: faultinject.ActFault, After: 6_000, Count: 1,
	})
	sb, err := guestlib.BuildStackBench(0x10000, 256)
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
	for i := 0; i < 16; i++ {
		if _, err := m.SpawnThread(sb.Worker, 384); err != nil {
			t.Fatal(err)
		}
	}
	err = m.Run()
	if err == nil {
		t.Fatal("with recovery disabled the injected fault must surface")
	}
	if !strings.Contains(err.Error(), "fault") {
		t.Errorf("error should be the injected guest fault: %v", err)
	}
	if agg := m.AggregateStats(); agg.RecoveryRestores != 0 {
		t.Errorf("RecoveryRestores = %d with recovery disabled", agg.RecoveryRestores)
	}
}
