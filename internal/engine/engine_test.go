package engine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"atomemu/internal/arch"
	"atomemu/internal/asm"
	"atomemu/internal/core"
	"atomemu/internal/mmu"
)

func buildImage(t *testing.T, src string) *asm.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newTestMachine(t *testing.T, scheme string, im *asm.Image) *Machine {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.MaxGuestInstrs = 50_000_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimpleArithmeticProgram(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #6
    movi r1, #7
    mul r2, r0, r1
    mov r0, r2
    svc #6      ; write r0
    movi r0, #0
    svc #1      ; exit
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("output = %v, want [42]", out)
	}
}

func TestLoopAndMemory(t *testing.T) {
	// Sum 1..100 into memory, read back, print.
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #0          ; sum
    movi r1, #100
loop:
    add r0, r0, r1
    subsi r1, r1, #1
    bne loop
    ldr r2, =cell
    str r0, [r2]
    ldr r3, [r2]
    mov r0, r3
    svc #6
    svc #1
.align 4
cell: .word 0
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 5050 {
		t.Fatalf("output = %v, want [5050]", out)
	}
}

func TestCallAndReturn(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #5
    bl double
    svc #6
    svc #1
double:
    add r0, r0, r0
    ret
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 10 {
		t.Fatalf("output = %v, want [10]", out)
	}
}

func TestEntryReturnExitsViaTrampoline(t *testing.T) {
	// A main that just returns: lr points at the runtime trampoline.
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #9
    ret
`)
	m := newTestMachine(t, "pico-cas", im)
	c, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode() != 9 {
		t.Fatalf("exit code = %d, want 9 (r0 at return)", c.ExitCode())
	}
}

// counterProgram is an LL/SC atomic-increment worker: r0 = iteration count.
const counterProgram = `
.org 0x10000
.entry worker
worker:
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

func TestConcurrentAtomicCounterAllSchemes(t *testing.T) {
	const threads = 4
	const iters = 1500
	for _, scheme := range []string{"pico-cas", "pico-st", "pico-htm", "hst", "hst-weak", "hst-htm", "pst", "pst-remap", "pst-mpk"} {
		t.Run(scheme, func(t *testing.T) {
			im := buildImage(t, counterProgram)
			m := newTestMachine(t, scheme, im)
			for i := 0; i < threads; i++ {
				if _, err := m.SpawnThread(im.Entry, iters); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			got, f := m.Mem().LoadWord(im.MustSymbol("counter"))
			if f != nil {
				t.Fatal(f)
			}
			if got != threads*iters {
				t.Fatalf("counter = %d, want %d — lost updates under %s", got, threads*iters, scheme)
			}
			agg := m.AggregateStats()
			if agg.SCs < threads*iters {
				t.Errorf("SC count %d below minimum %d", agg.SCs, threads*iters)
			}
			if m.VirtualTime() == 0 {
				t.Error("virtual time did not advance")
			}
		})
	}
}

func TestGuestSpawnJoin(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r5, =child
    mov r0, r5
    movi r1, #21
    svc #3          ; spawn(entry=r0, arg=r1) -> tid
    mov r6, r0
    mov r0, r6
    svc #4          ; join(tid)
    ldr r2, =cell
    ldr r0, [r2]
    svc #6          ; write the child's result
    svc #1
child:              ; r0 = 21
    add r0, r0, r0
    ldr r2, =cell
    str r0, [r2]
    movi r0, #0
    svc #1
.align 4
cell: .word 0
`)
	m := newTestMachine(t, "hst", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 42 {
		t.Fatalf("output = %v, want [42]", out)
	}
}

func TestGuestBarrier(t *testing.T) {
	// Two threads: both barrier_wait; each then writes. Values must both
	// appear (no one stuck).
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:             ; r0 = my value
    mov r7, r0
    ldr r0, =barcell
    svc #10         ; barrier_wait
    mov r0, r7
    svc #6
    svc #1
.align 4
barcell: .word 0
`)
	m := newTestMachine(t, "pico-cas", im)
	m.sysBarrierInit(im.MustSymbol("barcell"), 2)
	if _, err := m.SpawnThread(im.Entry, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(im.Entry, 22); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	if len(out) != 2 {
		t.Fatalf("output = %v", out)
	}
	if out[0]+out[1] != 33 {
		t.Fatalf("outputs = %v, want {11,22}", out)
	}
}

// TestHostSpawnsSurviveEarlyPark pins the spawn/park ordering that made
// TestGuestBarrier flake (8/300 at nproc=2): when SpawnThread ran the vCPU
// at once, the first thread could park on the barrier before the host had
// spawned the second, a machine half set up that the deadlock detector
// took for a guest deadlock. A host-spawned vCPU now waits for Run: here
// the host gives the first thread time to park and checks that it has not
// run at all.
func TestHostSpawnsSurviveEarlyPark(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    ldr r0, =barcell
    svc #10         ; barrier_wait
    svc #1
.align 4
barcell: .word 0
`)
	m := newTestMachine(t, "pico-cas", im)
	m.InitBarrier(im.MustSymbol("barcell"), 2)
	if _, err := m.SpawnThread(im.Entry); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	m.parkMu.Lock()
	parked := m.parked
	m.parkMu.Unlock()
	if ran := m.AggregateStats().GuestInstrs; parked != 0 || ran != 0 {
		t.Fatalf("before Run: %d vCPUs parked after %d guest instructions, want none run", parked, ran)
	}
	if _, err := m.SpawnThread(im.Entry); err != nil {
		t.Fatalf("second host spawn after the first thread parked: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	// A park that really is a deadlock is still reported once Run owns the
	// machine: one thread, a barrier of two, nobody else coming.
	m = newTestMachine(t, "pico-cas", im)
	m.InitBarrier(im.MustSymbol("barcell"), 2)
	if _, err := m.SpawnThread(im.Entry); err != nil {
		t.Fatal(err)
	}
	var de *core.DeadlockError
	if err := m.Run(); !errors.As(err, &de) {
		t.Fatalf("lone barrier waiter should deadlock, got %v", err)
	}
}

// TestUnrunMachineHoldsNoGoroutines: host-spawned vCPUs get their
// goroutines only when Run takes the machine, so a machine whose set-up
// fails after some spawns (a later spawn out of memory, say) and is never
// run leaves nothing behind to wait forever and pin it.
func TestUnrunMachineHoldsNoGoroutines(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    svc #1
`)
	const n = 8
	before := runtime.NumGoroutine()
	m := newTestMachine(t, "hst", im)
	for i := 0; i < n; i++ {
		if _, err := m.SpawnThread(im.Entry); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= n {
		t.Fatalf("%d host spawns without Run added %d goroutines, want none", n, grew)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.CPUs()); got != n {
		t.Fatalf("ran %d vCPUs, want %d", got, n)
	}
}

func TestGuestFutexMutex(t *testing.T) {
	// A futex-backed lock: LL/SC acquire with futex sleep, protecting a
	// non-atomic counter. 4 threads x 500 increments.
	im := buildImage(t, `
.org 0x10000
.entry worker
.equ ITERS, 500
worker:
    movw r6, #ITERS
outer:
    ; --- lock ---
acquire:
    ldr r4, =lockcell
    ldrex r1, [r4]
    cmpi r1, #0
    bne contended
    movi r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne acquire
    b locked
contended:
    clrex
    mov r0, r4
    movi r1, #1
    svc #7          ; futex_wait(lock, 1)
    b acquire
locked:
    ; --- critical section: non-atomic increment ---
    ldr r5, =countcell
    ldr r1, [r5]
    addi r1, r1, #1
    str r1, [r5]
    ; --- unlock ---
    movi r1, #0
    str r1, [r4]
    mov r0, r4
    movi r1, #1
    svc #8          ; futex_wake(lock, 1)
    subsi r6, r6, #1
    bne outer
    movi r0, #0
    svc #1
.align 4
lockcell: .word 0
countcell: .word 0
`)
	m := newTestMachine(t, "hst", im)
	const threads = 4
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(im.Entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Mem().LoadWord(im.MustSymbol("countcell"))
	if got != threads*500 {
		t.Fatalf("mutex-protected counter = %d, want %d", got, threads*500)
	}
}

func TestGuestFaultReported(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r0, =0x60000000  ; unmapped
    ldr r1, [r0]
    svc #1
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("expected guest fault, got %v", err)
	}
}

func TestRunawayGuestStopped(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    b main
`)
	cfg := DefaultConfig("pico-cas")
	cfg.MaxGuestInstrs = 10_000
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
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("expected runaway error, got %v", err)
	}
}

func TestExitGroupStopsEveryone(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movi r0, #7
    svc #2          ; exit_group
spinner:
    b spinner
`)
	m := newTestMachine(t, "pico-cas", im)
	// A spinner thread that would never halt on its own.
	if _, err := m.SpawnThread(im.MustSymbol("spinner")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStepModeDeterministicInterleaving(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r4, =cell
    ldr r1, [r4]
    addi r1, r1, #1
    str r1, [r4]
    svc #1
.align 4
cell: .word 0
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
	a, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Start(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave a and b so both read 0 before either writes: the lost
	// update must happen deterministically (plain loads/stores race).
	steps := func(c *CPU, n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// ldr r4,= is movw+movt = 2 instrs; then ldr (1) = 3 instructions to
	// have loaded the cell value.
	steps(a, 3)
	steps(b, 3)
	for !a.Halted() {
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for !b.Halted() {
		if _, err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := m.Mem().LoadWord(im.MustSymbol("cell"))
	if v != 1 {
		t.Fatalf("cell = %d, want exactly 1 (deterministic lost update)", v)
	}
}

func TestVirtualTimeScalesWithWork(t *testing.T) {
	run := func(iters uint32) uint64 {
		im := buildImage(t, counterProgram)
		m := newTestMachine(t, "pico-cas", im)
		if _, err := m.SpawnThread(im.Entry, iters); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.VirtualTime()
	}
	small, big := run(100), run(10_000)
	if big < small*20 {
		t.Errorf("virtual time not proportional to work: %d vs %d", small, big)
	}
}

func TestExclusiveWithSleepersNoDeadlock(t *testing.T) {
	// One thread blocks on a futex that is never woken by guest code; the
	// other performs HST SCs (stop-the-world) and then exits the group.
	// The machine must not deadlock.
	im := buildImage(t, `
.org 0x10000
.entry sleeper
sleeper:
    ldr r0, =cell2
    movi r1, #0
    svc #7             ; futex_wait(cell2, 0) — sleeps
    svc #1
worker:
    movi r6, #100
loop:
    ldr r4, =cell
    ldrex r1, [r4]
    addi r1, r1, #1
    strex r2, r1, [r4]
    cmpi r2, #0
    bne loop
    subsi r6, r6, #1
    bne loop
    movi r0, #0
    svc #2             ; exit_group wakes the sleeper
.align 4
cell: .word 0
cell2: .word 0
`)
	m := newTestMachine(t, "hst", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(im.MustSymbol("worker")); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Mem().LoadWord(im.MustSymbol("cell"))
	if v != 100 {
		t.Fatalf("cell = %d", v)
	}
	agg := m.AggregateStats()
	if agg.ExclSections < 100 {
		t.Errorf("HST should have run %d exclusive sections, saw %d", 100, agg.ExclSections)
	}
}

func TestMmapSyscall(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movw r0, #8192
    svc #11            ; mmap
    cmpi r0, #0
    beq fail
    movi r1, #123
    str r1, [r0, #16]
    ldr r2, [r0, #16]
    mov r0, r2
    svc #6
    svc #1
fail:
    movi r0, #1
    svc #6
    svc #1
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] != 123 {
		t.Fatalf("output = %v, want [123]", out)
	}
}

func TestStackIsolationGuardPage(t *testing.T) {
	// Deliberately overrun the stack: the guard page faults.
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    mov r1, sp
    movw r2, #0x4000   ; well past the 64 KiB stack plus guard
    sub r1, r1, r2
    sub r1, r1, r2
    sub r1, r1, r2
    sub r1, r1, r2
    sub r1, r1, r2
    movi r0, #1
    str r0, [r1]
    svc #1
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err == nil {
		t.Fatal("stack overrun should fault")
	}
}

func TestPSTSchemeProtectsAndRestores(t *testing.T) {
	im := buildImage(t, counterProgram)
	m := newTestMachine(t, "pst", im)
	if _, err := m.SpawnThread(im.Entry, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	counter := im.MustSymbol("counter")
	v, _ := m.Mem().LoadWord(counter)
	if v != 50 {
		t.Fatalf("counter = %d", v)
	}
	// Protection must be fully restored after the run.
	if p := m.Mem().PermAt(counter); p&mmu.PermWrite == 0 {
		t.Errorf("page left protected: %v", p)
	}
}

func TestConfigUnknownScheme(t *testing.T) {
	if _, err := NewMachine(DefaultConfig("nope")); err == nil {
		t.Fatal("unknown scheme must fail")
	}
}

func TestRegAccessors(t *testing.T) {
	cfg := DefaultConfig("pico-cas")
	cfg.StepMode = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im := buildImage(t, ".org 0x10000\n.entry main\nmain:\n movi r3, #77\n svc #1\n")
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	c, err := m.Start(im.Entry, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reg(arch.R0) != 5 || c.Reg(arch.R1) != 6 {
		t.Fatalf("start args not delivered: r0=%d r1=%d", c.Reg(arch.R0), c.Reg(arch.R1))
	}
	if c.Reg(arch.SP) == 0 {
		t.Error("sp not initialized")
	}
	for {
		more, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if c.Reg(arch.R3) != 77 {
		t.Fatalf("r3 = %d", c.Reg(arch.R3))
	}
	if c.PC() == 0 || !c.Halted() {
		t.Error("halt state wrong")
	}
}
