package engine

import (
	"strings"
	"testing"
	"time"
)

func TestFutexWakeCountsAndValueMismatch(t *testing.T) {
	// Three sleepers on one futex; main wakes 2, then 1. A counter the
	// sleepers raise before futex_wait cannot tell main they are asleep
	// (one may still be on its way in, miss the wake and sleep forever), so
	// the host raises the go flag main spins on only once all three are
	// parked.
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r5, =sleeper
    mov r0, r5
    movi r1, #0
    svc #3          ; spawn 3 sleepers
    mov r0, r5
    svc #3
    mov r0, r5
    svc #3
waitloop:
    ldr r2, =go
    ldr r1, [r2]
    cmpi r1, #0
    beq waitloop
    ; wake 2
    ldr r0, =cell
    movi r1, #2
    svc #8
    svc #6          ; print woken count (2)
    ldr r0, =cell
    movi r1, #5
    svc #8
    svc #6          ; print woken count (1)
    ; futex_wait with mismatched value returns immediately with 1
    ldr r0, =cell
    movi r1, #123
    svc #7
    svc #6          ; print 1
    svc #1
sleeper:
    ldr r0, =cell
    movi r1, #0
    svc #7          ; futex_wait(cell, 0)
    movi r0, #0
    svc #1
.align 4
cell: .word 0
go: .word 0
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	for parked := 0; parked < 3 && !m.Stopped(); {
		time.Sleep(time.Millisecond)
		m.parkMu.Lock()
		parked = m.parked
		m.parkMu.Unlock()
	}
	if f := m.Mem().WriteWordPriv(im.MustSymbol("go"), 1); f != nil {
		t.Fatal(f)
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	if len(out) != 3 || out[0] != 2 || out[1] != 1 || out[2] != 1 {
		t.Fatalf("output = %v, want [2 1 1]", out)
	}
}

func TestJoinInvalidTID(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    movw r0, #999
    svc #4          ; join(999) -> 1
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
	if out := m.Output(); len(out) != 1 || out[0] != 1 {
		t.Fatalf("output = %v, want [1]", out)
	}
}

func TestJoinSelfReturnsError(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    svc #5          ; tid
    svc #4          ; join(self) -> 1, must not deadlock
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
	if out := m.Output(); len(out) != 1 || out[0] != 1 {
		t.Fatalf("output = %v, want [1]", out)
	}
}

func TestUnknownSyscallFails(t *testing.T) {
	im := buildImage(t, ".org 0x10000\n.entry main\nmain:\n svc #99\n svc #1\n")
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "unknown syscall") {
		t.Fatalf("err = %v", err)
	}
}

// TestSpawnLimit: the guest spawns until sys_spawn refuses; the last
// granted tid is maxThreads (the main thread is tid 1) and the refusal
// returns 0xffffffff.
func TestSpawnLimit(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r5, =idle
    movw r7, #0xffff
    movt r7, #0xffff
    movi r6, #0
spawn:
    mov r0, r5
    movi r1, #0
    svc #3
    cmp r0, r7
    beq full
    mov r6, r0
    b spawn
full:
    mov r8, r0
    mov r0, r6
    svc #6          ; last granted tid
    mov r0, r8
    svc #6          ; the refusal
    svc #1
idle:
    movi r0, #0
    svc #1
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	if len(out) != 2 || out[0] != maxThreads || out[1] != ^uint32(0) {
		t.Fatalf("output = %v, want [%d %d]", out, maxThreads, ^uint32(0))
	}
}

func TestMmapExhaustionReturnsZero(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ; ask for far more than the heap region can hold
    movw r0, #0xffff
    movt r0, #0x1fff
    svc #11
    svc #6          ; 0
    movi r0, #0
    svc #11         ; zero-size mmap also returns 0
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
	out := m.Output()
	if len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Fatalf("output = %v, want [0 0]", out)
	}
}

func TestClockSyscallMonotonic(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    svc #12
    mov r5, r0
    movi r1, #100
spin:
    subsi r1, r1, #1
    bne spin
    svc #12
    sub r0, r0, r5  ; elapsed > 0
    cmpi r0, #0
    bgt good
    movi r0, #0
    svc #6
    svc #1
good:
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
	if out := m.Output(); len(out) != 1 || out[0] != 1 {
		t.Fatalf("clock not monotonic: %v", out)
	}
}

func TestBarrierUninitializedFails(t *testing.T) {
	im := buildImage(t, ".org 0x10000\n.entry main\nmain:\n movw r0, #0x5000\n svc #10\n svc #1\n")
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Fatalf("err = %v", err)
	}
}

func TestGuestBarrierInitSyscall(t *testing.T) {
	// barrier_init from guest code rather than the host helper.
	im := buildImage(t, `
.org 0x10000
.entry main
main:
    ldr r0, =barcell
    movi r1, #2
    svc #9          ; barrier_init(barcell, 2)
    ldr r5, =waiter
    mov r0, r5
    movi r1, #0
    svc #3
    ldr r0, =barcell
    svc #10
    svc #6          ; either 0 or 1 (last arriver)
    svc #1
waiter:
    ldr r0, =barcell
    svc #10
    movi r0, #0
    svc #1
.align 4
barcell: .word 0
`)
	m := newTestMachine(t, "pico-cas", im)
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(); len(out) != 1 || out[0] > 1 {
		t.Fatalf("output = %v", out)
	}
}
