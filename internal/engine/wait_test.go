package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"atomemu/internal/checkpoint"
)

// resumeEveryCut runs src's worker on two host-spawned vCPUs (r0 = 0 and
// 1) with a checkpoint captured at every cadence point of one cycle, then
// resumes a brand-new machine from every captured cut (at most 200 of
// them, evenly spaced) and runs it to the end. Every resumed run must
// finish cleanly with the uninterrupted run's output. init sets up the
// first machine before the spawns; a resumed one takes its set-up from
// the cut.
func resumeEveryCut(t *testing.T, src string, init func(*Machine)) {
	t.Helper()
	im := buildImage(t, src)
	cfg := DefaultConfig("hst")
	cfg.MemBytes = 1 << 20
	cfg.MaxGuestInstrs = 10_000_000
	cfg.CheckpointEvery = 1
	var mu sync.Mutex
	var cuts []*checkpoint.Snapshot
	cfg.CheckpointSink = func(s *checkpoint.Snapshot) {
		mu.Lock()
		cuts = append(cuts, s)
		mu.Unlock()
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if init != nil {
		init(m)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.SpawnThread(im.Entry, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := m.Output()
	if len(cuts) == 0 {
		t.Fatal("no cut captured at a cadence of one cycle")
	}

	cfg.CheckpointSink = nil
	cfg.CheckpointEvery = 0
	stride := max(1, len(cuts)/200)
	failed, tried := 0, 0
	for i := 0; i < len(cuts); i += stride {
		tried++
		r, err := ResumeFromSnapshot(cfg, cuts[i])
		if err != nil {
			t.Fatalf("cut %d: resume: %v", i, err)
		}
		err = r.Run()
		if got := r.Output(); err == nil && !slices.Equal(got, want) {
			err = fmt.Errorf("output %v, want %v", got, want)
		}
		if err != nil {
			if failed++; failed <= 3 {
				t.Errorf("cut %d (VT %d): resumed run: %v", i, cuts[i].VirtualTime, err)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d resumed cuts failed", failed, tried)
	}
}

// TestEveryBarrierCutResumes: a barrier waiter that its last arrival has
// released is no longer blocked, whether or not it has run again since. A
// cut that recorded it as blocked re-ran its barrier_wait on resume, where
// it arrived alone at the next round and the machine deadlocked.
func TestEveryBarrierCutResumes(t *testing.T) {
	const src = `
.org 0x10000
.entry worker
worker:
    movi r4, #50
loop:
    ldr r0, =bar
    svc #10         ; barrier_wait
    subsi r4, r4, #1
    bne loop
    movi r0, #0
    svc #1
.align 16
bar: .word 0
`
	im := buildImage(t, src)
	resumeEveryCut(t, src, func(m *Machine) { m.InitBarrier(im.MustSymbol("bar"), 2) })
}

// TestEveryFutexCutResumes is the futex twin: vCPU 0 waits on a word that
// never changes, so each futex_wait really blocks and returns 0 only when
// vCPU 1's wake lands (vCPU 1 retries the wake until it reports a waiter
// woken), and vCPU 0 writes every return value. A cut that recorded a
// woken waiter as blocked re-ran its futex_wait on resume and waited for a
// wake vCPU 1 had already delivered.
func TestEveryFutexCutResumes(t *testing.T) {
	resumeEveryCut(t, `
.org 0x10000
.entry worker
worker:
    movi r4, #20
    cmpi r0, #0
    bne waker
wait:
    ldr r0, =cell
    movi r1, #0
    svc #7          ; futex_wait(cell, 0)
    svc #6          ; write its return value
    subsi r4, r4, #1
    bne wait
    movi r0, #0
    svc #1
waker:
    ldr r0, =cell
    movi r1, #1
    svc #8          ; futex_wake(cell, 1)
    cmpi r0, #1
    beq woke
    yield
    b waker
woke:
    subsi r4, r4, #1
    bne waker
    movi r0, #0
    svc #1
.align 16
cell: .word 0
`, nil)
}

// TestStepModeWaitReturns: in step mode a guest wait never blocks the
// stepping goroutine. The step that arrives at a two-party barrier first
// returns with Waiting set, a further step of that vCPU does nothing, and
// the other vCPU's arrival ends the wait: it writes r0 = 0 and lifts the
// waiter's clock to the release time, with no goroutine started on the
// way. The stepping runs on a helper goroutine only so that a step that
// blocks fails the test instead of hanging it.
func TestStepModeWaitReturns(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    ldr r0, =bar
arrive:
    svc #10         ; barrier_wait
    svc #1
.align 16
bar: .word 0
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
	m.InitBarrier(im.MustSymbol("bar"), 2)
	var cpus [2]*CPU
	for i := range cpus {
		if cpus[i], err = m.SpawnThread(im.Entry); err != nil {
			t.Fatal(err)
		}
	}
	c1, c2 := cpus[0], cpus[1]
	step := func(c *CPU) {
		if alive, err := c.Step(); !alive || err != nil {
			t.Errorf("vCPU %d: alive=%v err=%v", c.TID(), alive, err)
		}
	}
	// arrive steps c up to and through its barrier_wait.
	arrive := func(c *CPU) {
		for c.PC() != im.MustSymbol("arrive") && !t.Failed() {
			step(c)
		}
		step(c)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		goroutines := runtime.NumGoroutine()
		arrive(c1)
		if !c1.Waiting() {
			t.Error("vCPU 1 arrived first at the barrier but is not Waiting")
		}
		waitClock, pc := c1.clock, c1.PC()
		step(c1)
		if !c1.Waiting() || c1.PC() != pc || c1.clock != waitClock {
			t.Error("stepping a waiting vCPU ran it")
		}
		arrive(c2) // the last arrival releases vCPU 1
		if c1.Waiting() || c2.Waiting() {
			t.Errorf("after the last arrival: Waiting = %v, %v, want both false", c1.Waiting(), c2.Waiting())
		}
		if r0, r0last := c1.Reg(0), c2.Reg(0); r0 != 0 || r0last != 1 {
			t.Errorf("barrier_wait returned %d to the waiter and %d to the last arrival, want 0 and 1", r0, r0last)
		}
		if c1.clock <= waitClock || c1.clock != c2.clock {
			t.Errorf("waiter clock %d (was %d at its arrival), want lifted to the release time %d", c1.clock, waitClock, c2.clock)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("stepping changed the goroutine count from %d to %d", goroutines, n)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a step-mode barrier_wait blocked the stepping goroutine")
	}
	for _, c := range cpus {
		if alive, _ := c.Step(); alive {
			t.Errorf("vCPU %d did not exit after the barrier", c.TID())
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}
