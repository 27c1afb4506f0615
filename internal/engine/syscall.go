package engine

import (
	"fmt"

	"atomemu/internal/arch"
	"atomemu/internal/htm"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// Guest syscall numbers (SVC immediate). Arguments in r0..r3, result in r0.
const (
	// SysExit ends the calling thread; r0 is its exit code.
	SysExit = 1
	// SysExitGroup ends the whole machine; r0 is the exit code.
	SysExitGroup = 2
	// SysSpawn starts a thread at entry r0 with argument r1 (delivered in
	// the child's r0). Returns the child tid, or ^0 on failure.
	SysSpawn = 3
	// SysJoin blocks until thread r0 exits. Returns 0, or 1 if no such
	// thread.
	SysJoin = 4
	// SysGetTID returns the caller's thread id.
	SysGetTID = 5
	// SysWrite appends r0 to the machine's output log.
	SysWrite = 6
	// SysFutexWait blocks while *r0 == r1. Returns 0 when woken, 1 when
	// the value already differed.
	SysFutexWait = 7
	// SysFutexWake wakes up to r1 waiters on address r0; returns the count.
	SysFutexWake = 8
	// SysBarrierInit creates a barrier at address r0 for r1 participants.
	SysBarrierInit = 9
	// SysBarrierWait blocks until all participants arrive. Returns 1 for
	// the last arriver (the "serial thread"), 0 otherwise.
	SysBarrierWait = 10
	// SysMmap maps r0 bytes of fresh guest memory; returns the address or 0.
	SysMmap = 11
	// SysClock returns the vCPU's virtual time (low 32 bits).
	SysClock = 12
)

// svcWord encodes "svc #n" (used to build the runtime trampoline).
func svcWord(n int32) uint32 {
	return arch.Instruction{Op: arch.SVC, Imm: n}.Encode()
}

func (m *Machine) syscall(c *CPU, num uint32) {
	c.charge(stats.CompNative, m.cfg.Cost.SyscallBase)
	// A syscall inside an open HTM window aborts the transaction: real
	// hardware transactions cannot survive a kernel entry.
	if c.mon.Txn != nil && !c.mon.Txn.Done() {
		c.mon.Txn.AbortNow(htm.ReasonSyscall)
		c.st.HTMAborts++
		c.ring.Emit(obs.EvHTMAbort, c.pc, uint64(htm.ReasonSyscall))
		c.charge(stats.CompHTM, m.cfg.Cost.HTMAbort)
	}
	r := c.slots[:4]
	switch num {
	case SysExit:
		c.exitCode = r[0]
		c.halted = true
	case SysExitGroup:
		c.exitCode = r[0]
		c.halted = true
		m.stop(nil)
	case SysSpawn:
		child, err := m.newCPU(r[0], c.clock+m.cfg.Cost.SyscallBase, []uint32{r[1]})
		if err != nil {
			r[0] = ^uint32(0)
			return
		}
		r[0] = child.tid
	case SysJoin:
		m.sysJoin(c, r[0])
	case SysGetTID:
		r[0] = c.tid
	case SysWrite:
		m.outMu.Lock()
		m.output = append(m.output, r[0])
		m.outMu.Unlock()
	case SysFutexWait:
		m.sysFutexWait(c, r[0], r[1])
	case SysFutexWake:
		r[0] = m.sysFutexWake(c, r[0], r[1])
	case SysBarrierInit:
		m.sysBarrierInit(r[0], int(r[1]))
	case SysBarrierWait:
		m.sysBarrierWait(c, r[0])
	case SysMmap:
		r[0] = m.sysMmap(r[0])
	case SysClock:
		r[0] = uint32(c.clock)
	default:
		c.fail(fmt.Errorf("engine: tid %d: unknown syscall %d at pc %#08x", c.tid, num, c.pc))
	}
}

func (m *Machine) cpuByTID(tid uint32) *CPU {
	m.cpuMu.Lock()
	defer m.cpuMu.Unlock()
	for _, c := range m.cpus {
		if c.tid == tid {
			return c
		}
	}
	return nil
}

// --- the guest wait ---
//
// futex_wait, barrier_wait and join are one wait under one lock, parkMu.
// The waiter registers its blocked mark together with the queue its waker
// looks in, and from then on touches none of its own state. The waker
// (futex_wake, the barrier's last arrival, the joined vCPU's finish) ends
// the wait before it delivers the wake: it writes the waiter's r0, lifts
// its clock, clears the mark and counts the unpark. A delivered wake has
// thus already written everything the wait returns, so no checkpoint cut
// can record a woken waiter as blocked, and a waiter in step mode needs no
// goroutine: Step returns as soon as the wait begins (CPU.Waiting), and
// the vCPU is runnable again once another vCPU's step has ended the wait.

// parkLocked registers c as waiting with mark. The caller holds parkMu and
// queues c where its waker looks before it releases it. It registers
// nothing and reports false once the machine has stopped: stop has woken
// every waiter already, and nobody would wake c.
func (m *Machine) parkLocked(c *CPU, mark blockedMark) bool {
	if m.stopped.Load() {
		return false
	}
	c.blocked = mark
	m.parked++
	return true
}

// wait is the waiter's half after parkLocked, with no lock held. It stops
// the machine if the park left no vCPU that could wake anyone; then a vCPU
// goroutine sleeps outside its execution region until its wait has ended
// or the machine has stopped, while in step mode it returns at once.
func (c *CPU) wait() {
	m := c.m
	m.parkMu.Lock()
	derr := m.deadlockedLocked()
	m.parkMu.Unlock()
	if derr != nil {
		m.stop(derr)
	}
	if m.cfg.StepMode {
		return
	}
	m.excl.execEnd(c)
	<-c.wake
	m.excl.execStart(c)
}

// endWaitLocked ends w's wait from its waker's side: w returns r0 from its
// syscall at virtual time clk or later, the lift charged as exclusive
// (synchronization) time when chargeExcl is set. Caller holds parkMu. On a
// stopped machine it does nothing: stop has woken w and left its wait as
// it was.
func (m *Machine) endWaitLocked(w *CPU, r0 uint32, clk uint64, chargeExcl bool) {
	if m.stopped.Load() {
		return
	}
	w.slots[0] = r0
	w.liftClockTo(clk, chargeExcl)
	w.blocked = blockedMark{}
	m.parked--
	w.wakeUp()
}

// wakeUp delivers a wake to c's sleeping goroutine. Each wait gets exactly
// one, from its waker or from stop; in step mode nobody sleeps and the
// token is never read.
func (c *CPU) wakeUp() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Waiting reports whether the vCPU is blocked in a guest wait that nobody
// has ended yet. In step mode Step returns as soon as a wait begins; the
// vCPU is runnable again once another vCPU's step has ended it.
func (c *CPU) Waiting() bool {
	c.m.parkMu.Lock()
	defer c.m.parkMu.Unlock()
	return c.blocked.active
}

// sysJoin waits for thread tid to finish; its finish ends the wait with the
// joined thread's clock.
func (m *Machine) sysJoin(c *CPU, tid uint32) {
	target := m.cpuByTID(tid)
	if target == nil || target == c {
		c.slots[0] = 1
		return
	}
	m.parkMu.Lock()
	halted := target.haltedFlag.Load()
	waits := !halted && m.parkLocked(c, blockedMark{active: true, kind: "join", syscall: SysJoin, addr: tid})
	if halted {
		c.slots[0] = 0
		c.liftClockTo(target.clock, false)
	} else if waits {
		target.joiners = append(target.joiners, c)
	}
	m.parkMu.Unlock()
	if waits {
		c.wait()
	}
}

// --- futex ---

func (m *Machine) sysFutexWait(c *CPU, addr, expected uint32) {
	m.parkMu.Lock()
	v, f := m.mem.LoadWord(addr)
	if f != nil {
		m.parkMu.Unlock()
		c.fail(fmt.Errorf("engine: tid %d: futex_wait fault: %w", c.tid, f))
		return
	}
	if v != expected {
		m.parkMu.Unlock()
		c.slots[0] = 1
		return
	}
	waits := m.parkLocked(c, blockedMark{active: true, kind: "futex", syscall: SysFutexWait, addr: addr})
	if waits {
		m.futexes[addr] = append(m.futexes[addr], c)
	}
	m.parkMu.Unlock()
	if waits {
		c.wait()
	}
}

// sysFutexWake ends the waits of up to maxWake waiters on addr, oldest
// first; each returns 0 no earlier than the waker's clock plus a syscall,
// the blocked time counted as synchronization overhead.
func (m *Machine) sysFutexWake(c *CPU, addr, maxWake uint32) uint32 {
	m.parkMu.Lock()
	defer m.parkMu.Unlock()
	q := m.futexes[addr]
	n := min(int(maxWake), len(q))
	if n == 0 {
		return 0
	}
	for _, w := range q[:n] {
		m.endWaitLocked(w, 0, c.clock+m.cfg.Cost.SyscallBase, true)
	}
	m.futexes[addr] = append(q[:0], q[n:]...)
	return uint32(n)
}

// --- barrier ---

type guestBarrier struct {
	total   int
	arrived int
	maxClk  uint64
	waiters []*CPU
}

func (m *Machine) sysBarrierInit(addr uint32, total int) {
	if total < 1 {
		total = 1
	}
	m.parkMu.Lock()
	m.barriers[addr] = &guestBarrier{total: total}
	m.parkMu.Unlock()
}

// sysBarrierWait arrives at the barrier at addr. The last arrival returns 1
// and ends every other arrival's wait with 0; all of them resume no earlier
// than the latest arrival's clock plus a syscall, the wait charged as
// synchronization overhead.
func (m *Machine) sysBarrierWait(c *CPU, addr uint32) {
	m.parkMu.Lock()
	b := m.barriers[addr]
	if b == nil {
		m.parkMu.Unlock()
		c.fail(fmt.Errorf("engine: tid %d: barrier_wait on uninitialized barrier %#x", c.tid, addr))
		return
	}
	b.arrived++
	b.maxClk = max(b.maxClk, c.clock)
	if b.arrived == b.total {
		release := b.maxClk + m.cfg.Cost.SyscallBase
		for _, w := range b.waiters {
			m.endWaitLocked(w, 0, release, true)
		}
		b.waiters, b.arrived, b.maxClk = b.waiters[:0], 0, 0
		m.parkMu.Unlock()
		c.slots[0] = 1
		c.liftClockTo(release, true)
		return
	}
	mark := blockedMark{
		active:  true,
		kind:    "barrier",
		syscall: SysBarrierWait,
		addr:    addr,
		arrived: b.arrived,
		total:   b.total,
	}
	waits := m.parkLocked(c, mark)
	if waits {
		b.waiters = append(b.waiters, c)
	}
	m.parkMu.Unlock()
	if waits {
		c.wait()
	}
}

// --- memory ---

func (m *Machine) sysMmap(size uint32) uint32 {
	if size == 0 {
		return 0
	}
	size = (size + mmu.PageSize - 1) &^ uint32(mmu.PageMask)
	m.heapMu.Lock()
	defer m.heapMu.Unlock()
	addr := m.heapNext
	if addr+size < addr || addr+size > StackRegionBase {
		return 0
	}
	if err := m.mem.Map(addr, size, mmu.PermRW); err != nil {
		return 0
	}
	m.heapNext = addr + size
	return addr
}
