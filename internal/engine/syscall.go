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
		r[0] = m.sysJoin(c, r[0])
	case SysGetTID:
		r[0] = c.tid
	case SysWrite:
		m.outMu.Lock()
		m.output = append(m.output, r[0])
		m.outMu.Unlock()
	case SysFutexWait:
		r[0] = m.sysFutexWait(c, r[0], r[1])
	case SysFutexWake:
		r[0] = m.sysFutexWake(c, r[0], r[1])
	case SysBarrierInit:
		m.sysBarrierInit(r[0], int(r[1]))
	case SysBarrierWait:
		r[0] = m.sysBarrierWait(c, r[0])
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

func (m *Machine) sysJoin(c *CPU, tid uint32) uint32 {
	target := m.cpuByTID(tid)
	if target == nil || target == c {
		return 1
	}
	// Register the park against the target under parkMu: finish() settles
	// joinParked and halts under the same lock, so either we see the target
	// halted (no park) or finish() will decrement for us before it closes
	// done.
	m.parkMu.Lock()
	var derr error
	parked := false
	if !target.haltedFlag.Load() {
		c.blocked = blockedMark{active: true, kind: "join", syscall: SysJoin, addr: tid}
		target.joinParked++
		m.parked++
		parked = true
		derr = m.deadlockedLocked()
	}
	m.parkMu.Unlock()
	if derr != nil {
		m.stop(derr)
	}
	if parked {
		if h := m.cfg.SchedHook; h != nil {
			h.Parked(c.tid)
		}
	}
	m.excl.execEnd(c)
	// Also watch the stop broadcast: in a join cycle the target's done can
	// never close, and the deadlock stop must still unblock us.
	select {
	case <-target.done:
	case <-m.stopCh:
	}
	m.excl.execStart(c)
	m.noteResume(c)
	// The joiner resumes no earlier than the joinee finished. The joinee
	// owns its clock until done is closed, so a joiner woken by the stop
	// alone leaves it unread; the stopping machine's virtual time is the
	// maximum over all clocks, which already counts the joinee's.
	select {
	case <-target.done:
		c.liftClockTo(target.clock, false)
	default:
	}
	return 0
}

// --- futex ---

type futexQueue struct {
	waiters []chan uint64
}

// wakeAll releases every waiter, stamping them with the waker's clock.
// Caller holds futexMu.
func (q *futexQueue) wakeAll(clk uint64) {
	for _, ch := range q.waiters {
		ch <- clk
	}
	q.waiters = nil
}

func (m *Machine) sysFutexWait(c *CPU, addr, expected uint32) uint32 {
	m.futexMu.Lock()
	v, f := m.mem.LoadWord(addr)
	if f != nil {
		m.futexMu.Unlock()
		c.fail(fmt.Errorf("engine: tid %d: futex_wait fault: %w", c.tid, f))
		return 1
	}
	if v != expected {
		m.futexMu.Unlock()
		return 1
	}
	q := m.futexes[addr]
	if q == nil {
		q = &futexQueue{}
		m.futexes[addr] = q
	}
	ch := make(chan uint64, 1)
	q.waiters = append(q.waiters, ch)
	stoppedAlready := m.stopped.Load()
	m.futexMu.Unlock()
	if stoppedAlready {
		// The machine stopped before we could sleep; stop() already woke
		// registered waiters, so the channel has (or will get) a value —
		// but don't rely on ordering, just drain if present and leave.
		select {
		case <-ch:
		default:
		}
		return 0
	}
	// Register the park before sleeping (futexMu is released: a deadlock
	// here stops the machine, whose wakeAll reaches our channel).
	m.notePark(c, blockedMark{active: true, kind: "futex", syscall: SysFutexWait, addr: addr})
	m.excl.execEnd(c)
	wakeClk := <-ch
	m.excl.execStart(c)
	m.noteResume(c)
	// Blocked time counts as synchronization overhead.
	c.liftClockTo(wakeClk+m.cfg.Cost.SyscallBase, true)
	return 0
}

func (m *Machine) sysFutexWake(c *CPU, addr, maxWake uint32) uint32 {
	m.futexMu.Lock()
	defer m.futexMu.Unlock()
	q := m.futexes[addr]
	if q == nil || len(q.waiters) == 0 {
		return 0
	}
	n := int(maxWake)
	if n > len(q.waiters) {
		n = len(q.waiters)
	}
	clk := c.clock
	// Waker-side unpark accounting, BEFORE delivering the wakes: a waiter
	// with a wake in flight must never count as parked, or the deadlock
	// detector could fire while the machine can still make progress.
	m.noteWake(n)
	for i := 0; i < n; i++ {
		q.waiters[i] <- clk
	}
	q.waiters = append(q.waiters[:0], q.waiters[n:]...)
	return uint32(n)
}

// --- barrier ---

type guestBarrier struct {
	total   int
	arrived int
	maxClk  uint64
	gen     *barrierGen
}

// barrierGen is one barrier generation; releaseClk is written exactly once,
// before ch is closed, so waiters read it race-free after the close.
type barrierGen struct {
	ch         chan struct{}
	releaseClk uint64
}

// releaseAll releases current waiters (machine stop). Caller holds barMu.
func (b *guestBarrier) releaseAll() {
	old := b.gen
	b.gen = &barrierGen{ch: make(chan struct{})}
	b.arrived = 0
	close(old.ch)
}

func (m *Machine) sysBarrierInit(addr uint32, total int) {
	if total < 1 {
		total = 1
	}
	m.barMu.Lock()
	m.barriers[addr] = &guestBarrier{total: total, gen: &barrierGen{ch: make(chan struct{})}}
	m.barMu.Unlock()
}

func (m *Machine) sysBarrierWait(c *CPU, addr uint32) uint32 {
	m.barMu.Lock()
	b := m.barriers[addr]
	if b == nil {
		m.barMu.Unlock()
		c.fail(fmt.Errorf("engine: tid %d: barrier_wait on uninitialized barrier %#x", c.tid, addr))
		return 0
	}
	b.arrived++
	if clk := c.clock; clk > b.maxClk {
		b.maxClk = clk
	}
	if b.arrived == b.total {
		// Last arriver: release the generation. Unpark the waiters before
		// closing the channel (waker-side accounting; barMu-then-parkMu is
		// the sanctioned order).
		old := b.gen
		old.releaseClk = b.maxClk
		b.maxClk = 0
		b.arrived = 0
		b.gen = &barrierGen{ch: make(chan struct{})}
		m.noteWake(b.total - 1)
		close(old.ch)
		m.barMu.Unlock()
		c.liftClockTo(old.releaseClk+m.cfg.Cost.SyscallBase, true)
		return 1
	}
	g := b.gen
	mark := blockedMark{
		active:  true,
		kind:    "barrier",
		syscall: SysBarrierWait,
		addr:    addr,
		arrived: b.arrived,
		total:   b.total,
	}
	m.barMu.Unlock()
	m.notePark(c, mark)
	m.excl.execEnd(c)
	<-g.ch
	m.excl.execStart(c)
	m.noteResume(c)
	c.liftClockTo(g.releaseClk+m.cfg.Cost.SyscallBase, true)
	return 0
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
