package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"atomemu/internal/arch"
	"atomemu/internal/core"
	"atomemu/internal/htm"
	"atomemu/internal/ir"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// CPU is one guest vCPU, executed by one goroutine (or single-stepped by
// the litmus harness in step mode). It implements core.Context.
type CPU struct {
	m   *Machine
	tid uint32

	// slots holds the unified IR register space: [0:16] are the guest
	// registers, the rest block-local temporaries.
	slots []uint32
	flags arch.Flags
	pc    uint32

	mon core.Monitor
	st  stats.CPU

	// ring is this vCPU's event-trace ring; nil (one dead nil check per
	// emit site) unless Config.TraceEvents.
	ring *obs.Ring

	// clock is this vCPU's virtual time. Like st, it is a plain word only
	// this vCPU's goroutine writes, or its waker, while the vCPU is
	// registered as waiting (endWaitLocked); anyone else reads it only while
	// the vCPU is quiescent: parked by a stop-the-world (VirtualTime,
	// capture, restore) or finished (sysJoin, under parkMu).
	clock uint64

	// localTBs is the vCPU-private level of the two-level TB cache: plain
	// map, no synchronization, absorbs every repeat lookup so the shared
	// lock-free cache (Machine.tbs, tbcache.go) is only consulted once per
	// (vCPU, pc). Each entry also carries this vCPU's chain links and
	// cold-execution promotion counter (tier.go).
	localTBs map[uint32]*localTB
	// jumpCache is a direct-mapped front of localTBs (index jumpSlot(pc), tag
	// localTB.start) so the common repeat lookup hashes nothing. It holds
	// only pointers that are also in localTBs and is dropped wherever that
	// map is.
	jumpCache [jumpCacheSize]*localTB

	// yieldRng drives randomized host-yield spacing so deschedule points
	// sweep across all guest loop phases (a fixed cadence phase-locks with
	// fixed-length guest loops and hides interleaving bugs like ABA).
	yieldRng uint32
	// lastExclSeen is the machine exclusive-section count this vCPU has
	// already paid witness stalls for.
	lastExclSeen uint64
	// preemptLeft counts down guest memory operations to the next
	// mid-block preemption point. Real hardware interleaves threads at
	// instruction granularity; without this, a translation block is a
	// de-facto critical section and races that need a deschedule inside a
	// block (the ABA window between a pop's next-load and its SC) never
	// fire.
	preemptLeft int

	// Progress-watchdog state (instruction-count based, no timers): the
	// run loop samples the SC counters every watchdogEvery blocks and
	// accumulates failures seen since the last success. lastSCAddr is the
	// most recent SC target, for the trip diagnostic.
	wdSucc     uint64
	wdFails    uint64
	wdStalled  uint64
	lastSCAddr uint32
	// stepWd counts Step calls toward the next step-mode watchdog sample
	// (the goroutine run loop keeps its own block-cadence counter).
	stepWd int

	// blocked and joiners belong to the guest wait (syscall.go), the
	// deadlock detector and the checkpoint layer; both are guarded by
	// Machine.parkMu. blocked marks this vCPU as waiting in a blocking
	// syscall (and tells a checkpoint restore to re-execute it); joiners
	// are the vCPUs waiting for this one to finish, whose waits finish ends.
	blocked blockedMark
	joiners []*CPU
	// wake carries the one wake a sleeping waiter gets (CPU.wait).
	wake chan struct{}

	halted     bool
	haltedFlag atomic.Bool
	exitCode   uint32
	err        error
}

func newCPU(m *Machine, tid uint32) *CPU {
	c := &CPU{
		m:        m,
		tid:      tid,
		slots:    make([]uint32, 64),
		localTBs: make(map[uint32]*localTB),
		yieldRng: tid*2654435761 + 1,
		wake:     make(chan struct{}, 1),
	}
	c.ring = m.newTraceRing(tid, &c.clock)
	return c
}

// jumpCacheSize is the number of jump-cache entries per vCPU (32 KB of
// pointers, touched only as far as the guest's code reaches).
const jumpCacheSize = 4096

// jumpSlot is pc's index in a jump cache.
func jumpSlot(pc uint32) uint32 { return (pc >> 2) & (jumpCacheSize - 1) }

// --- core.Context ---

// TID returns the vCPU's thread id (1-based).
func (c *CPU) TID() uint32 { return c.tid }

// Mem returns the guest address space.
func (c *CPU) Mem() *mmu.Memory { return c.m.mem }

// Monitor returns the exclusive-monitor state.
func (c *CPU) Monitor() *core.Monitor { return &c.mon }

// StartExclusive stops the world (QEMU start_exclusive).
func (c *CPU) StartExclusive() {
	c.m.excl.startExclusive(c)
	c.ring.Emit(obs.EvExclEnter, 0, 0)
}

// EndExclusive resumes the world.
func (c *CPU) EndExclusive() {
	c.ring.Emit(obs.EvExclExit, 0, 0)
	c.m.excl.endExclusive(c)
}

// ChargeExclusive accounts a stop-the-world's cost without stopping
// (PST-family schemes serialize with page locks instead).
func (c *CPU) ChargeExclusive() { c.m.chargeExclusiveEntry(c) }

// Stats returns this vCPU's counters.
func (c *CPU) Stats() *stats.CPU { return &c.st }

// Charge adds virtual cycles to a component and advances the clock.
func (c *CPU) charge(comp stats.Component, cycles uint64) {
	c.st.Charge(comp, cycles)
	c.clock += cycles
}

// Charge implements core.Context.
func (c *CPU) Charge(comp stats.Component, cycles uint64) { c.charge(comp, cycles) }

// TM returns the machine's transactional memory (nil without HTM).
func (c *CPU) TM() *htm.TM { return c.m.tm }

// liftClockTo raises the clock to at least t; when chargeExcl is set the
// jump is accounted as exclusive (stop-the-world suspension) time.
func (c *CPU) liftClockTo(t uint64, chargeExcl bool) {
	if t <= c.clock {
		return
	}
	if chargeExcl {
		c.st.Charge(stats.CompExclusive, t-c.clock)
	}
	c.clock = t
}

// --- execution ---

// PC returns the current guest program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Reg returns a guest register value.
func (c *CPU) Reg(r arch.Reg) uint32 { return c.slots[r] }

// SetReg sets a guest register value (test/litmus setup).
func (c *CPU) SetReg(r arch.Reg, v uint32) { c.slots[r] = v }

// Flags returns the guest condition flags.
func (c *CPU) Flags() arch.Flags { return c.flags }

// Halted reports whether the vCPU has stopped.
func (c *CPU) Halted() bool { return c.haltedFlag.Load() }

// ExitCode returns the value passed to the exit syscall.
func (c *CPU) ExitCode() uint32 { return c.exitCode }

// Err returns the vCPU's fatal error, if any.
func (c *CPU) Err() error { return c.err }

// VStats returns a copy of the vCPU's counters.
func (c *CPU) VStats() stats.CPU { return c.st }

// fail records a fatal vCPU error and stops the machine.
func (c *CPU) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.halted = true
	c.m.stop(err)
}

// RunningCPUs implements core.Context.
func (c *CPU) RunningCPUs() int { return int(c.m.runningCPUs.Load()) }

// Tracer implements core.Context: the vCPU's event ring, nil when tracing
// is off (obs.Ring methods are nil-safe).
func (c *CPU) Tracer() *obs.Ring { return c.ring }

// finish marks the vCPU stopped and ends its joiners' waits. Halting,
// ending those waits and re-checking for deadlock happen under one parkMu
// hold, so the detector never sees a half-finished vCPU.
func (c *CPU) finish() {
	m := c.m
	m.parkMu.Lock()
	if !c.haltedFlag.Load() {
		m.runningCPUs.Add(-1)
	}
	c.haltedFlag.Store(true)
	for _, j := range c.joiners {
		m.endWaitLocked(j, 0, c.clock, false)
	}
	c.joiners = nil
	// This exit may strand the remaining vCPUs: with one fewer runner,
	// "every live vCPU is parked" may hold now.
	derr := m.deadlockedLocked()
	m.parkMu.Unlock()
	if derr != nil {
		m.stop(derr)
	}
	if c.mon.Txn != nil && !c.mon.Txn.Done() {
		c.mon.Txn.AbortNow(htm.ReasonSyscall)
	}
}

// watchdogEvery is how many blocks run between progress-watchdog samples.
const watchdogEvery = 1024

// watchdogCheck trips the machine when this vCPU has accumulated
// WatchdogSCFails SC failures without a single success — an SC-failure
// storm (a stuck monitor, a wedged lock holder, a scheme bug) that would
// otherwise spin forever. Purely instruction-count based: no timers, so
// paused or slow runs never trip spuriously.
func (c *CPU) watchdogCheck() {
	limit := c.m.cfg.WatchdogSCFails
	if limit <= 0 {
		return
	}
	succ := c.st.SCs - c.st.SCFails
	if succ != c.wdSucc {
		c.wdSucc = succ
		c.wdFails = c.st.SCFails
		c.wdStalled = 0
		return
	}
	c.wdStalled += c.st.SCFails - c.wdFails
	c.wdFails = c.st.SCFails
	if c.wdStalled <= uint64(limit) {
		return
	}
	c.st.WatchdogTrips++
	c.ring.Emit(obs.EvWatchdogTrip, c.lastSCAddr, c.wdStalled)
	werr := &core.WatchdogError{
		Scheme:      c.m.scheme.Name(),
		TID:         c.tid,
		Addr:        c.lastSCAddr,
		Kind:        "sc-failure storm",
		Fails:       c.wdStalled,
		AbortStreak: c.mon.AbortStreak,
	}
	if ho, ok := c.m.scheme.(core.HashOwnerReporter); ok {
		werr.HashOwner, werr.HasOwner = ho.HashOwner(c.lastSCAddr)
	}
	c.fail(werr)
}

// run is the vCPU main loop (QEMU's cpu_exec).
func (c *CPU) run() {
	e := c.m.excl
	e.execStart(c)
	defer func() {
		c.finish()
		e.execEnd(c)
	}()
	// Contain panics: one bad block must stop the machine with a
	// diagnostic, not kill the host process. Registered after the defer
	// above so it recovers first; finish/execEnd then still run.
	defer func() {
		if r := recover(); r != nil {
			c.fail(&PanicError{TID: c.tid, PC: c.pc, Scheme: c.m.scheme.Name(), Value: r})
		}
	}()
	// A vCPU relaunched from a checkpoint with a blocked marker was parked
	// in a blocking syscall at the cut: its registers still hold the
	// arguments and pc the continuation, so re-execute the syscall before
	// resuming block execution.
	if c.blocked.active {
		c.resumeBlocked()
	}
	deadline := c.m.cfg.VirtualDeadline
	ckptEvery := c.m.cfg.CheckpointEvery
	// Both cadences count executed blocks, not loop iterations: one
	// stepOnce may run a whole chain, and the watchdog/yield spacing must
	// not stretch with the chain budget.
	yieldLeft := c.yieldGap()
	wdLeft := watchdogEvery
	for !c.halted {
		if c.m.stopped.Load() {
			break
		}
		e.checkpoint(c)
		c.witnessStalls()
		blocks := c.stepOnce()
		if deadline > 0 && c.clock > deadline {
			c.m.stop(&DeadlineError{TID: c.tid, Deadline: deadline, Clock: c.clock})
			break
		}
		// A vCPU that has just exited must not capture: its haltedFlag is
		// set only by finish, so the cut would record it live at the pc
		// after its exit, and a restore would run it on from there.
		if ckptEvery > 0 && !c.halted {
			c.m.maybeCheckpoint(c)
		}
		if wdLeft -= blocks; wdLeft <= 0 {
			c.watchdogCheck()
			wdLeft = watchdogEvery
		}
		if yieldLeft -= blocks; yieldLeft <= 0 {
			// On a single-core host, spinning guests starve lock holders
			// without this; the randomized gap sweeps the deschedule point
			// across guest loop phases.
			c.hostYield()
			yieldLeft = c.yieldGap()
		}
	}
}

// resumeBlocked re-executes the blocking syscall recorded in this vCPU's
// checkpoint marker (set by a restore). The dispatch rewrites r0 with the
// syscall result exactly as the original execution would have.
func (c *CPU) resumeBlocked() {
	c.m.parkMu.Lock()
	mark := c.blocked
	c.blocked = blockedMark{}
	c.m.parkMu.Unlock()
	if mark.active {
		c.m.syscall(c, mark.syscall)
	}
}

// maybePreempt yields the host thread at randomized guest memory-op
// intervals, modelling instruction-granular preemption of translated code.
// It is small enough to inline into execOps' memory cases, leaving one
// decrement and branch per op; preempt is the out-of-line rest.
func (c *CPU) maybePreempt() {
	if c.preemptLeft--; c.preemptLeft <= 0 {
		c.preempt()
	}
}

// preempt reseeds the preemption countdown and yields the host thread.
func (c *CPU) preempt() {
	c.preemptLeft = c.nextGap(preemptMemOps)
	if !c.m.cfg.StepMode {
		c.hostYield()
	}
}

// sharesHost reports whether another vCPU is live, i.e. whether a host
// yield has anybody to let run.
func (c *CPU) sharesHost() bool { return c.m.runningCPUs.Load() > 1 }

// hostYield is the run loop's and maybePreempt's deschedule point. A lone
// vCPU skips it: every Gosched is a trip through the Go scheduler plus a
// futex wake of an idle P, some 40 % of a one-vCPU compute run's wall time
// (DESIGN §4b). The cadences and yieldRng advance either way, so virtual
// time cannot tell; a guest-requested yield (ir.YieldOp) does not come here.
func (c *CPU) hostYield() {
	if c.sharesHost() {
		runtime.Gosched()
	}
}

// witnessStalls charges this vCPU for stop-the-world sections other vCPUs
// ran since it last checked: the suspended-thread half of the exclusive
// cost model.
func (c *CPU) witnessStalls() {
	sec := c.m.exclSections.Load()
	if sec == c.lastExclSeen {
		return
	}
	delta := sec - c.lastExclSeen
	c.lastExclSeen = sec
	c.charge(stats.CompExclusive, delta*c.m.cfg.Cost.ExclusiveStall)
}

// yieldGap returns the next randomized host-yield distance in blocks.
func (c *CPU) yieldGap() int { return c.nextGap(quantumTBs) }

// nextGap returns a randomized distance in [1, 2*mean].
func (c *CPU) nextGap(mean uint32) int { return 1 + int(c.nextRand()%(2*mean)) }

// nextRand advances the vCPU's xorshift32 stream, yieldRng.
func (c *CPU) nextRand() uint32 {
	r := c.yieldRng
	r ^= r << 13
	r ^= r >> 17
	r ^= r << 5
	c.yieldRng = r
	return r
}

// Step executes one translation block in step mode (one guest instruction,
// since step mode caps blocks at 1). It returns false once the vCPU halted.
// A step never blocks: a step that begins a guest wait (futex, barrier,
// join) returns with Waiting true, and stepping a waiting vCPU does
// nothing until another vCPU's step has ended its wait.
//
// The loop-level services that the goroutine run loop provides — the
// progress watchdog and the virtual deadline — run here too, at the same
// block cadence, so a step-mode SC-failure storm (a stuck hash lock, an
// injected abort schedule) trips the watchdog instead of spinning the
// caller forever.
func (c *CPU) Step() (bool, error) {
	if c.halted {
		return false, c.err
	}
	if c.Waiting() {
		return true, nil
	}
	e := c.m.excl
	e.execStart(c)
	c.witnessStalls()
	c.stepOnce()
	e.execEnd(c)
	if !c.halted {
		if dl := c.m.cfg.VirtualDeadline; dl > 0 && c.clock > dl {
			c.m.stop(&DeadlineError{TID: c.tid, Deadline: dl, Clock: c.clock})
		}
		if c.stepWd++; c.stepWd >= watchdogEvery {
			c.stepWd = 0
			c.watchdogCheck()
		}
	}
	if c.halted {
		c.finish()
	}
	return !c.halted, c.err
}

// stepOnce resolves and executes the block at pc, then — when chaining is
// enabled — follows direct successor links for further blocks before
// returning to the dispatch loop, up to Machine.chainBudget blocks in
// total. Exclusive-protocol polling and witness stalls run at every chain
// boundary, so stop-the-world requests and checkpoint cuts never wait on a
// chain; the loop-level services (deadline, checkpoint cadence, watchdog,
// yield) catch up when stepOnce returns, which is why it reports how many
// blocks it ran. A followed link skips both the cache lookup and its
// TBLookup charge — the modeled saving of direct chaining.
func (c *CPU) stepOnce() int {
	blocks := 0
	var prev *localTB
	var outcome exitOutcome
	for {
		if max := c.m.cfg.MaxGuestInstrs; max > 0 && c.st.GuestInstrs >= max {
			c.fail(fmt.Errorf("engine: tid %d exceeded %d guest instructions at pc %#08x",
				c.tid, max, c.pc))
			return blocks
		}
		if c.m.tm != nil {
			if c.mon.Demote {
				c.m.demoteLive(c)
			}
			// Emulator-interference model (paper §III-B, ref 18): a transaction
			// still open at a block boundary has emulation work — TB lookups,
			// chaining updates, shared profiling state — inside it; with more
			// threads that shared state churns faster. Abort with probability
			// min(0.95, ((threads-1)/Cost.HTMInterference)²). SC-only
			// transactions (HST-HTM) never reach here and are immune, the
			// paper's point.
			if txn := c.mon.Txn; txn != nil && !txn.Done() {
				n := uint64(c.m.runningCPUs.Load())
				if n > 1 {
					ratio := (n - 1) * 65536 / c.m.cfg.Cost.HTMInterference
					p := ratio * ratio / 65536
					if p > 62259 { // 0.95 in 16-bit fixed point
						p = 62259
					}
					if uint64(c.nextRand()>>16) < p {
						txn.AbortNow(htm.ReasonEmulation)
						c.st.HTMAborts++
						c.ring.Emit(obs.EvHTMAbort, c.pc, uint64(htm.ReasonEmulation))
						c.charge(stats.CompHTM, c.m.cfg.Cost.HTMAbort)
					}
				}
			}
		}
		// Resolve the next block: follow the chain link when one exists,
		// otherwise look it up and install the link for next time.
		var lt *localTB
		if prev != nil {
			lt = prev.link(outcome)
		}
		if lt == nil {
			var err error
			lt, err = c.m.localFor(c, c.pc)
			if err != nil {
				c.fail(fmt.Errorf("engine: tid %d: %w", c.tid, err))
				return blocks
			}
			if prev != nil {
				prev.setLink(outcome, lt)
				c.st.ChainLinks++
				c.ring.Emit(obs.EvChainLink, prev.start, uint64(lt.start))
			}
		} else {
			c.st.ChainFollows++
		}
		outcome = c.exec(lt)
		blocks++
		if outcome == exitNone || c.halted || blocks >= c.m.chainBudget || c.m.stopped.Load() {
			return blocks
		}
		prev = lt
		// Chain boundary: the same gates the dispatch loop runs before a
		// block — park for pending exclusive sections, pay witnessed stalls.
		c.m.excl.checkpoint(c)
		c.witnessStalls()
	}
}

// execBlock interprets one IR block and reports how it exited, for
// chaining: direct exits (ExitJmp, either ExitCond edge) have statically
// known targets and may be linked; everything else returns exitNone.
func (c *CPU) execBlock(b *ir.Block) exitOutcome {
	outcome, native := c.execOps(b)
	// Booked after the ops (and after any guestFault/schemeFault they
	// raised), whole-block even when the block faulted mid-way. A block that
	// panics books nothing: the machine is stopping with a PanicError.
	c.st.IROps += uint64(len(b.Ops))
	c.st.GuestInstrs += uint64(b.GuestLen)
	c.charge(stats.CompNative, native)
	return outcome
}

// execOps is execBlock's op loop; it returns the exit outcome and the
// native cycles the ops it ran are charged.
func (c *CPU) execOps(b *ir.Block) (exitOutcome, uint64) {
	if len(c.slots) < b.NumSlots {
		grown := make([]uint32, b.NumSlots+16)
		copy(grown, c.slots)
		c.slots = grown
	}
	s := c.slots
	mem := c.m.mem
	scheme := c.m.scheme
	cost := &c.m.cfg.Cost
	var native uint64

	for i := range b.Ops {
		in := &b.Ops[i]
		switch in.Op {
		case ir.Nop:

		case ir.MovI:
			s[in.D] = in.Imm
			native += cost.IROp
		case ir.Mov:
			s[in.D] = s[in.A]
			native += cost.IROp
		case ir.Not:
			s[in.D] = ^s[in.A]
			native += cost.IROp

		case ir.Add:
			s[in.D] = s[in.A] + s[in.B]
			native += cost.IROp
		case ir.Sub:
			s[in.D] = s[in.A] - s[in.B]
			native += cost.IROp
		case ir.And:
			s[in.D] = s[in.A] & s[in.B]
			native += cost.IROp
		case ir.Or:
			s[in.D] = s[in.A] | s[in.B]
			native += cost.IROp
		case ir.Xor:
			s[in.D] = s[in.A] ^ s[in.B]
			native += cost.IROp
		case ir.Mul:
			s[in.D] = s[in.A] * s[in.B]
			native += cost.IROp
		case ir.UDiv:
			if d := s[in.B]; d == 0 {
				s[in.D] = 0
			} else {
				s[in.D] = s[in.A] / d
			}
			native += cost.IROp
		case ir.SDiv:
			s[in.D] = sdiv32(s[in.A], s[in.B])
			native += cost.IROp
		case ir.Shl:
			s[in.D] = s[in.A] << (s[in.B] & 31)
			native += cost.IROp
		case ir.Shr:
			s[in.D] = s[in.A] >> (s[in.B] & 31)
			native += cost.IROp
		case ir.Sar:
			s[in.D] = uint32(int32(s[in.A]) >> (s[in.B] & 31))
			native += cost.IROp

		case ir.AddI:
			s[in.D] = s[in.A] + in.Imm
			native += cost.IROp
		case ir.SubI:
			s[in.D] = s[in.A] - in.Imm
			native += cost.IROp
		case ir.RsbI:
			s[in.D] = in.Imm - s[in.A]
			native += cost.IROp
		case ir.AndI:
			s[in.D] = s[in.A] & in.Imm
			native += cost.IROp
		case ir.OrI:
			s[in.D] = s[in.A] | in.Imm
			native += cost.IROp
		case ir.XorI:
			s[in.D] = s[in.A] ^ in.Imm
			native += cost.IROp
		case ir.ShlI:
			s[in.D] = s[in.A] << (in.Imm & 31)
			native += cost.IROp
		case ir.ShrI:
			s[in.D] = s[in.A] >> (in.Imm & 31)
			native += cost.IROp
		case ir.SarI:
			s[in.D] = uint32(int32(s[in.A]) >> (in.Imm & 31))
			native += cost.IROp

		case ir.FlagsAdd:
			s[in.D], c.flags = addFlags(s[in.A], s[in.B])
			native += cost.IROp
		case ir.FlagsSub:
			s[in.D], c.flags = subFlags(s[in.A], s[in.B])
			native += cost.IROp
		case ir.FlagsAddI:
			s[in.D], c.flags = addFlags(s[in.A], in.Imm)
			native += cost.IROp
		case ir.FlagsSubI:
			s[in.D], c.flags = subFlags(s[in.A], in.Imm)
			native += cost.IROp
		case ir.FlagsNZ:
			v := s[in.A]
			c.flags.N = int32(v) < 0
			c.flags.Z = v == 0
			native += cost.IROp

		case ir.Load:
			c.maybePreempt()
			v, f := mem.LoadWord(s[in.A] + in.Imm)
			if f != nil {
				c.guestFault(f, in)
				return exitNone, native
			}
			s[in.D] = v
			c.st.Loads++
			native += cost.MemAccess
		case ir.LoadB:
			c.maybePreempt()
			v, f := mem.LoadByte(s[in.A] + in.Imm)
			if f != nil {
				c.guestFault(f, in)
				return exitNone, native
			}
			s[in.D] = uint32(v)
			c.st.Loads++
			native += cost.MemAccess
		case ir.InstrLoad:
			c.maybePreempt()
			v, err := scheme.Load(c, s[in.A]+in.Imm)
			if err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			s[in.D] = v
			c.st.Loads++
			native += cost.MemAccess
		case ir.InstrLoadB:
			c.maybePreempt()
			v, err := scheme.LoadB(c, s[in.A]+in.Imm)
			if err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			s[in.D] = uint32(v)
			c.st.Loads++
			native += cost.MemAccess

		case ir.Store:
			c.maybePreempt()
			if f := mem.StoreWord(s[in.A]+in.Imm, s[in.B]); f != nil {
				c.guestFault(f, in)
				return exitNone, native
			}
			c.st.Stores++
			native += cost.MemAccess
		case ir.StoreB:
			c.maybePreempt()
			if f := mem.StoreByte(s[in.A]+in.Imm, uint8(s[in.B])); f != nil {
				c.guestFault(f, in)
				return exitNone, native
			}
			c.st.Stores++
			native += cost.MemAccess
		case ir.InstrStore:
			c.maybePreempt()
			if err := scheme.Store(c, s[in.A]+in.Imm, s[in.B]); err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			c.st.Stores++
			native += cost.MemAccess
		case ir.InstrStoreB:
			c.maybePreempt()
			u := mmu.Update{Kind: mmu.UpdateByte, Operand: s[in.B]}
			if _, err := scheme.RMW(c, s[in.A]+in.Imm, u); err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			c.st.Stores++
			native += cost.MemAccess

		case ir.LL:
			c.maybePreempt()
			addr := s[in.A] // capture before s[in.D] clobbers a shared slot
			v, err := scheme.LL(c, addr)
			if err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			s[in.D] = v
			c.st.LLs++
			c.ring.Emit(obs.EvLL, addr, 0)
			native += cost.MemAccess
		case ir.SC:
			c.maybePreempt()
			c.lastSCAddr = s[in.A]
			status, err := scheme.SC(c, s[in.A], s[in.B])
			if err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			if status == 0 {
				// Failures are emitted by the scheme with a reason code.
				c.ring.Emit(obs.EvSCOk, c.lastSCAddr, 0)
			}
			s[in.D] = status
			c.st.SCs++
			c.st.SCFails += uint64(status)
			native += cost.MemAccess
		case ir.AtomicRMW:
			c.maybePreempt()
			addr := s[in.A]
			operand := in.Imm
			if !in.RMWImm {
				operand = s[in.B]
			}
			// Rule-based fused atomic (paper §VI): one host atomic builtin
			// through the scheme's store test.
			old, err := scheme.RMW(c, addr, mmu.Update{Kind: in.RMW, Operand: operand})
			if err != nil {
				c.schemeFault(err, in)
				return exitNone, native
			}
			s[in.D] = old
			c.st.LLs++
			c.st.SCs++
			c.ring.Emit(obs.EvLL, addr, 0)
			c.ring.Emit(obs.EvSCOk, addr, 0)
			native += cost.HostAtomic
		case ir.Clrex:
			scheme.Clrex(c)
			native += cost.IROp
		case ir.Fence:
			// Go's atomics give sequential consistency; the fence is a
			// cost-model event only.
			native += cost.IROp

		case ir.ExitJmp:
			c.pc = in.Addr
			return exitTaken, native
		case ir.ExitCond:
			native += cost.IROp
			if c.flags.Test(in.Cond) {
				c.pc = in.Addr
				return exitTaken, native
			}
			c.pc = in.Addr2
			return exitFall, native
		case ir.ExitInd:
			c.pc = s[in.A]
			native += cost.IROp
			return exitNone, native
		case ir.Syscall:
			c.pc = in.Addr
			c.m.syscall(c, in.Imm)
			return exitNone, native
		case ir.Halt:
			c.halted = true
			return exitNone, native
		case ir.YieldOp:
			c.pc = in.Addr
			runtime.Gosched()
			return exitNone, native

		default:
			c.fail(fmt.Errorf("engine: tid %d: unhandled IR op %s at %#08x", c.tid, in.Op, in.GuestPC))
			return exitNone, native
		}
	}
	// The verifier guarantees a terminator; reaching here is an engine bug.
	c.fail(fmt.Errorf("engine: block %#08x fell off the end", b.Start))
	return exitNone, native
}

// guestFault reports an unhandled guest memory fault — the emulated program
// crashed (e.g. the corrupted lock-free stack dereferencing garbage).
func (c *CPU) guestFault(f *mmu.Fault, in *ir.Inst) {
	c.fail(fmt.Errorf("engine: tid %d: guest fault at pc %#08x: %w", c.tid, in.GuestPC, f))
}

// schemeFault reports an error from the emulation scheme: either a guest
// fault surfaced through the scheme, or a scheme failure such as PICO-HTM
// livelock.
func (c *CPU) schemeFault(err error, in *ir.Inst) {
	c.fail(fmt.Errorf("engine: tid %d: at pc %#08x: %w", c.tid, in.GuestPC, err))
}

func sdiv32(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	sa, sb := int32(a), int32(b)
	if sa == -1<<31 && sb == -1 {
		return a
	}
	return uint32(sa / sb)
}

func addFlags(a, b uint32) (uint32, arch.Flags) {
	res := a + b
	return res, arch.Flags{
		N: int32(res) < 0,
		Z: res == 0,
		C: res < a,
		V: (^(a^b)&(a^res))>>31 != 0,
	}
}

func subFlags(a, b uint32) (uint32, arch.Flags) {
	res := a - b
	return res, arch.Flags{
		N: int32(res) < 0,
		Z: res == 0,
		C: a >= b, // no borrow
		V: ((a^b)&(a^res))>>31 != 0,
	}
}
