package engine

import (
	"fmt"

	"atomemu/internal/checkpoint"
	"atomemu/internal/core"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
)

// This file is the engine half of crash-consistent checkpointing: cadence
// tracking and capture (maybeCheckpoint/capture), rollback (restore, with
// optional demotion to the portable HST scheme), and the live demotion to
// HST that shares restore's disarm (demoteLive).

// maybeCheckpoint captures a consistent cut when this vCPU's clock crosses
// the next cadence point. The fast path is two atomic loads; exactly one
// vCPU wins the CAS per cadence point and pays the (quiet) stop-the-world.
// Caller has already checked CheckpointEvery > 0.
func (m *Machine) maybeCheckpoint(c *CPU) {
	next := m.nextCkptVT.Load()
	clk := c.clock
	if clk < next || m.stopped.Load() {
		return
	}
	every := m.cfg.CheckpointEvery
	target := next + every
	for target <= clk {
		target += every
	}
	if !m.nextCkptVT.CompareAndSwap(next, target) {
		return
	}
	m.excl.startExclusiveQuiet(c)
	var snap *checkpoint.Snapshot
	if !m.stopped.Load() {
		snap = m.capture(c)
	}
	m.excl.endExclusiveQuiet(c)
	// The durability sink runs after the quiet window is over: spilling a
	// snapshot to disk must never extend the stop-the-world, and the
	// snapshot is immutable once captured, so the sink (and whatever
	// writer goroutine it hands off to) can read it race-free while the
	// machine runs on. Uncharged, like the capture itself.
	if snap != nil && m.cfg.CheckpointSink != nil {
		m.cfg.CheckpointSink(snap)
	}
}

// capture records the machine's state as the newest snapshot. The caller
// holds a (quiet) exclusive section: every other vCPU is parked between
// blocks or blocked in a guest syscall, so all the state read here is a
// consistent cut (their marker and register writes happened-before our
// exclusive acquisition).
//
// The capture cost is charged to the checkpoint stats component only, never
// to the capturing vCPU's clock — checkpointing must not perturb the
// virtual-time model, so a run with it enabled stays cycle-identical to one
// without.
func (m *Machine) capture(c *CPU) *checkpoint.Snapshot {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	var prev *mmu.Snapshot
	if m.lastCkpt != nil {
		prev = m.lastCkpt.Mem
	}
	snap := &checkpoint.Snapshot{
		Mem:    m.mem.SnapshotPages(prev),
		Scheme: m.scheme.Snapshot(),
	}
	m.parkMu.Lock()
	for _, cc := range m.CPUs() {
		v := checkpoint.VCPU{
			TID:      cc.tid,
			PC:       cc.pc,
			Slots:    append([]uint32(nil), cc.slots...),
			Flags:    cc.flags,
			Clock:    cc.clock,
			Stats:    cc.st,
			Halted:   cc.haltedFlag.Load(),
			ExitCode: cc.exitCode,
		}
		if cc.blocked.active {
			v.Blocked = checkpoint.Blocked{
				Active:  true,
				Syscall: cc.blocked.syscall,
				Kind:    cc.blocked.kind,
				Addr:    cc.blocked.addr,
			}
		}
		snap.CPUs = append(snap.CPUs, v)
	}
	for addr, b := range m.barriers {
		snap.Barriers = append(snap.Barriers, checkpoint.Barrier{Addr: addr, Total: b.total})
	}
	m.parkMu.Unlock()
	m.outMu.Lock()
	snap.Output = append([]uint32(nil), m.output...)
	m.outMu.Unlock()
	m.heapMu.Lock()
	snap.HeapNext = m.heapNext
	m.heapMu.Unlock()
	m.cpuMu.Lock()
	snap.NextTID = m.nextTID
	m.cpuMu.Unlock()
	snap.VirtualTime = m.virtualTimeQuiesced()

	m.lastCkpt = snap
	m.checkpoints.Add(1)
	m.ckptPages.Add(uint64(snap.Mem.Copied))
	c.ring.Emit(obs.EvCheckpoint, 0, uint64(snap.Mem.Copied))
	c.st.Charge(stats.CompCheckpoint,
		m.cfg.Cost.CheckpointBase+uint64(snap.Mem.Copied)*m.cfg.Cost.CheckpointPage)
	return snap
}

// restore rolls the machine back to snap and relaunches its vCPUs. Called
// only from the recovery loop after every vCPU goroutine has exited, so it
// owns the machine outright. When demote is set the emulation scheme is
// replaced by portable HST (fresh state) instead of restoring the failed
// scheme's snapshot payload.
//
// The restore deliberately re-derives rather than deserializes two things:
// exclusive monitors are disarmed (the first SC after resumption may fail
// spuriously, which LL/SC guests tolerate), and futex/barrier waiter queues
// come back empty — each vCPU that was blocked at the cut re-executes its
// syscall on resumption and re-joins the rebuilt queue.
func (m *Machine) restore(snap *checkpoint.Snapshot, demote bool) error {
	if !demote && m.demoted() {
		// The cut may predate the demotion and hold the HTM scheme's
		// payload, which hst cannot take: a demoted machine restores only
		// by demoting again, to fresh hst state.
		return fmt.Errorf("engine: restoring a %s cut without demoting the %s machine", m.cfg.Scheme, m.scheme.Name())
	}
	// Owning the machine does not exclude host-side status pollers: a live
	// AggregateStats read stops the (empty) world via exclHolder, so holding
	// it across the rewrite of per-vCPU state keeps those reads race-free.
	m.excl.exclHolder.Lock()
	defer m.excl.exclHolder.Unlock()
	m.cpuMu.Lock()
	all := append([]*CPU(nil), m.cpus...)
	m.cpuMu.Unlock()
	byTID := make(map[uint32]*CPU, len(all))
	for _, c := range all {
		byTID[c.tid] = c
	}
	// Disarm every vCPU first, including those spawned after the cut,
	// which are about to be dropped.
	if err := m.disarm(all, demote); err != nil {
		return err
	}
	if f := m.mem.Restore(snap.Mem); f != nil {
		return fmt.Errorf("engine: restoring guest memory: %w", f)
	}
	if !demote {
		m.scheme.Restore(m.mem, snap.Scheme)
	}

	kept := make([]*CPU, 0, len(snap.CPUs))
	var running int32
	for i := range snap.CPUs {
		cs := &snap.CPUs[i]
		c := byTID[cs.TID]
		if c == nil {
			return fmt.Errorf("engine: checkpoint vCPU %d no longer exists", cs.TID)
		}
		c.slots = append(c.slots[:0], cs.Slots...)
		c.flags = cs.Flags
		c.pc = cs.PC
		c.clock = cs.Clock
		c.st = cs.Stats
		c.halted = cs.Halted
		c.haltedFlag.Store(cs.Halted)
		c.exitCode = cs.ExitCode
		c.err = nil
		c.blocked = blockedMark{
			active:  cs.Blocked.Active,
			syscall: cs.Blocked.Syscall,
			kind:    cs.Blocked.Kind,
			addr:    cs.Blocked.Addr,
		}
		c.joiners = nil
		// Re-seed the watchdog from the restored counters so pre-rollback
		// failures aren't double counted against the restored run.
		c.wdSucc = cs.Stats.SCs - cs.Stats.SCFails
		c.wdFails = cs.Stats.SCFails
		c.wdStalled = 0
		c.lastExclSeen = m.exclSections.Load()
		c.preemptLeft = 0
		// A stop can wake a vCPU whose restored mark it has not re-run yet;
		// that wake must not end the re-run wait.
		select {
		case <-c.wake:
		default:
		}
		if !cs.Halted {
			running++
		}
		kept = append(kept, c)
	}

	m.cpuMu.Lock()
	m.cpus = kept
	m.nextTID = snap.NextTID
	launched := m.launched
	m.cpuMu.Unlock()
	m.outMu.Lock()
	m.output = append(m.output[:0], snap.Output...)
	m.outMu.Unlock()
	m.heapMu.Lock()
	m.heapNext = snap.HeapNext
	m.heapMu.Unlock()
	m.parkMu.Lock()
	m.futexes = make(map[uint32][]*CPU)
	m.barriers = make(map[uint32]*guestBarrier, len(snap.Barriers))
	for _, b := range snap.Barriers {
		m.barriers[b.Addr] = &guestBarrier{total: b.Total}
	}
	m.parked = 0
	m.parkMu.Unlock()
	m.runningCPUs.Store(running)
	if every := m.cfg.CheckpointEvery; every > 0 {
		m.nextCkptVT.Store(snap.VirtualTime + every)
	}
	m.errMu.Lock()
	m.firstErr = nil
	m.errMu.Unlock()
	m.stopped.Store(false)
	m.hostRing.EmitAt(snap.VirtualTime, obs.EvRestore, 0, m.recoveryRestores.Load())

	// A rollback relaunches the live vCPUs; a resumed machine's vCPUs
	// start when RunContext launches it.
	for _, c := range kept {
		if launched && !c.haltedFlag.Load() {
			m.launchCPU(c)
		}
	}
	return nil
}

// disarm readies cpus for a scheme swap or a rollback; the caller has
// stopped the world. It aborts every open transaction and clears every
// monitor (an SC after the resumption fails spuriously, which LL/SC
// guests tolerate), and with demote it swaps the scheme for portable HST.
// It always drops every vCPU-private TB tier: after a demotion it holds
// blocks instrumented for the wrong scheme, and after any rollback its
// chain links describe control flow the restored run may never
// re-validate. The links are cut as well, since a vCPU parked at a chain
// boundary still holds its previous block. Execution re-looks-up and
// re-links from the shared cache.
func (m *Machine) disarm(cpus []*CPU, demote bool) error {
	for _, c := range cpus {
		c.mon.Reset()
		c.mon = core.Monitor{}
		for _, lt := range c.localTBs {
			lt.taken, lt.fall = nil, nil
		}
		c.localTBs = make(map[uint32]*localTB)
		c.jumpCache = [jumpCacheSize]*localTB{}
	}
	if demote {
		return m.demoteScheme()
	}
	return nil
}

// demoteLive demotes the running machine to portable HST on the request
// its scheme left on c's monitor (resilient pico-htm after an abort
// storm). c is at a block boundary, where it stops the world: every other
// vCPU is then parked between blocks or in a syscall, as for a capture, so
// none is inside a scheme call. A request that finds the machine already
// demoted does nothing.
func (m *Machine) demoteLive(c *CPU) {
	streak := c.mon.AbortStreak
	c.mon.Demote = false
	c.StartExclusive()
	defer c.EndExclusive()
	if m.demoted() {
		return
	}
	if err := m.disarm(m.CPUs(), true); err != nil {
		c.fail(fmt.Errorf("engine: demoting to hst: %w", err))
		return
	}
	c.st.SchemeFallbacks++
	c.ring.Emit(obs.EvSchemeFall, c.pc, uint64(streak))
}

// demoted reports whether the machine no longer runs the scheme it was
// built with: a live demotion or a demoting rollback swapped it for hst.
func (m *Machine) demoted() bool { return m.scheme.Name() != m.cfg.Scheme }

// demoteScheme swaps the active scheme for portable HST with fresh state.
// When the translation options change it drops the machine-cache blocks
// whose translation actually depended on the changed options — a block
// with no plain stores translates identically either way, so it survives
// (tbCache.retain; resetting everything re-paid translation for every
// pure-compute block). The cross-job view re-keys to the demoted universe.
// disarm, its only caller, drops the per-vCPU local caches (stale blocks
// and chain links).
func (m *Machine) demoteScheme() error {
	tab, err := core.NewHashTable(m.cfg.HashBits)
	if err != nil {
		return err
	}
	tab.SetInjector(m.cfg.FaultInjector)
	res := m.cfg.resilience()
	deps := core.Deps{Cost: &m.cfg.Cost, Res: &res, Htab: tab}
	sch, err := core.New("hst", deps)
	if err != nil {
		return err
	}
	m.scheme = sch
	old := m.topts
	m.topts.InstrumentStores = sch.InstrumentsStores()
	m.topts.InstrumentLoads = sch.InstrumentsLoads()
	if m.topts != old {
		m.tbs.retain(func(tb *TB) bool {
			// A block still in its cold form goes too: a later promotion
			// would CAS post-demotion IR onto an object that may sit in the
			// pre-demotion shared-store segment. Cold blocks are the cheap
			// ones to bring back (Cost.TBDecode).
			return tb.ir.Load() != nil && tb.compatibleAfter(
				old.InstrumentStores, m.topts.InstrumentStores,
				old.InstrumentLoads, m.topts.InstrumentLoads)
		})
		m.rekeySharedTB()
	}
	return nil
}
