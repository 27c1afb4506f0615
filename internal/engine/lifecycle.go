package engine

import (
	"context"
	"errors"
	"fmt"

	"atomemu/internal/checkpoint"
	"atomemu/internal/core"
	"atomemu/internal/mmu"
)

// This file is the machine lifecycle layer: cancellation and virtual-time
// deadlines for Run, the guest-deadlock detector, and the rollback-recovery
// policy that replays the last checkpoint after a recoverable failure.

// DeadlineError reports that a vCPU's virtual clock passed the configured
// VirtualDeadline. It is terminal: a rollback would only replay up to the
// same deadline again.
type DeadlineError struct {
	TID      uint32
	Deadline uint64
	Clock    uint64
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("engine: virtual deadline %d exceeded on vCPU %d (clock %d)",
		e.Deadline, e.TID, e.Clock)
}

// PanicError wraps a panic recovered on a vCPU goroutine: one bad block
// stops the machine with a diagnostic instead of killing the host process,
// and the recovery policy can roll the machine back past it.
type PanicError struct {
	TID    uint32
	PC     uint32
	Scheme string
	Value  any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic on vCPU %d (scheme %s) at pc %#08x: %v",
		e.TID, e.Scheme, e.PC, e.Value)
}

// RecoveryExhaustedError reports that rollback recovery used its whole
// attempt budget without reaching a clean finish. Err is the last failure.
type RecoveryExhaustedError struct {
	Attempts int
	Err      error
}

func (e *RecoveryExhaustedError) Error() string {
	return fmt.Sprintf("engine: recovery exhausted after %d attempts: %v", e.Attempts, e.Err)
}

func (e *RecoveryExhaustedError) Unwrap() error { return e.Err }

// Run waits for every vCPU to halt and returns the first fatal error,
// applying the rollback-recovery policy when checkpoints are enabled.
func (m *Machine) Run() error { return m.RunContext(context.Background()) }

// RunContext is Run with lifecycle control: cancelling ctx stops the
// machine — the vCPUs drain through the exclusive protocol at their next
// block boundary, never mid-SC — and RunContext returns ctx's error.
// Cancellation and virtual-time deadlines are terminal; recoverable
// failures (watchdog trips, scheme errors, guest faults, vCPU panics) are
// rolled back to the last checkpoint up to Config.RecoveryAttempts times,
// demoting to the portable HST scheme when the failure implicates the
// emulation scheme itself.
func (m *Machine) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Host-side spawns are over: arm the deadlock detector and judge the
	// parks it ignored while the machine was being set up.
	m.parkMu.Lock()
	m.deadlockArmed = true
	derr := m.deadlockedLocked()
	m.parkMu.Unlock()
	if derr != nil {
		m.stop(derr)
	}
	attempts := 0
	for {
		err := m.waitStopped(ctx)
		if err == nil {
			return nil
		}
		if !recoverable(err) || m.cfg.RecoveryAttempts < 0 || m.cfg.StepMode {
			return err
		}
		m.ckptMu.Lock()
		snap := m.lastCkpt
		m.ckptMu.Unlock()
		if snap == nil {
			return err
		}
		demote := schemeAttributed(err) && !m.scheme.Portable()
		// The restore itself can fail — a fault injected into the page-table
		// rebuild, a snapshot that no longer matches the machine, or a panic
		// on the restore path. Each failed restore consumes a recovery
		// attempt and is retried against the same (immutable) snapshot,
		// instead of returning a terminal "rollback failed" on the first
		// hiccup — or worse, leaving a half-restored machine that a later
		// waitStopped would report as a clean finish.
		for {
			if attempts >= m.cfg.RecoveryAttempts {
				return &RecoveryExhaustedError{Attempts: attempts, Err: err}
			}
			attempts++
			m.recoveryAttempts.Add(1)
			rerr := m.tryRestore(snap, demote)
			if rerr == nil {
				break
			}
			err = fmt.Errorf("engine: rollback failed: %w (recovering from: %v)", rerr, err)
		}
		m.recoveryRestores.Add(1)
	}
}

// tryRestore is restore with panic containment: a panic on the restore
// path (the same class of failure the vCPU run loop already contains)
// becomes an error charged against the recovery budget rather than killing
// the recovery goroutine.
func (m *Machine) tryRestore(snap *checkpoint.Snapshot, demote bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: restore panicked: %v", r)
		}
	}()
	return m.restore(snap, demote)
}

// waitStopped waits for the current generation of vCPU goroutines while
// honouring ctx cancellation.
func (m *Machine) waitStopped(ctx context.Context) error {
	if ctx.Done() == nil {
		m.wg.Wait()
		return m.Err()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		m.stop(ctx.Err())
		<-done
	case <-done:
	}
	return m.Err()
}

// recoverable classifies failures the rollback policy may retry: watchdog
// trips, scheme-level errors, guest memory faults (including injected
// ones), and vCPU panics. Deadlocks, deadlines and cancellation are
// terminal — replaying the same schedule cannot clear them.
func recoverable(err error) bool {
	var we *core.WatchdogError
	var ee *core.EmulationError
	var mf *mmu.Fault
	var pe *PanicError
	return errors.As(err, &we) || errors.As(err, &ee) ||
		errors.As(err, &mf) || errors.As(err, &pe)
}

// schemeAttributed reports whether the failure implicates the emulation
// scheme (watchdog trip or scheme-level error) rather than the guest
// program, in which case recovery resumes under the portable HST scheme.
func schemeAttributed(err error) bool {
	var we *core.WatchdogError
	var ee *core.EmulationError
	return errors.As(err, &we) || errors.As(err, &ee)
}

// --- guest-deadlock detection ---

// blockedMark records that a vCPU is parked in a blocking guest syscall.
// It doubles as the deadlock report's wait info and as the checkpoint
// marker that tells a restore to re-execute the interrupted syscall.
type blockedMark struct {
	active  bool
	syscall uint32
	kind    string // "futex", "barrier" or "join"
	addr    uint32 // futex word, barrier cell, or joined tid
	arrived int    // barrier occupancy when this waiter arrived
	total   int    // barrier size
}

// notePark registers c as blocked just before it leaves its execution
// region, and stops the machine with a DeadlockError when this park leaves
// no vCPU that could ever issue a wake. Must be called without futexMu or
// barMu held (stop takes both).
func (m *Machine) notePark(c *CPU, mark blockedMark) {
	m.parkMu.Lock()
	c.blocked = mark
	m.parked++
	derr := m.deadlockedLocked()
	m.parkMu.Unlock()
	if derr != nil {
		m.stop(derr)
	}
	if h := m.cfg.SchedHook; h != nil {
		h.Parked(c.tid)
	}
}

// noteWake is the waker-side decrement: n parked vCPUs are about to receive
// a wake. It must run BEFORE the wake is delivered, so a vCPU with a wake
// in flight is never counted as parked (no false deadlocks).
func (m *Machine) noteWake(n int) {
	if n == 0 {
		return
	}
	m.parkMu.Lock()
	m.parked -= n
	m.parkMu.Unlock()
	if h := m.cfg.SchedHook; h != nil {
		h.Woken(n)
	}
}

// noteResume clears c's blocked marker once it is back inside its execution
// region (the waker already decremented the park count on its behalf).
func (m *Machine) noteResume(c *CPU) {
	m.parkMu.Lock()
	c.blocked = blockedMark{}
	m.parkMu.Unlock()
}

// deadlockedLocked builds the structured deadlock diagnostic when every
// live vCPU is parked in a blocking syscall with no wake in flight and the
// detector is armed (see Machine.deadlockArmed). Caller holds parkMu and
// must pass a non-nil result to Machine.stop only after releasing it.
func (m *Machine) deadlockedLocked() error {
	running := int(m.runningCPUs.Load())
	if !m.deadlockArmed || m.parked <= 0 || m.parked != running || m.stopped.Load() {
		return nil
	}
	werr := &core.DeadlockError{}
	m.cpuMu.Lock()
	for _, c := range m.cpus {
		if c.haltedFlag.Load() || !c.blocked.active {
			continue
		}
		werr.Waiters = append(werr.Waiters, core.DeadlockWaiter{
			TID:     c.tid,
			Kind:    c.blocked.kind,
			Addr:    c.blocked.addr,
			Arrived: c.blocked.arrived,
			Total:   c.blocked.total,
		})
	}
	m.cpuMu.Unlock()
	return werr
}
