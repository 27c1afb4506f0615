package engine

import (
	"fmt"

	"atomemu/internal/checkpoint"
)

// This file is the cross-process half of checkpoint/restore: rollback
// recovery (checkpoint.go) replays a snapshot into the machine that
// captured it, while ResumeFromSnapshot replays one into a brand-new
// machine — the daemon restart path, where the original process is gone
// and the snapshot arrived from disk.

// LatestCheckpoint returns the newest captured snapshot, or nil when no
// checkpoint has been taken. The snapshot is immutable and safe to read
// (or encode) concurrently with further execution.
func (m *Machine) LatestCheckpoint() *checkpoint.Snapshot {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return m.lastCkpt
}

// ResumeFromSnapshot builds a machine from cfg and resumes execution from
// snap, typically one decoded from a durable spill (checkpoint.Decode).
// The snapshot supplies the whole guest state — address space (image,
// stacks, heap), vCPU registers and counters, synchronization topology,
// output log — so no image loading or thread spawning happens here; the
// machine comes back exactly as deep into the run as the cut was taken,
// and RunContext drives it to completion as usual.
//
// cfg plays the same role as in NewMachine: scheme and policy. It need not
// match the crashed process's config — a decoded snapshot carries no
// scheme payload, every scheme starts fresh from a restore (monitors are
// disarmed; the first SC may fail spuriously, which LL/SC guests
// tolerate) — but MemBytes must be large enough for the snapshot's frames.
// The resumed machine seeds its rollback state with snap, so in-run
// recovery works from the first instruction of the resumed run.
func ResumeFromSnapshot(cfg Config, snap *checkpoint.Snapshot) (*Machine, error) {
	if cfg.StepMode {
		return nil, fmt.Errorf("engine: resume: step mode machines cannot resume from a snapshot")
	}
	if snap == nil || snap.Mem == nil {
		return nil, fmt.Errorf("engine: resume: nil snapshot")
	}
	if len(snap.CPUs) == 0 {
		return nil, fmt.Errorf("engine: resume: snapshot has no vCPUs")
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	// Create one vCPU shell per snapshot vCPU, keyed by tid: restore()
	// rewrites every architectural and accounting field and relaunches the
	// goroutines of the non-halted ones, exactly as it does for rollback.
	// No stacks are mapped and no entry points are set — the snapshot's
	// page table replaces the fresh address space wholesale.
	seen := make(map[uint32]bool, len(snap.CPUs))
	for i := range snap.CPUs {
		cs := &snap.CPUs[i]
		if cs.TID == 0 || seen[cs.TID] {
			return nil, fmt.Errorf("engine: resume: bad vCPU tid %d in snapshot", cs.TID)
		}
		seen[cs.TID] = true
		m.cpus = append(m.cpus, newCPU(m, cs.TID))
	}
	// Seed the rollback state before restoring, so a recoverable failure in
	// the resumed run can roll back to the resume point even before the
	// first fresh checkpoint is captured.
	m.ckptMu.Lock()
	m.lastCkpt = snap
	m.ckptMu.Unlock()
	if err := m.tryRestore(snap, false); err != nil {
		return nil, fmt.Errorf("engine: resume: %w", err)
	}
	return m, nil
}
