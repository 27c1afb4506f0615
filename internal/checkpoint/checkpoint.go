// Package checkpoint defines the crash-consistent machine snapshot the
// engine captures at stop-the-world quiescence and replays during rollback
// recovery.
//
// A capture happens inside a quiet exclusive section: every vCPU is either
// parked between translation blocks or blocked in a guest syscall outside
// its execution region, so the cut it records — registers, memory pages,
// scheme state, synchronization topology, output log — is a state the
// machine really passed through. Nothing mid-SC, mid-transaction or
// mid-store can leak into it.
//
// Two deliberate omissions keep restores simple and architecturally sound:
//
//   - Exclusive monitors are not captured. A restore disarms every monitor,
//     which at worst makes the first SC after resumption fail spuriously —
//     behavior LL/SC guests must tolerate anyway.
//   - Futex and barrier waiter queues are not serialized. A blocked vCPU is
//     recorded through its Blocked marker: its registers still hold the
//     syscall arguments and its pc already points at the post-svc
//     continuation, so the restore simply re-executes the syscall, which
//     re-joins the rebuilt queue (or returns immediately, per futex
//     semantics, when the rolled-back memory no longer matches). A waiter
//     already woken is never recorded as blocked: its waker wrote its
//     result and clock and cleared its marker before delivering the wake,
//     so the cut records it as returned, whether or not it has run since.
package checkpoint

import (
	"atomemu/internal/arch"
	"atomemu/internal/mmu"
	"atomemu/internal/stats"
)

// Blocked describes a vCPU parked in a blocking guest syscall at capture
// time.
type Blocked struct {
	Active  bool
	Syscall uint32 // syscall number to re-execute on resume
	Kind    string // "futex", "barrier" or "join"
	Addr    uint32 // futex word, barrier cell, or joined tid
}

// VCPU is one vCPU's architectural and accounting state.
type VCPU struct {
	TID      uint32
	PC       uint32
	Slots    []uint32
	Flags    arch.Flags
	Clock    uint64
	Stats    stats.CPU
	Halted   bool
	ExitCode uint32
	Blocked  Blocked
}

// Barrier re-creates one guest barrier. Arrival counts are not captured:
// every arrived-but-unreleased waiter was parked at the cut, and re-arrives
// when its barrier_wait syscall is re-executed.
type Barrier struct {
	Addr  uint32
	Total int
}

// Snapshot is one consistent machine cut. It is immutable once captured and
// stays valid across multiple restores.
type Snapshot struct {
	// VirtualTime is the machine's virtual time at the cut (max over vCPU
	// clocks).
	VirtualTime uint64
	// Mem is the page table and frame contents (incremental: clean frames
	// are shared with the previous snapshot).
	Mem *mmu.Snapshot
	// Scheme is the emulation scheme's private payload (core.Scheme.Snapshot).
	Scheme any
	// CPUs lists every vCPU that existed at the cut, in spawn order.
	CPUs []VCPU
	// Barriers lists the initialized guest barriers.
	Barriers []Barrier
	// Output is the guest output log up to the cut.
	Output []uint32
	// HeapNext and NextTID restore the allocation cursors, so post-restore
	// mmaps and spawns reproduce the rolled-back address/tid assignments.
	HeapNext uint32
	NextTID  uint32
}
