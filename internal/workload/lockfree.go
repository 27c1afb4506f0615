// Lock-free adversary targets: oracle-bearing guest workloads whose
// correctness is interleaving-dependent in exactly the ways the paper's
// atomic-emulation schemes can break (ABA windows, same-value SC,
// plain-store visibility around LL/SC, futex wake ordering). Each target
// assembles a GA32 program plus a host-side linearizability-style
// invariant checker; the adversary (internal/adversary) composes them
// with generated interference and judges runs with the checker.
//
// The five structures and what each one is sensitive to:
//
//   - msqueue: Michael–Scott queue with node recycling. The dequeue's
//     head swing is a classic ABA window; PICO-CAS loses or duplicates
//     nodes, which the conservation + value-multiset oracle catches.
//   - wsdeque: Chase–Lev work-stealing deque. top is monotonic (no ABA),
//     so this is a burn-in target. STREX may fail spuriously (under the
//     HST family a thief's LL of top fails the owner's SC even when the
//     thief then finds the deque empty; pico-htm's aborts do the same),
//     so the owner gives up the last element only once it reloads top
//     and sees it moved. With that retry, an exactly-once violation is a
//     real scheme or engine bug under every scheme.
//   - seqlock: sequence-lock writer/reader. Readers validate snapshot
//     consistency with no atomics at all; writers race an LL/SC
//     acquisition on a monotonic word. Stresses plain-store visibility
//     around the monitored word (the PST false-sharing page).
//   - hazard: hazard-pointer-style reclamation. Writers swap a shared
//     pointer, scan hazard slots, then poison-and-free; readers publish
//     a hazard, re-validate, and dereference a canary. Use-after-free
//     shows up as a poisoned canary read or a broken free-list walk.
//   - futexpc: futex-heavy bounded producer/consumer (the canonical
//     mutex+condvar ring). Exercises the blocking-syscall machinery and
//     mutual exclusion; the checksum and sum-conservation oracle catches
//     broken lock acquisition.
package workload

import (
	"fmt"

	"atomemu/internal/arch"
	"atomemu/internal/asm"
	"atomemu/internal/guestlib"
	"atomemu/internal/mmu"
)

// Memory is the slice of mmu.Memory targets need for setup and
// verification; *mmu.Memory satisfies it.
type Memory interface {
	ReadWordPriv(addr uint32) (uint32, *mmu.Fault)
	WriteWordPriv(addr, val uint32) *mmu.Fault
}

// Target is one adversary-facing workload: a buildable guest program
// with a correctness oracle.
type Target struct {
	Name string
	// Desc is a one-line description for reports.
	Desc string
	// MinThreads is the fewest vCPUs the workload is meaningful with.
	MinThreads int
	// MaxOps bounds the per-run operation parameter (0 = unbounded);
	// targets with statically sized result arrays set it.
	MaxOps int
	// Build assembles the target's image at org.
	Build func(org uint32) (*Instance, error)
}

// Instance is an assembled target, ready to load and drive.
type Instance struct {
	Image *asm.Image
	// Entry is the per-thread entry point. Thread i (spawn order,
	// tid i+1) receives Args(i, threads, ops) in r0.
	Entry uint32
	// Args returns thread i's r0 argument.
	Args func(i, threads, ops int) uint32
	// Setup seeds guest data structures after the image is loaded.
	// May be nil.
	Setup func(mem Memory, threads, ops int) error
	// Barrier returns the engine-barrier cell and participant count the
	// host must initialise before running, or (0, 0) for none. May be nil.
	Barrier func(threads int) (uint32, int)
	// Verify checks the oracle after every thread halted cleanly.
	Verify func(mem Memory, threads, ops int) error
}

// Targets returns the adversary workload registry: the Treiber stack,
// the five lock-free targets above, and every miniparsec program (whose
// section-count invariant doubles as an oracle).
func Targets() []Target {
	ts := []Target{
		{
			Name: "stack", Desc: "Treiber stack pop/push cycling (paper Fig. 3; ABA-prone)",
			MinThreads: 1,
			Build:      buildStackTarget,
		},
		{
			Name: "msqueue", Desc: "Michael-Scott queue with node recycling (ABA-prone head swing)",
			MinThreads: 1,
			Build:      buildMSQueue,
		},
		{
			Name: "wsdeque", Desc: "Chase-Lev work-stealing deque, exactly-once task oracle",
			MinThreads: 1, MaxOps: wsMaxTasks,
			Build: buildWSDeque,
		},
		{
			Name: "seqlock", Desc: "seqlock writers/readers, snapshot-consistency oracle",
			MinThreads: 1,
			Build:      buildSeqlock,
		},
		{
			Name: "hazard", Desc: "hazard-pointer reclamation, poisoned-canary oracle",
			MinThreads: 1,
			Build:      buildHazard,
		},
		{
			Name: "futexpc", Desc: "futex mutex+condvar bounded ring, sum-conservation oracle",
			MinThreads: 2, MaxOps: 2048,
			Build: buildFutexPC,
		},
	}
	for _, spec := range Specs() {
		spec := spec
		ts = append(ts, Target{
			Name: spec.Name, Desc: "miniparsec " + spec.Name + " (section-count oracle)",
			MinThreads: 1,
			Build:      func(org uint32) (*Instance, error) { return buildSpecTarget(spec, org) },
		})
	}
	return ts
}

// TargetByName finds a target in the registry.
func TargetByName(name string) (Target, bool) {
	for _, t := range Targets() {
		if t.Name == name {
			return t, true
		}
	}
	return Target{}, false
}

// sameOps gives every thread the same r0.
func sameOps(_, _, ops int) uint32 { return uint32(ops) }

// --- Treiber stack (wraps guestlib) ---

const stackNodes = 64

func buildStackTarget(org uint32) (*Instance, error) {
	sb, err := guestlib.BuildStackBench(org, stackNodes)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Image: sb.Image,
		Entry: sb.Worker,
		Args:  sameOps,
		Setup: func(mem Memory, _, _ int) error { return sb.InitStack(mem) },
		Verify: func(mem Memory, _, _ int) error {
			rep, err := sb.CheckStack(mem)
			if err != nil {
				return fmt.Errorf("stack: audit failed: %v", err)
			}
			if rep.Corrupted() {
				return fmt.Errorf("stack: corrupted: %s", rep)
			}
			return nil
		},
	}, nil
}

// --- miniparsec wrapper ---

func buildSpecTarget(spec Spec, org uint32) (*Instance, error) {
	prog, err := spec.Build(org)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		Image: prog.Image,
		Entry: prog.Worker,
		Args:  sameOps,
		Verify: func(mem Memory, threads, ops int) error {
			return prog.Verify(mem, threads, ops)
		},
	}
	if spec.BarrierEvery > 0 {
		inst.Barrier = func(threads int) (uint32, int) { return prog.BarrierCell, threads }
	}
	return inst, nil
}

// --- Michael-Scott queue ---

// msqNodes is the node-pool size; node i initially carries value i, the
// dummy (node 0) excepted. The live-value multiset {1..N-1} is invariant
// under dequeue+re-enqueue cycling.
const msqNodes = 48

func buildMSQueue(org uint32) (*Instance, error) {
	b := asm.NewBuilder(org)

	// Register plan: r9 = remaining ops, r10 = consecutive-empty counter,
	// r12 = &qdata (head at +0, tail at +4), r8 = node in flight,
	// r0-r7 scratch inside the queue routines.
	b.Label("worker") // r0 = ops
	b.Mov(arch.R9, arch.R0)
	b.CmpI(arch.R9, 0)
	b.Beq("w_done")
	b.MovI(arch.R10, 0)
	b.LoadAddr(arch.R12, "qdata")
	b.Label("w_loop")
	b.BL("q_deq")
	b.CmpI(arch.R0, 0)
	b.Beq("w_empty")
	b.MovI(arch.R10, 0)
	b.Mov(arch.R1, arch.R0)
	b.BL("q_enq")
	b.SubsI(arch.R9, arch.R9, 1)
	b.Bne("w_loop")
	b.Label("w_done")
	b.MovI(arch.R0, 0)
	b.Svc(1)
	b.Label("w_empty")
	// Transient emptiness is normal under heavy dequeuing; a persistently
	// empty queue means corruption consumed every node — exit 2, like the
	// stack bench.
	b.AddI(arch.R10, arch.R10, 1)
	b.MovImm32(arch.R11, 100_000)
	b.Cmp(arch.R10, arch.R11)
	b.Bge("w_lost")
	b.Yield()
	b.B("w_loop")
	b.Label("w_lost")
	b.MovI(arch.R0, 2)
	b.Svc(1)

	// q_deq: returns the dequeued node in r0 (carrying the dequeued value),
	// or 0 when empty. The outgoing dummy is the recycled node; the
	// successor's value moves into it. The head swing is the deliberate ABA
	// window: SC(&head, next) with a stale next corrupts the chain under
	// value-compare schemes.
	b.Label("q_deq")
	b.Label("dq_retry")
	b.Ldrex(arch.R1, arch.R12)  // h = LL(&head)
	b.Ldr(arch.R2, arch.R12, 4) // t = tail
	b.Ldr(arch.R3, arch.R1, 0)  // next = h->next (load inside the window)
	b.Cmp(arch.R1, arch.R2)
	b.Bne("dq_mid")
	b.Clrex() // head == tail: only the dummy — empty
	b.MovI(arch.R0, 0)
	b.Ret()
	b.Label("dq_mid")
	// head != tail but next == 0: an enqueuer swung tail and has not linked
	// yet, or our snapshot is stale — either way, retry rather than chase a
	// null pointer.
	b.CmpI(arch.R3, 0)
	b.Beq("dq_stale")
	b.Ldr(arch.R4, arch.R3, 4)          // val = next->value
	b.Strex(arch.R5, arch.R3, arch.R12) // SC(&head, next)
	b.CmpI(arch.R5, 0)
	b.Bne("dq_retry")
	b.Str(arch.R4, arch.R1, 4) // recycled node carries the dequeued value
	b.Mov(arch.R0, arch.R1)
	b.Ret()
	b.Label("dq_stale")
	b.Clrex()
	b.Yield()
	b.B("dq_retry")

	// q_enq: r1 = node to append (value already set). Swing-then-link: win
	// the tail swing with LL/SC, then the winner alone writes the
	// predecessor's link. Unlike the textbook MS enqueue (LL on t->next),
	// this never SCs into a node that may already have been recycled, so it
	// is safe under strong and weak LL/SC with immediate node reuse.
	b.Label("q_enq")
	b.MovI(arch.R6, 0)
	b.Str(arch.R6, arch.R1, 0) // node->next = 0
	b.AddI(arch.R7, arch.R12, 4)
	b.Label("eq_retry")
	b.Ldrex(arch.R2, arch.R7)          // t = LL(&tail)
	b.Strex(arch.R5, arch.R1, arch.R7) // SC(&tail, node)
	b.CmpI(arch.R5, 0)
	b.Bne("eq_retry")
	b.Str(arch.R1, arch.R2, 0) // t->next = node (the swing winner owns this link)
	b.Ret()

	b.AlignWords(mmu.PageWords)
	b.Label("qdata")
	b.Word(0) // head
	b.Word(0) // tail
	b.AlignWords(mmu.PageWords)
	b.Label("qnodes")
	b.Space(msqNodes * 2) // [next, value] per node

	im, err := b.Finish()
	if err != nil {
		return nil, err
	}
	qdata := im.MustSymbol("qdata")
	qnodes := im.MustSymbol("qnodes")
	node := func(i uint32) uint32 { return qnodes + i*8 }
	return &Instance{
		Image: im,
		Entry: im.MustSymbol("worker"),
		Args:  sameOps,
		Setup: func(mem Memory, _, _ int) error {
			for i := uint32(0); i < msqNodes; i++ {
				next := uint32(0)
				if i+1 < msqNodes {
					next = node(i + 1)
				}
				if f := mem.WriteWordPriv(node(i), next); f != nil {
					return f
				}
				if f := mem.WriteWordPriv(node(i)+4, i); f != nil {
					return f
				}
			}
			if f := mem.WriteWordPriv(qdata, node(0)); f != nil { // head = dummy
				return f
			}
			if f := mem.WriteWordPriv(qdata+4, node(msqNodes-1)); f != nil { // tail
				return f
			}
			return nil
		},
		Verify: func(mem Memory, _, _ int) error {
			inRange := func(p uint32) bool {
				return p >= qnodes && p < qnodes+msqNodes*8 && (p-qnodes)%8 == 0
			}
			head, f := mem.ReadWordPriv(qdata)
			if f != nil {
				return f
			}
			seen := make(map[uint32]bool, msqNodes)
			values := make(map[uint32]int, msqNodes)
			cur := head
			pos := 0
			for cur != 0 {
				if !inRange(cur) {
					return fmt.Errorf("msqueue: chain left the node pool at %#x (position %d)", cur, pos)
				}
				if seen[cur] {
					return fmt.Errorf("msqueue: cycle at node %#x (position %d)", cur, pos)
				}
				seen[cur] = true
				if pos > 0 { // position 0 is the dummy; its value is stale
					v, f := mem.ReadWordPriv(cur + 4)
					if f != nil {
						return f
					}
					values[v]++
				}
				next, f := mem.ReadWordPriv(cur)
				if f != nil {
					return f
				}
				cur = next
				pos++
			}
			if pos != msqNodes {
				return fmt.Errorf("msqueue: conservation violated: %d of %d nodes reachable", pos, msqNodes)
			}
			for v := uint32(1); v < msqNodes; v++ {
				if values[v] != 1 {
					return fmt.Errorf("msqueue: value multiset violated: value %d appears %d times", v, values[v])
				}
			}
			return nil
		},
	}, nil
}

// --- Chase-Lev work-stealing deque ---

const (
	wsSlots    = 64   // circular task buffer (power of two)
	wsMaxTasks = 4096 // exec-array capacity; bounds the ops parameter
)

func buildWSDeque(org uint32) (*Instance, error) {
	b := asm.NewBuilder(org)

	// Shared page layout (wdata): top +0, bottom +4, done +8.
	// r4 = &wdata, r5 = &wtasks, r6 = &wexec, r9 = total tasks (owner),
	// r7 = next task id (owner), r11 = tid.
	b.Label("worker") // r0 = total tasks for the owner, 0 for thieves
	b.Mov(arch.R9, arch.R0)
	b.Svc(5)
	b.Mov(arch.R11, arch.R0)
	b.LoadAddr(arch.R4, "wdata")
	b.LoadAddr(arch.R5, "wtasks")
	b.LoadAddr(arch.R6, "wexec")
	b.CmpI(arch.R11, 1)
	b.Bne("thief")

	// Owner: push batches, pop them back, competing with thieves for the
	// last element (Chase-Lev bottom/top discipline).
	b.MovI(arch.R7, 0)
	b.CmpI(arch.R9, 0)
	b.Beq("o_done")
	b.Label("o_push")
	b.Cmp(arch.R7, arch.R9)
	b.Beq("o_pop")
	b.Ldr(arch.R1, arch.R4, 4) // b
	b.Ldr(arch.R2, arch.R4, 0) // t
	b.Sub(arch.R3, arch.R1, arch.R2)
	b.CmpI(arch.R3, wsSlots)
	b.Bge("o_pop") // full
	b.AndI(arch.R3, arch.R1, wsSlots-1)
	b.LslI(arch.R3, arch.R3, 2)
	b.StrR(arch.R7, arch.R5, arch.R3) // tasks[b & mask] = task
	b.AddI(arch.R1, arch.R1, 1)
	b.Str(arch.R1, arch.R4, 4) // bottom = b+1 (single writer)
	b.AddI(arch.R7, arch.R7, 1)
	b.B("o_push")

	b.Label("o_pop")
	b.Ldr(arch.R1, arch.R4, 4)
	b.SubI(arch.R1, arch.R1, 1)
	b.Str(arch.R1, arch.R4, 4) // bottom = b-1, published before reading top
	b.Ldr(arch.R2, arch.R4, 0) // t
	b.Cmp(arch.R1, arch.R2)
	b.Bgt("o_take")
	b.Beq("o_race")
	// b-1 < t: deque empty, thieves won; restore bottom.
	b.Str(arch.R2, arch.R4, 4)
	b.B("o_next")
	b.Label("o_take")
	b.AndI(arch.R3, arch.R1, wsSlots-1)
	b.LslI(arch.R3, arch.R3, 2)
	b.LdrR(arch.R0, arch.R5, arch.R3)
	b.BL("exec")
	b.B("o_pop")
	b.Label("o_race") // last element: compete on top
	b.Ldrex(arch.R3, arch.R4)
	b.Cmp(arch.R3, arch.R2)
	b.Bne("o_lost")
	b.AddI(arch.R3, arch.R2, 1)
	b.Strex(arch.R8, arch.R3, arch.R4)
	b.CmpI(arch.R8, 0)
	// A failed STREX need not mean a thief won: it may fail spuriously
	// (under the HST family a thief's LL of top alone fails it). Reload
	// top and compare again.
	b.Bne("o_race")
	// Won the race: reset bottom before exec (exec clobbers r1-r3, and the
	// deque is empty either way once top passed t).
	b.AddI(arch.R3, arch.R2, 1)
	b.Str(arch.R3, arch.R4, 4) // bottom = t+1 (canonical reset)
	b.AndI(arch.R3, arch.R1, wsSlots-1)
	b.LslI(arch.R3, arch.R3, 2)
	b.LdrR(arch.R0, arch.R5, arch.R3)
	b.BL("exec")
	b.B("o_next")
	b.Label("o_lost") // top moved: a thief took the last element
	b.Clrex()
	b.AddI(arch.R3, arch.R2, 1)
	b.Str(arch.R3, arch.R4, 4) // bottom = t+1 (canonical reset)
	b.Label("o_next")
	b.Cmp(arch.R7, arch.R9)
	b.Bne("o_push") // more tasks to push
	b.Label("o_done")
	b.MovI(arch.R1, 1)
	b.Str(arch.R1, arch.R4, 8) // done = 1
	b.MovI(arch.R0, 0)
	b.Svc(1)

	// Thief: steal from top until the owner is done and the deque drained.
	b.Label("thief")
	b.Label("t_loop")
	b.Ldrex(arch.R2, arch.R4) // t = LL(&top)
	b.Ldr(arch.R1, arch.R4, 4)
	b.Cmp(arch.R2, arch.R1)
	b.Bge("t_empty")
	b.AndI(arch.R3, arch.R2, wsSlots-1)
	b.LslI(arch.R3, arch.R3, 2)
	b.LdrR(arch.R0, arch.R5, arch.R3) // read task before the SC claims it
	b.AddI(arch.R3, arch.R2, 1)
	b.Strex(arch.R8, arch.R3, arch.R4)
	b.CmpI(arch.R8, 0)
	b.Bne("t_loop")
	b.BL("exec")
	b.B("t_loop")
	b.Label("t_empty")
	b.Clrex()
	b.Ldr(arch.R3, arch.R4, 8)
	b.CmpI(arch.R3, 0)
	b.Bne("t_exit")
	b.Yield()
	b.B("t_loop")
	b.Label("t_exit")
	b.MovI(arch.R0, 0)
	b.Svc(1)

	// exec: atomically increment wexec[task]; r0 = task id, clobbers r1-r3.
	b.Label("exec")
	b.LslI(arch.R1, arch.R0, 2)
	b.Add(arch.R1, arch.R6, arch.R1)
	b.Label("x_retry")
	b.Ldrex(arch.R2, arch.R1)
	b.AddI(arch.R2, arch.R2, 1)
	b.Strex(arch.R3, arch.R2, arch.R1)
	b.CmpI(arch.R3, 0)
	b.Bne("x_retry")
	b.Ret()

	b.AlignWords(mmu.PageWords)
	b.Label("wdata")
	b.Space(4) // top, bottom, done, pad
	b.AlignWords(mmu.PageWords)
	b.Label("wtasks")
	b.Space(wsSlots)
	b.AlignWords(mmu.PageWords)
	b.Label("wexec")
	b.Space(wsMaxTasks)

	im, err := b.Finish()
	if err != nil {
		return nil, err
	}
	wdata := im.MustSymbol("wdata")
	wexec := im.MustSymbol("wexec")
	return &Instance{
		Image: im,
		Entry: im.MustSymbol("worker"),
		Args: func(i, _, ops int) uint32 {
			if i == 0 {
				return uint32(ops)
			}
			return 0
		},
		Verify: func(mem Memory, _, ops int) error {
			done, f := mem.ReadWordPriv(wdata + 8)
			if f != nil {
				return f
			}
			if done != 1 {
				return fmt.Errorf("wsdeque: owner never finished (done=%d)", done)
			}
			for i := 0; i < ops; i++ {
				v, f := mem.ReadWordPriv(wexec + uint32(i)*4)
				if f != nil {
					return f
				}
				if v != 1 {
					return fmt.Errorf("wsdeque: exactly-once violated: task %d executed %d times", i, v)
				}
			}
			return nil
		},
	}, nil
}

// --- seqlock ---

// seqlockWriters returns the writer count for a thread count: writers
// are tids 1..W, readers the rest.
func seqlockWriters(threads int) int {
	if threads >= 4 {
		return 2
	}
	return 1
}

func buildSeqlock(org uint32) (*Instance, error) {
	b := asm.NewBuilder(org)

	// sdata: seq +0, data0 +4, data1 +8; per-thread writer CS counts at
	// +0x100, reader violation counts at +0x200 (both indexed by tid-1).
	const (
		wcountOff = 0x100
		violOff   = 0x200
	)
	b.Label("worker") // r0 = ops
	b.Mov(arch.R9, arch.R0)
	b.Svc(5)
	b.Mov(arch.R11, arch.R0)
	b.LoadAddr(arch.R4, "sdata")
	b.CmpI(arch.R9, 0)
	b.Beq("s_exit")
	// Writers are tids 1..W; W is patched into the movi below by Setup
	// (the image cannot know the thread count at build time).
	b.Label("wmark")
	b.MovI(arch.R1, 1) // patched: W
	b.Cmp(arch.R11, arch.R1)
	b.Ble("s_writer")

	// Reader.
	b.SubI(arch.R5, arch.R11, 1)
	b.LslI(arch.R5, arch.R5, 2)
	b.AddI(arch.R5, arch.R5, violOff)
	b.Add(arch.R5, arch.R4, arch.R5) // &viol[tid-1]
	b.Label("r_loop")
	b.Label("r_read")
	b.Ldr(arch.R1, arch.R4, 0) // s1
	b.AndI(arch.R2, arch.R1, 1)
	b.CmpI(arch.R2, 0)
	b.Bne("r_wait")
	b.Ldr(arch.R2, arch.R4, 4) // d0
	b.Ldr(arch.R3, arch.R4, 8) // d1
	b.Ldr(arch.R6, arch.R4, 0) // s2
	b.Cmp(arch.R1, arch.R6)
	b.Bne("r_read")
	b.AddI(arch.R2, arch.R2, 1)
	b.Cmp(arch.R3, arch.R2)
	b.Beq("r_ok")
	b.Ldr(arch.R7, arch.R5, 0) // torn snapshot observed
	b.AddI(arch.R7, arch.R7, 1)
	b.Str(arch.R7, arch.R5, 0)
	b.Label("r_ok")
	b.SubsI(arch.R9, arch.R9, 1)
	b.Bne("r_loop")
	b.B("s_exit")
	b.Label("r_wait")
	b.Yield()
	b.B("r_read")

	// Writer.
	b.Label("s_writer")
	b.SubI(arch.R5, arch.R11, 1)
	b.LslI(arch.R5, arch.R5, 2)
	b.AddI(arch.R5, arch.R5, wcountOff)
	b.Add(arch.R5, arch.R4, arch.R5) // &wcount[tid-1]
	b.Label("w_loop")
	b.Label("w_acq")
	b.Ldrex(arch.R1, arch.R4) // s = LL(&seq)
	b.AndI(arch.R2, arch.R1, 1)
	b.CmpI(arch.R2, 0)
	b.Bne("w_wait")
	b.AddI(arch.R2, arch.R1, 1)
	b.Strex(arch.R3, arch.R2, arch.R4) // seq = s+1 (odd: write locked)
	b.CmpI(arch.R3, 0)
	b.Bne("w_acq")
	// Critical section: bump both data words, widening the window a bit.
	b.Ldr(arch.R2, arch.R4, 4)
	b.AddI(arch.R2, arch.R2, 1)
	b.Str(arch.R2, arch.R4, 4) // data0 = g+1
	b.Nop()
	b.Nop()
	b.Nop()
	b.AddI(arch.R3, arch.R2, 1)
	b.Str(arch.R3, arch.R4, 8) // data1 = data0+1
	b.Ldr(arch.R6, arch.R5, 0) // wcount[tid-1]++
	b.AddI(arch.R6, arch.R6, 1)
	b.Str(arch.R6, arch.R5, 0)
	b.AddI(arch.R1, arch.R1, 2)
	b.Str(arch.R1, arch.R4, 0) // release: seq = s+2 (even)
	b.SubsI(arch.R9, arch.R9, 1)
	b.Bne("w_loop")
	b.B("s_exit")
	b.Label("w_wait")
	b.Clrex()
	b.Yield()
	b.B("w_acq")

	b.Label("s_exit")
	b.MovI(arch.R0, 0)
	b.Svc(1)

	b.AlignWords(mmu.PageWords)
	b.Label("sdata")
	b.Space(mmu.PageWords)

	im, err := b.Finish()
	if err != nil {
		return nil, err
	}
	sdata := im.MustSymbol("sdata")
	wmark := im.MustSymbol("wmark")
	return &Instance{
		Image: im,
		Entry: im.MustSymbol("worker"),
		Args:  sameOps,
		Setup: func(mem Memory, threads, _ int) error {
			// Patch the writer-count immediate (movi r1, #W).
			w := seqlockWriters(threads)
			in := arch.Instruction{Op: arch.MOVI, Rd: arch.R1, Imm: int32(w)}
			if f := mem.WriteWordPriv(wmark, in.Encode()); f != nil {
				return f
			}
			// The reader invariant is data1 == data0+1, so the initial
			// state must already satisfy it.
			if f := mem.WriteWordPriv(sdata+8, 1); f != nil {
				return f
			}
			return nil
		},
		Verify: func(mem Memory, threads, ops int) error {
			w := seqlockWriters(threads)
			want := uint64(w) * uint64(ops)
			rd := func(off uint32) (uint32, error) {
				v, f := mem.ReadWordPriv(sdata + off)
				if f != nil {
					return 0, f
				}
				return v, nil
			}
			seq, err := rd(0)
			if err != nil {
				return err
			}
			d0, err := rd(4)
			if err != nil {
				return err
			}
			d1, err := rd(8)
			if err != nil {
				return err
			}
			for i := 0; i < threads; i++ {
				v, err := rd(0x200 + uint32(i)*4)
				if err != nil {
					return err
				}
				if v != 0 {
					return fmt.Errorf("seqlock: reader tid %d observed %d torn snapshots", i+1, v)
				}
			}
			var cs uint64
			for i := 0; i < w; i++ {
				v, err := rd(0x100 + uint32(i)*4)
				if err != nil {
					return err
				}
				cs += uint64(v)
			}
			if cs != want || uint64(d0) != want || uint64(seq) != 2*want || d1 != d0+1 {
				return fmt.Errorf("seqlock: writer invariant violated: cs=%d data0=%d data1=%d seq=%d want %d sections",
					cs, d0, d1, seq, want)
			}
			return nil
		},
	}, nil
}

// --- hazard-pointer reclamation ---

const (
	hazNodes  = 32
	hazLive   = 0x600D600D
	hazDead   = 0xDEADDEAD
	hpOff     = 0x40  // hazard slots, indexed by tid-1
	hvViolOff = 0x100 // reader violation counts
)

func hazardWriters(threads int) int {
	if threads >= 4 {
		return 2
	}
	return 1
}

func buildHazard(org uint32) (*Instance, error) {
	b := asm.NewBuilder(org)

	// hdata: cur +0, freelist head +4, gen +8. Nodes are [next, canary,
	// val, pad]. Writers pop a free node, publish it as cur, then scan
	// hazard slots before poisoning and freeing the displaced node.
	b.Label("worker") // r0 = ops
	b.Mov(arch.R9, arch.R0)
	b.Svc(5)
	b.Mov(arch.R11, arch.R0)
	b.LoadAddr(arch.R4, "hdata")
	b.CmpI(arch.R9, 0)
	b.Beq("h_exit")
	b.Label("hwmark")
	b.MovI(arch.R1, 1) // patched: W
	b.Cmp(arch.R11, arch.R1)
	b.Ble("h_writer")

	// Reader: publish a hazard, re-validate, dereference the canary.
	b.SubI(arch.R5, arch.R11, 1)
	b.LslI(arch.R5, arch.R5, 2)
	b.AddI(arch.R5, arch.R5, hpOff)
	b.Add(arch.R5, arch.R4, arch.R5) // &hp[tid-1]
	b.Label("hr_loop")
	b.Label("hr_acq")
	b.Ldr(arch.R1, arch.R4, 0) // c = cur
	b.Str(arch.R1, arch.R5, 0) // hp = c
	b.Ldr(arch.R2, arch.R4, 0)
	b.Cmp(arch.R1, arch.R2)
	b.Bne("hr_acq") // cur moved between read and publish: retry
	b.MovImm32(arch.R7, hazLive)
	b.Ldr(arch.R6, arch.R1, 4) // canary
	b.Cmp(arch.R6, arch.R7)
	b.Bne("hr_viol")
	b.Nop()
	b.Ldr(arch.R6, arch.R1, 4) // second deref widens the protected window
	b.Cmp(arch.R6, arch.R7)
	b.Bne("hr_viol")
	b.Label("hr_rel")
	b.MovI(arch.R6, 0)
	b.Str(arch.R6, arch.R5, 0) // clear hazard
	b.SubsI(arch.R9, arch.R9, 1)
	b.Bne("hr_loop")
	b.B("h_exit")
	b.Label("hr_viol") // dereferenced a poisoned (freed) node
	b.SubI(arch.R6, arch.R11, 1)
	b.LslI(arch.R6, arch.R6, 2)
	b.AddI(arch.R6, arch.R6, hvViolOff)
	b.Add(arch.R6, arch.R4, arch.R6)
	b.Ldr(arch.R7, arch.R6, 0)
	b.AddI(arch.R7, arch.R7, 1)
	b.Str(arch.R7, arch.R6, 0)
	b.B("hr_rel")

	// Writer.
	b.Label("h_writer")
	b.Label("hw_loop")
	b.MovI(arch.R10, 0)
	b.Label("hw_pop") // pop a node off the freelist (Treiber)
	b.AddI(arch.R7, arch.R4, 4)
	b.Ldrex(arch.R1, arch.R7)
	b.CmpI(arch.R1, 0)
	b.Beq("hw_dry")
	b.Ldr(arch.R2, arch.R1, 0)
	b.Strex(arch.R3, arch.R2, arch.R7)
	b.CmpI(arch.R3, 0)
	b.Bne("hw_pop")
	// r1 = fresh node; stamp a new generation value.
	b.Label("hw_gen")
	b.AddI(arch.R7, arch.R4, 8)
	b.Ldrex(arch.R5, arch.R7)
	b.AddI(arch.R6, arch.R5, 1)
	b.Strex(arch.R3, arch.R6, arch.R7)
	b.CmpI(arch.R3, 0)
	b.Bne("hw_gen")
	b.MovImm32(arch.R6, hazLive)
	b.Str(arch.R6, arch.R1, 4) // canary = LIVE
	b.Str(arch.R5, arch.R1, 8) // val = gen
	b.Label("hw_swap")         // old = swap(cur, node)
	b.Ldrex(arch.R2, arch.R4)
	b.Strex(arch.R3, arch.R1, arch.R4)
	b.CmpI(arch.R3, 0)
	b.Bne("hw_swap")
	b.CmpI(arch.R2, 0)
	b.Beq("hw_next")
	// Reclaim r2: wait until no hazard slot references it.
	b.MovI(arch.R10, 0)
	b.Label("hw_scan")
	b.MovI(arch.R6, 0)
	b.Label("hw_scan_loop")
	b.LslI(arch.R7, arch.R6, 2)
	b.AddI(arch.R7, arch.R7, hpOff)
	b.Add(arch.R7, arch.R4, arch.R7)
	b.Ldr(arch.R8, arch.R7, 0)
	b.Cmp(arch.R8, arch.R2)
	b.Beq("hw_scan_hit")
	b.AddI(arch.R6, arch.R6, 1)
	b.CmpI(arch.R6, MaxThreads)
	b.Blt("hw_scan_loop")
	// Clear: poison and push back onto the freelist.
	b.MovImm32(arch.R6, hazDead)
	b.Str(arch.R6, arch.R2, 4)
	b.Label("hw_push")
	b.AddI(arch.R7, arch.R4, 4)
	b.Ldrex(arch.R3, arch.R7)
	b.Str(arch.R3, arch.R2, 0)
	b.Strex(arch.R6, arch.R2, arch.R7)
	b.CmpI(arch.R6, 0)
	b.Bne("hw_push")
	b.Label("hw_next")
	b.SubsI(arch.R9, arch.R9, 1)
	b.Bne("hw_loop")
	b.B("h_exit")
	b.Label("hw_scan_hit") // a reader still holds it: bounded wait
	b.AddI(arch.R10, arch.R10, 1)
	b.MovImm32(arch.R8, 100_000)
	b.Cmp(arch.R10, arch.R8)
	b.Bge("h_stuck")
	b.Yield()
	b.B("hw_scan")
	b.Label("hw_dry") // freelist empty: every node in flight — corruption
	b.Clrex()
	b.AddI(arch.R10, arch.R10, 1)
	b.MovImm32(arch.R8, 100_000)
	b.Cmp(arch.R10, arch.R8)
	b.Bge("h_stuck")
	b.Yield()
	b.B("hw_pop")
	b.Label("h_stuck")
	b.MovI(arch.R0, 2)
	b.Svc(1)
	b.Label("h_exit")
	b.MovI(arch.R0, 0)
	b.Svc(1)

	b.AlignWords(mmu.PageWords)
	b.Label("hdata")
	b.Space(mmu.PageWords)
	b.Label("hnodes")
	b.Space(hazNodes * 4) // [next, canary, val, pad]

	im, err := b.Finish()
	if err != nil {
		return nil, err
	}
	hdata := im.MustSymbol("hdata")
	hnodes := im.MustSymbol("hnodes")
	hwmark := im.MustSymbol("hwmark")
	node := func(i uint32) uint32 { return hnodes + i*16 }
	return &Instance{
		Image: im,
		Entry: im.MustSymbol("worker"),
		Args:  sameOps,
		Setup: func(mem Memory, threads, _ int) error {
			w := hazardWriters(threads)
			in := arch.Instruction{Op: arch.MOVI, Rd: arch.R1, Imm: int32(w)}
			if f := mem.WriteWordPriv(hwmark, in.Encode()); f != nil {
				return f
			}
			// Node 0 is the initial cur (live); the rest chain onto the
			// freelist, poisoned.
			if f := mem.WriteWordPriv(node(0)+4, hazLive); f != nil {
				return f
			}
			for i := uint32(1); i < hazNodes; i++ {
				next := uint32(0)
				if i+1 < hazNodes {
					next = node(i + 1)
				}
				if f := mem.WriteWordPriv(node(i), next); f != nil {
					return f
				}
				if f := mem.WriteWordPriv(node(i)+4, hazDead); f != nil {
					return f
				}
			}
			if f := mem.WriteWordPriv(hdata, node(0)); f != nil { // cur
				return f
			}
			if f := mem.WriteWordPriv(hdata+4, node(1)); f != nil { // freelist head
				return f
			}
			return nil
		},
		Verify: func(mem Memory, threads, ops int) error {
			for i := 0; i < threads; i++ {
				v, f := mem.ReadWordPriv(hdata + hvViolOff + uint32(i)*4)
				if f != nil {
					return f
				}
				if v != 0 {
					return fmt.Errorf("hazard: reader tid %d dereferenced a freed node %d times", i+1, v)
				}
			}
			w := hazardWriters(threads)
			gen, f := mem.ReadWordPriv(hdata + 8)
			if f != nil {
				return f
			}
			if uint64(gen) != uint64(w)*uint64(ops) {
				return fmt.Errorf("hazard: generation counter %d, want %d", gen, w*ops)
			}
			// Conservation: cur plus the freelist must reach every node
			// exactly once; cur is live, free nodes are poisoned.
			inRange := func(p uint32) bool {
				return p >= hnodes && p < hnodes+hazNodes*16 && (p-hnodes)%16 == 0
			}
			seen := make(map[uint32]bool, hazNodes)
			cur, f := mem.ReadWordPriv(hdata)
			if f != nil {
				return f
			}
			if !inRange(cur) {
				return fmt.Errorf("hazard: cur %#x outside the node pool", cur)
			}
			can, f := mem.ReadWordPriv(cur + 4)
			if f != nil {
				return f
			}
			if can != hazLive {
				return fmt.Errorf("hazard: live node %#x has canary %#x", cur, can)
			}
			seen[cur] = true
			fl, f := mem.ReadWordPriv(hdata + 4)
			if f != nil {
				return f
			}
			for p := fl; p != 0; {
				if !inRange(p) {
					return fmt.Errorf("hazard: freelist left the node pool at %#x", p)
				}
				if seen[p] {
					return fmt.Errorf("hazard: node %#x reachable twice (double free)", p)
				}
				seen[p] = true
				can, f := mem.ReadWordPriv(p + 4)
				if f != nil {
					return f
				}
				if can != hazDead {
					return fmt.Errorf("hazard: free node %#x has canary %#x, want poisoned", p, can)
				}
				next, f := mem.ReadWordPriv(p)
				if f != nil {
					return f
				}
				p = next
			}
			if len(seen) != hazNodes {
				return fmt.Errorf("hazard: conservation violated: %d of %d nodes reachable", len(seen), hazNodes)
			}
			return nil
		},
	}, nil
}

// --- futex producer/consumer ---

const (
	fpcSlots = 4 // tiny ring: constant full/empty futex churn
	// fdata offsets.
	fpcMu       = 0
	fpcNotEmpty = 4
	fpcNotFull  = 8
	fpcQCount   = 12
	fpcWIdx     = 16
	fpcRIdx     = 20
	fpcProduced = 24
	fpcConsumed = 28
	fpcTotal    = 32
	fpcCsck     = 36
	fpcCntOff   = 0x40  // per-consumer pop counts (tid-1)
	fpcSumOff   = 0x140 // per-consumer value sums (tid-1)
)

func fpcProducers(threads int) int { return (threads + 1) / 2 }

func buildFutexPC(org uint32) (*Instance, error) {
	b := asm.NewBuilder(org)

	// r12 = &fdata throughout; r5 = &fring; r9 = ops (producers);
	// r11 = tid. The mutex is the canonical futex lock (0 free,
	// 1 locked, 2 locked-with-waiters); condvars are futex sequence
	// words bumped under the mutex.
	b.Label("worker") // r0 = per-producer item count
	b.Mov(arch.R9, arch.R0)
	b.Svc(5)
	b.Mov(arch.R11, arch.R0)
	b.LoadAddr(arch.R12, "fdata")
	b.LoadAddr(arch.R5, "fring")
	b.Label("fpmark")
	b.MovI(arch.R1, 1) // patched: P
	b.Cmp(arch.R11, arch.R1)
	b.Bgt("consumer")

	// Producer.
	b.CmpI(arch.R9, 0)
	b.Beq("f_exit")
	b.Label("p_loop")
	b.BL("mu_lock")
	b.Label("p_check")
	b.Ldr(arch.R1, arch.R12, fpcQCount)
	b.CmpI(arch.R1, fpcSlots)
	b.Bne("p_push")
	b.BL("cv_wait_nf")
	b.B("p_check")
	b.Label("p_push")
	b.Ldr(arch.R2, arch.R12, fpcProduced) // v = produced
	b.Ldr(arch.R3, arch.R12, fpcWIdx)
	b.AndI(arch.R6, arch.R3, fpcSlots-1)
	b.LslI(arch.R6, arch.R6, 2)
	b.StrR(arch.R2, arch.R5, arch.R6) // ring[w & mask] = v
	b.AddI(arch.R3, arch.R3, 1)
	b.Str(arch.R3, arch.R12, fpcWIdx)
	b.AddI(arch.R2, arch.R2, 1)
	b.Str(arch.R2, arch.R12, fpcProduced)
	b.AddI(arch.R1, arch.R1, 1)
	b.Str(arch.R1, arch.R12, fpcQCount)
	b.Ldr(arch.R1, arch.R12, fpcCsck) // mutual-exclusion checksum
	b.Nop()
	b.AddI(arch.R1, arch.R1, 1)
	b.Str(arch.R1, arch.R12, fpcCsck)
	b.BL("cv_sig_ne")
	b.BL("mu_unlock")
	b.SubsI(arch.R9, arch.R9, 1)
	b.Bne("p_loop")
	b.B("f_exit")

	// Consumer: r7 accumulates count, r8 sum; flushed to the per-tid
	// slots before exit.
	b.Label("consumer")
	b.MovI(arch.R7, 0)
	b.MovI(arch.R8, 0)
	b.Label("c_loop")
	b.BL("mu_lock")
	b.Label("c_check")
	b.Ldr(arch.R1, arch.R12, fpcConsumed)
	b.Ldr(arch.R2, arch.R12, fpcTotal)
	b.Cmp(arch.R1, arch.R2)
	b.Beq("c_done")
	b.Ldr(arch.R2, arch.R12, fpcQCount)
	b.CmpI(arch.R2, 0)
	b.Bne("c_pop")
	b.BL("cv_wait_ne")
	b.B("c_check")
	b.Label("c_pop")
	b.Ldr(arch.R3, arch.R12, fpcRIdx)
	b.AndI(arch.R6, arch.R3, fpcSlots-1)
	b.LslI(arch.R6, arch.R6, 2)
	b.LdrR(arch.R0, arch.R5, arch.R6) // v = ring[r & mask]
	b.Mov(arch.R10, arch.R0)          // cv_sig/mu_unlock clobber r0: park v in r10
	b.AddI(arch.R3, arch.R3, 1)
	b.Str(arch.R3, arch.R12, fpcRIdx)
	b.SubI(arch.R2, arch.R2, 1)
	b.Str(arch.R2, arch.R12, fpcQCount)
	b.AddI(arch.R1, arch.R1, 1)
	b.Str(arch.R1, arch.R12, fpcConsumed)
	b.Ldr(arch.R1, arch.R12, fpcCsck)
	b.Nop()
	b.AddI(arch.R1, arch.R1, 1)
	b.Str(arch.R1, arch.R12, fpcCsck)
	b.BL("cv_sig_nf")
	b.BL("mu_unlock")
	b.AddI(arch.R7, arch.R7, 1)
	b.Add(arch.R8, arch.R8, arch.R10)
	b.B("c_loop")
	b.Label("c_done")
	// Everything consumed: chain-wake any consumers still in cv_wait.
	b.BL("cv_sig_ne")
	b.BL("mu_unlock")
	b.SubI(arch.R1, arch.R11, 1)
	b.LslI(arch.R1, arch.R1, 2)
	b.AddI(arch.R2, arch.R1, fpcCntOff)
	b.Add(arch.R2, arch.R12, arch.R2)
	b.Str(arch.R7, arch.R2, 0)
	b.AddI(arch.R2, arch.R1, fpcSumOff)
	b.Add(arch.R2, arch.R12, arch.R2)
	b.Str(arch.R8, arch.R2, 0)
	b.Label("f_exit")
	b.MovI(arch.R0, 0)
	b.Svc(1)

	// mu_lock: the futex mutex acquire (Drepper's three-state protocol).
	// Critically, a thread that ever contended acquires with 2, not 1 —
	// otherwise its unlock would skip the wake and strand the other
	// sleepers. Clobbers r0-r3.
	b.Label("mu_lock")
	b.Label("mlk_fast")
	b.Ldrex(arch.R1, arch.R12)
	b.CmpI(arch.R1, 0)
	b.Bne("mlk_slow0")
	b.MovI(arch.R1, 1)
	b.Strex(arch.R2, arch.R1, arch.R12)
	b.CmpI(arch.R2, 0)
	b.Bne("mlk_fast")
	b.Ret()
	b.Label("mlk_slow0")
	b.Clrex()
	b.Label("mlk_slow")
	b.Ldrex(arch.R1, arch.R12)
	b.CmpI(arch.R1, 0)
	b.Bne("mlk_mark")
	b.MovI(arch.R3, 2)
	b.Strex(arch.R2, arch.R3, arch.R12) // acquire as contended
	b.CmpI(arch.R2, 0)
	b.Bne("mlk_slow")
	b.Ret()
	b.Label("mlk_mark") // held: mark contended (best effort) and sleep
	b.MovI(arch.R3, 2)
	b.Strex(arch.R2, arch.R3, arch.R12)
	b.Mov(arch.R0, arch.R12)
	b.MovI(arch.R1, 2)
	b.Svc(7) // futex_wait(&mu, 2); returns at once unless mu is still 2
	b.B("mlk_slow")

	// mu_unlock: release and wake one waiter if contended. Clobbers r0-r3.
	b.Label("mu_unlock")
	b.Label("mul_retry")
	b.Ldrex(arch.R1, arch.R12)
	b.MovI(arch.R2, 0)
	b.Strex(arch.R3, arch.R2, arch.R12)
	b.CmpI(arch.R3, 0)
	b.Bne("mul_retry")
	b.CmpI(arch.R1, 2)
	b.Bne("mul_done")
	b.Mov(arch.R0, arch.R12)
	b.MovI(arch.R1, 1)
	b.Svc(8) // futex_wake(&mu, 1)
	b.Label("mul_done")
	b.Ret()

	// cv_wait_*: standard futex condvar wait — snapshot the sequence word
	// under the mutex, drop the mutex, sleep unless the sequence moved,
	// reacquire. Nested calls, so lr is saved.
	emitCvWait := func(name string, off int32) {
		b.Label(name)
		b.Push(arch.LR, arch.R4)
		b.Ldr(arch.R4, arch.R12, off) // seq snapshot
		b.BL("mu_unlock")
		b.AddI(arch.R0, arch.R12, off)
		b.Mov(arch.R1, arch.R4)
		b.Svc(7) // futex_wait(&cv, seq)
		b.BL("mu_lock")
		b.Pop(arch.LR, arch.R4)
		b.Ret()
	}
	emitCvWait("cv_wait_ne", fpcNotEmpty)
	emitCvWait("cv_wait_nf", fpcNotFull)

	// cv_sig_*: bump the sequence word (callers hold the mutex) and wake
	// every sleeper — they revalidate their predicate anyway.
	emitCvSig := func(name string, off int32) {
		b.Label(name)
		b.Ldr(arch.R1, arch.R12, off)
		b.AddI(arch.R1, arch.R1, 1)
		b.Str(arch.R1, arch.R12, off)
		b.AddI(arch.R0, arch.R12, off)
		b.MovI(arch.R1, 64)
		b.Svc(8) // futex_wake(&cv, 64)
		b.Ret()
	}
	emitCvSig("cv_sig_ne", fpcNotEmpty)
	emitCvSig("cv_sig_nf", fpcNotFull)

	b.AlignWords(mmu.PageWords)
	b.Label("fdata")
	b.Space(mmu.PageWords)
	b.Label("fring")
	b.Space(fpcSlots)

	im, err := b.Finish()
	if err != nil {
		return nil, err
	}
	fdata := im.MustSymbol("fdata")
	fpmark := im.MustSymbol("fpmark")
	return &Instance{
		Image: im,
		Entry: im.MustSymbol("worker"),
		Args:  sameOps,
		Setup: func(mem Memory, threads, ops int) error {
			p := fpcProducers(threads)
			in := arch.Instruction{Op: arch.MOVI, Rd: arch.R1, Imm: int32(p)}
			if f := mem.WriteWordPriv(fpmark, in.Encode()); f != nil {
				return f
			}
			if f := mem.WriteWordPriv(fdata+fpcTotal, uint32(p*ops)); f != nil {
				return f
			}
			return nil
		},
		Verify: func(mem Memory, threads, ops int) error {
			p := fpcProducers(threads)
			total := uint32(p * ops)
			rd := func(off uint32) (uint32, error) {
				v, f := mem.ReadWordPriv(fdata + off)
				if f != nil {
					return 0, f
				}
				return v, nil
			}
			produced, err := rd(fpcProduced)
			if err != nil {
				return err
			}
			consumed, err := rd(fpcConsumed)
			if err != nil {
				return err
			}
			qcount, err := rd(fpcQCount)
			if err != nil {
				return err
			}
			csck, err := rd(fpcCsck)
			if err != nil {
				return err
			}
			if produced != total || consumed != total || qcount != 0 {
				return fmt.Errorf("futexpc: flow violated: produced=%d consumed=%d qcount=%d want total=%d",
					produced, consumed, qcount, total)
			}
			if csck != 2*total {
				return fmt.Errorf("futexpc: mutual exclusion violated: checksum %d, want %d", csck, 2*total)
			}
			var cnt, sum uint32
			for i := 0; i < threads; i++ {
				c, err := rd(fpcCntOff + uint32(i)*4)
				if err != nil {
					return err
				}
				s, err := rd(fpcSumOff + uint32(i)*4)
				if err != nil {
					return err
				}
				cnt += c
				sum += s
			}
			// Values are 0..total-1, each delivered exactly once; the sum is
			// conserved mod 2^32.
			var want uint32
			for v := uint32(0); v < total; v++ {
				want += v
			}
			if cnt != total || sum != want {
				return fmt.Errorf("futexpc: conservation violated: consumed %d items (want %d), sum %d (want %d)",
					cnt, total, sum, want)
			}
			return nil
		},
	}, nil
}
