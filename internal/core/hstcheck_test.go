package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"atomemu/internal/mmu"
	"atomemu/internal/stats"
)

// This file is a bounded exhaustive interleaving check of the hst scheme:
// two or three threads run a few operations on one address, or on two
// addresses that share a hash entry, and every schedule of their
// shared-memory steps is tried. The scheme's step hook pauses a thread
// before each step of LL, Store and RMW; the scheduler then picks which
// thread runs next. SC stops the world: it is one step, the thread pauses
// before it, and it may start only while no other thread is inside a
// scheme call. Every finished run is checked
// against a sequential LL/SC reference (Blelloch & Wei's linearizable
// LL/SC): an SC may fail spuriously, but it may never succeed across
// another thread's write, and no write may be lost.

// opKind is one guest operation of a check thread.
type opKind uint8

const (
	opStore opKind = iota // Store(addr, val)
	opAdd                 // RMW add val at addr
	opLLSC                // LL; SC(v+val), retried up to checkTries times
)

// checkTries bounds an LL;SC loop's attempts, so two loops that keep
// failing each other cannot make a schedule infinite. An exhausted loop
// gives up without writing.
const checkTries = 2

type checkOp struct {
	kind opKind
	addr uint32
	val  uint32
}

// Check addresses: with 2^4 entries, addrB shares addrA's entry.
const (
	checkHashBits = 4
	addrA         = varAddr
	addrB         = varAddr + 4<<checkHashBits
)

// checkCase is one configuration: each thread's program, run from zeroed
// words.
type checkCase struct {
	name    string
	threads [][]checkOp
}

// checkCases are the configurations TestHSTExhaustiveInterleavings runs.
var checkCases = []checkCase{
	{"llsc-vs-store", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opStore, addrA, 100}},
	}},
	{"llsc-vs-add", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opAdd, addrA, 10}},
	}},
	{"llsc-store-add", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opStore, addrA, 100}},
		{{opAdd, addrA, 10}},
	}},
	{"two-llsc-vs-store", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opLLSC, addrA, 2}},
		{{opStore, addrA, 100}},
	}},
	{"two-llsc-vs-add", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opLLSC, addrA, 2}},
		{{opAdd, addrA, 10}},
	}},
	{"owner-stores-again", [][]checkOp{
		{{opLLSC, addrA, 1}, {opLLSC, addrA, 2}},
		{{opStore, addrA, 100}, {opStore, addrA, 200}},
	}},
	{"collide-llsc-store", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opStore, addrB, 5}},
		{{opStore, addrA, 100}},
	}},
	{"collide-two-llsc", [][]checkOp{
		{{opLLSC, addrA, 1}},
		{{opLLSC, addrB, 2}},
		{{opStore, addrA, 100}},
	}},
	{"collide-two-words", [][]checkOp{
		{{opLLSC, addrA, 1}, {opLLSC, addrB, 1}},
		{{opAdd, addrB, 10}, {opStore, addrA, 100}},
	}},
}

// storeFunc is the store under test: hst.Store, or the claim-first copy.
type storeFunc func(s *hst, ctx Context, addr, val uint32) error

func newOrderStore(s *hst, ctx Context, addr, val uint32) error { return s.Store(ctx, addr, val) }

// claimFirstStore is hst.Store as the paper writes it and as it was here
// before the write moved ahead of the claim: Htable_set, then the word.
// It is kept so the check shows the lost store it finds.
func claimFirstStore(s *hst, ctx Context, addr, val uint32) error {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	s.step(ctx, "store.set")
	s.tab.Set(addr, ctx.TID())
	s.step(ctx, "store.word")
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	return nil
}

// call is one finished scheme call of a run's history.
type call struct {
	tid        int // 0-based thread index
	kind       string
	addr, arg  uint32
	ret        uint32 // LL's value, RMW's old value
	ok         bool   // SC succeeded
	start, end int    // indices of its first and last step in the run
}

func (c call) String() string {
	switch c.kind {
	case "ll":
		return fmt.Sprintf("t%d ll %#x -> %d", c.tid+1, c.addr, c.ret)
	case "sc":
		return fmt.Sprintf("t%d sc %#x=%d ok=%t", c.tid+1, c.addr, c.arg, c.ok)
	case "add":
		return fmt.Sprintf("t%d add %#x+=%d old=%d", c.tid+1, c.addr, c.arg, c.ret)
	}
	return fmt.Sprintf("t%d store %#x=%d", c.tid+1, c.addr, c.arg)
}

// checkThread is one thread of a run. It blocks on resume before each of
// its steps and reports to the scheduler after each.
type checkThread struct {
	ctx    *fakeCtx
	ops    []checkOp
	resume chan struct{}
	// fresh is set before each LL, Store and RMW call: its first step hook
	// pauses the thread at the call's boundary, not inside it.
	fresh bool
	// Set by the thread before it reports, read by the scheduler after.
	next   string // label of the step it will run when resumed
	inCall bool   // it is paused inside a scheme call, after a step of it
	done   bool
	start  int // step index at which its current call began
}

// checkRun is the state of one run.
type checkRun struct {
	s       *hst
	store   storeFunc
	threads []*checkThread
	paused  chan struct{}
	step    int // index of the step running now
	trace   []string
	history []call
}

// checker runs schedules of one case against one store function. Memory,
// scheme and contexts are built once and reset between runs.
type checker struct {
	cc    checkCase
	store storeFunc
	f     *fixture
	s     *hst
}

func newChecker(t *testing.T, cc checkCase, store storeFunc) *checker {
	t.Helper()
	f := newFixture(t)
	tab, err := NewHashTable(checkHashBits)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Collides(addrA, addrB) {
		t.Fatal("check addresses must share a hash entry")
	}
	s := NewHST(&CostModel{}, tab).(*hst)
	return &checker{cc: cc, store: store, f: f, s: s}
}

// pause reports the calling thread's state to the scheduler and waits for its
// next turn.
func (r *checkRun) pause(th *checkThread, next string, inCall bool) {
	th.next, th.inCall = next, inCall
	r.paused <- struct{}{}
	<-th.resume
}

// hook is the scheme's step hook during a run.
func (r *checkRun) hook(ctx Context, site string) {
	th := r.threads[ctx.TID()-1]
	inCall := !th.fresh
	th.fresh = false
	r.pause(th, site, inCall)
	if !inCall {
		th.start = r.step
	}
}

func (r *checkRun) record(th *checkThread, c call) {
	c.start, c.end = th.start, r.step
	r.history = append(r.history, c)
}

// program runs one thread's ops. It pauses before each step: in the step
// hook inside LL, Store and RMW, and here before each SC.
func (r *checkRun) program(tid int) {
	th := r.threads[tid]
	ctx := th.ctx
	for _, op := range th.ops {
		switch op.kind {
		case opStore:
			th.fresh = true
			if err := r.store(r.s, ctx, op.addr, op.val); err != nil {
				panic(err)
			}
			r.record(th, call{tid: tid, kind: "store", addr: op.addr, arg: op.val})
		case opAdd:
			th.fresh = true
			old, err := r.s.RMW(ctx, op.addr, mmu.Update{Kind: mmu.UpdateAdd, Operand: op.val})
			if err != nil {
				panic(err)
			}
			r.record(th, call{tid: tid, kind: "add", addr: op.addr, arg: op.val, ret: old})
		case opLLSC:
			for try := 0; try < checkTries; try++ {
				th.fresh = true
				v, err := r.s.LL(ctx, op.addr)
				if err != nil {
					panic(err)
				}
				r.record(th, call{tid: tid, kind: "ll", addr: op.addr, ret: v})
				r.pause(th, "sc", false)
				th.start = r.step
				st, err := r.s.SC(ctx, op.addr, v+op.val)
				if err != nil {
					panic(err)
				}
				r.record(th, call{tid: tid, kind: "sc", addr: op.addr, arg: v + op.val, ok: st == 0})
				if st == 0 {
					break
				}
			}
		}
	}
	th.done, th.inCall = true, false
	r.paused <- struct{}{}
}

// run executes one schedule. choose picks, among the threads enabled at a
// step (0-based indices, ascending), the one to run; it returns an index
// into enabled.
func (c *checker) run(choose func(enabled []int) int) *checkRun {
	mem := c.f.mem
	for _, a := range []uint32{addrA, addrB} {
		mem.StoreWord(a, 0)
	}
	c.s.tab.Clear()
	r := &checkRun{s: c.s, store: c.store, paused: make(chan struct{})}
	for i, ops := range c.cc.threads {
		ctx := c.f.ctx(uint32(i + 1))
		ctx.mon.Reset()
		th := &checkThread{ctx: ctx, ops: ops, resume: make(chan struct{})}
		r.threads = append(r.threads, th)
	}
	c.s.step = r.hook
	defer func() { c.s.step = nil }()
	// Each thread runs to its first pause (before its first step) before
	// the next starts, so the first step is the scheduler's choice too.
	for i, th := range r.threads {
		go func() {
			<-th.resume
			r.program(i)
		}()
		th.resume <- struct{}{}
		<-r.paused
	}
	enabled := make([]int, 0, len(r.threads))
	for {
		enabled = enabled[:0]
		live := 0
		for i, th := range r.threads {
			if th.done {
				continue
			}
			live++
			if th.next != "sc" || !r.othersInCall(i) {
				enabled = append(enabled, i)
			}
		}
		if live == 0 {
			return r
		}
		if len(enabled) == 0 {
			panic("hst check: live threads but none enabled")
		}
		i := enabled[choose(enabled)]
		th := r.threads[i]
		r.trace = append(r.trace, fmt.Sprintf("t%d %s", i+1, th.next))
		th.resume <- struct{}{}
		<-r.paused
		r.step++
	}
}

func (r *checkRun) othersInCall(i int) bool {
	for k, th := range r.threads {
		if k != i && th.inCall {
			return true
		}
	}
	return false
}

// final returns the words the run left at the check addresses.
func (c *checker) final() map[uint32]uint32 {
	out := make(map[uint32]uint32, 2)
	for _, a := range []uint32{addrA, addrB} {
		v, f := c.f.mem.LoadWord(a)
		if f != nil {
			panic(f)
		}
		out[a] = v
	}
	return out
}

// linearizable reports whether the run's history has a sequential order,
// consistent with each thread's program order and with real time (a call
// that ended before another began comes first), in which the LL/SC
// reference returns what every call returned and leaves final in memory.
// The reference: LL links the thread to the address; a store, an RMW or a
// successful SC to an address breaks every link to it; an SC may succeed
// only with its link unbroken, and may always fail.
func linearizable(history []call, final map[uint32]uint32) bool {
	n := len(history)
	used := make([]bool, n)
	mem := map[uint32]uint32{addrA: 0, addrB: 0}
	links := map[int]uint32{} // thread → linked address
	var try func(k int) bool
	try = func(k int) bool {
		if k == n {
			for a, v := range final {
				if mem[a] != v {
					return false
				}
			}
			return true
		}
		for i, c := range history {
			if used[i] || !minimal(history, used, i) {
				continue
			}
			saveMem := mem[c.addr]
			saveLinks := make(map[int]uint32, len(links))
			for t, a := range links {
				saveLinks[t] = a
			}
			if applyRef(c, mem, links) {
				used[i] = true
				if try(k + 1) {
					return true
				}
				used[i] = false
			}
			mem[c.addr] = saveMem
			links = saveLinks
		}
		return false
	}
	return try(0)
}

// minimal reports whether history[i] may be linearized next: it is its
// thread's earliest pending call and no pending call ended before it began.
func minimal(history []call, used []bool, i int) bool {
	c := history[i]
	for k, d := range history {
		if used[k] || k == i {
			continue
		}
		if d.end < c.start || (d.tid == c.tid && d.start < c.start) {
			return false
		}
	}
	return true
}

// applyRef applies c to the reference and reports whether its result
// agrees with the reference's.
func applyRef(c call, mem map[uint32]uint32, links map[int]uint32) bool {
	breakLinks := func() {
		for t, a := range links {
			if a == c.addr {
				delete(links, t)
			}
		}
	}
	switch c.kind {
	case "ll":
		if mem[c.addr] != c.ret {
			return false
		}
		links[c.tid] = c.addr
	case "sc":
		a, linked := links[c.tid]
		delete(links, c.tid)
		if !c.ok {
			return true
		}
		if !linked || a != c.addr {
			return false
		}
		mem[c.addr] = c.arg
		breakLinks()
	case "add":
		if mem[c.addr] != c.ret {
			return false
		}
		mem[c.addr] += c.arg
		breakLinks()
	default:
		mem[c.addr] = c.arg
		breakLinks()
	}
	return true
}

// checkReport summarizes an exhaustive exploration.
type checkReport struct {
	runs, scOK, scFail int
	// violation is the first run the reference rejected, nil if none.
	violation *checkRun
	final     map[uint32]uint32
}

// explore tries every schedule of the case (depth first, lowest thread
// first) and stops at the first one the reference rejects.
func (c *checker) explore() checkReport {
	var rep checkReport
	var prefix []int // choices (indices into enabled) to replay
	for {
		var choices, widths []int
		r := c.run(func(enabled []int) int {
			k := 0
			if d := len(choices); d < len(prefix) {
				k = prefix[d]
			}
			choices = append(choices, k)
			widths = append(widths, len(enabled))
			return k
		})
		rep.runs++
		for _, h := range r.history {
			if h.kind == "sc" {
				if h.ok {
					rep.scOK++
				} else {
					rep.scFail++
				}
			}
		}
		if fin := c.final(); !linearizable(r.history, fin) {
			rep.violation, rep.final = r, fin
			return rep
		}
		d := len(choices) - 1
		for d >= 0 && choices[d]+1 >= widths[d] {
			d--
		}
		if d < 0 {
			return rep
		}
		prefix = append(choices[:d:d], choices[d]+1)
	}
}

// replay runs the schedule that picks thread tids[k] (1-based) at step k.
func (c *checker) replay(t *testing.T, tids []int) *checkRun {
	t.Helper()
	step := 0
	return c.run(func(enabled []int) int {
		if step >= len(tids) {
			t.Fatalf("schedule ended after %d steps with threads %v still enabled", step, enabled)
		}
		want := tids[step] - 1
		step++
		for k, i := range enabled {
			if i == want {
				return k
			}
		}
		t.Fatalf("step %d: thread %d not enabled (enabled %v)", step-1, want+1, enabled)
		return 0
	})
}

func describe(r *checkRun, final map[uint32]uint32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %s\nhistory:\n", strings.Join(r.trace, " | "))
	for _, h := range r.history {
		fmt.Fprintf(&b, "  %v\n", h)
	}
	fmt.Fprintf(&b, "final: %#x=%d %#x=%d", addrA, final[addrA], addrB, final[addrB])
	return b.String()
}

// TestHSTExhaustiveInterleavings admits hst's write-then-claim store: no
// schedule of any case breaks linearizable LL/SC.
func TestHSTExhaustiveInterleavings(t *testing.T) {
	for _, cc := range checkCases {
		t.Run(cc.name, func(t *testing.T) {
			c := newChecker(t, cc, newOrderStore)
			rep := c.explore()
			if rep.violation != nil {
				t.Fatalf("not linearizable after %d runs:\n%s", rep.runs, describe(rep.violation, rep.final))
			}
			t.Logf("%d schedules, %d SCs succeeded, %d failed", rep.runs, rep.scOK, rep.scFail)
			if rep.scOK == 0 || rep.runs < 2 {
				t.Fatalf("vacuous check: %d schedules, %d successful SCs", rep.runs, rep.scOK)
			}
		})
	}
}

// TestHSTCheckFindsOldOrderLostStore runs the check on the claim-first
// store: it must find the lost store, and the first schedule it finds is
// the one pinned here.
func TestHSTCheckFindsOldOrderLostStore(t *testing.T) {
	c := newChecker(t, checkCases[0], claimFirstStore)
	rep := c.explore()
	if rep.violation == nil {
		t.Fatalf("the check found nothing in the claim-first store over %d schedules", rep.runs)
	}
	got := strings.Join(rep.violation.trace, " | ")
	if got != claimFirstLostStore.trace {
		t.Fatalf("first violation found:\n%s\nwant schedule %s", describe(rep.violation, rep.final), claimFirstLostStore.trace)
	}
	t.Logf("found after %d schedules:\n%s", rep.runs, describe(rep.violation, rep.final))
}

// lostStoreCase is a pinned schedule of llsc-vs-store: the threads to run
// step by step, the step trace that gives, and the final word.
type lostStoreCase struct {
	tids  []int
	trace string
	final uint32
}

// claimFirstLostStore is the lost store in the claim-first order. Thread 2
// claims the entry for its store; thread 1's LL takes the entry back and
// loads the old 0; thread 2 writes 100; thread 1's SC still owns the entry,
// succeeds, and writes 1 over the store.
var claimFirstLostStore = lostStoreCase{
	tids:  []int{2, 1, 1, 2, 1},
	trace: "t2 store.set | t1 ll.set | t1 ll.load | t2 store.word | t1 sc",
	final: 1,
}

// writeFirstSameSchedule is the same race in the write-then-claim order:
// thread 2 writes 100; thread 1's LL sets the entry and loads 100 (the
// write came first); thread 2's claim takes the entry from thread 1; the
// SC fails and the retry adds 1 to 100.
var writeFirstSameSchedule = lostStoreCase{
	tids:  []int{2, 1, 1, 2, 2, 1, 1, 1, 1},
	trace: "t2 store.word | t1 ll.set | t1 ll.load | t2 claim.load | t2 claim.set | t1 sc | t1 ll.set | t1 ll.load | t1 sc",
	final: 101,
}

// TestHSTLostStoreRegression replays the pinned schedules: the claim-first
// store loses thread 2's write, the write-then-claim store keeps it.
func TestHSTLostStoreRegression(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store storeFunc
		want  lostStoreCase
		lin   bool
	}{
		{"claim-first", claimFirstStore, claimFirstLostStore, false},
		{"write-first", newOrderStore, writeFirstSameSchedule, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newChecker(t, checkCases[0], tc.store)
			r := c.replay(t, tc.want.tids)
			fin := c.final()
			if got := strings.Join(r.trace, " | "); got != tc.want.trace {
				t.Fatalf("trace %s, want %s", got, tc.want.trace)
			}
			if fin[addrA] != tc.want.final {
				t.Fatalf("final word %d, want %d\n%s", fin[addrA], tc.want.final, describe(r, fin))
			}
			if got := linearizable(r.history, fin); got != tc.lin {
				t.Fatalf("linearizable = %t, want %t\n%s", got, tc.lin, describe(r, fin))
			}
		})
	}
}

// hooklessStore is hst.Store with its step-hook sites taken out: the
// baseline TestHSTStepHookOverheadGuard measures the unset hook against.
func hooklessStore(s *hst, ctx Context, addr, val uint32) error {
	ctx.Charge(stats.CompInstrument, s.cost.HashInline)
	if f := ctx.Mem().StoreWord(addr, val); f != nil {
		return f
	}
	if s.shadow != nil {
		s.census(ctx, addr)
	}
	tid := ctx.TID()
	if s.tab.Get(addr) == tid {
		return nil
	}
	s.tab.Set(addr, tid)
	return nil
}

// TestHSTStepHookOverheadGuard shows the unset step hook costs nothing
// measurable on hst.Store: the best of many short alternating timed loops
// of Store and of hooklessStore must agree within a tenth of the store or
// 1.5 ns, whichever is larger. A nil check is a fraction of a nanosecond;
// a failure means the sites stopped being nil checks (work hoisted before
// them, or the hook moved onto a path that allocates or calls). Other
// packages' tests share the host's cores under go test ./..., so a
// measurement that misses the budget is taken again, up to three times: a
// real regression misses it every time.
func TestHSTStepHookOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("perf guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("perf guard skipped under -race: instrumentation dominates the nil checks")
	}
	const (
		iters    = 1 << 16
		rounds   = 32
		attempts = 3
	)
	f := newFixture(t)
	s := f.scheme(t, "hst").(*hst)
	ctx := f.ctx(1)
	// Both loops call their store directly; neither store inlines.
	measure := func(hooks bool) float64 {
		start := time.Now()
		for i := uint32(0); i < iters; i++ {
			if hooks {
				s.Store(ctx, varAddr+i&63*4, i)
			} else {
				hooklessStore(s, ctx, varAddr+i&63*4, i)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	var over, budget float64
	for a := 0; a < attempts; a++ {
		best := [2]float64{math.Inf(1), math.Inf(1)}
		for r := 0; r < rounds; r++ {
			for k := range 2 {
				k ^= r & 1 // alternate which goes first
				best[k] = min(best[k], measure(k == 0))
			}
		}
		over, budget = best[0]-best[1], max(1.5, best[1]/10)
		t.Logf("hst.Store %.2f ns, without hook sites %.2f ns (best of %d)", best[0], best[1], rounds)
		if over <= budget {
			return
		}
	}
	t.Fatalf("unset step hook costs %.2f ns per store, budget %.2f ns, in %d attempts", over, budget, attempts)
}
