// Package engine is atomemu's DBT execution engine — the QEMU analogue. It
// owns the guest address space, the translation-block cache, the vCPU
// goroutines with their QEMU-style exclusive (stop-the-world) protocol, the
// guest syscall layer (threads, futexes, barriers, memory), and the
// virtual-time cost model that stands in for the paper's 52-core testbed
// (see DESIGN.md §4).
//
// The atomic-instruction emulation scheme (internal/core) plugs in at
// machine construction; the translator consults it for instrumentation
// decisions, and the interpreter routes LL/SC and instrumented loads/stores
// through it.
//
// Limitation: a machine's own translation blocks are never invalidated, so
// self-modifying guest code is unsupported within one machine (all guest
// programs here are static images) — the same simplification QEMU's user
// mode makes unless mmap tracking forces a flush. The cross-job shared
// store (Config.SharedTBStore) is stricter: an MMU store watch over the
// image span gates every shared adoption and publication, so a mutated
// page's blocks are never shared across machines (sharedtb.go).
package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"atomemu/internal/asm"
	"atomemu/internal/checkpoint"
	"atomemu/internal/core"
	"atomemu/internal/faultinject"
	"atomemu/internal/htm"
	"atomemu/internal/ir"
	"atomemu/internal/mmu"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
	"atomemu/internal/tbstore"
	"atomemu/internal/translate"
)

// Default guest memory layout.
const (
	// RuntimeBase holds the engine-provided thread-exit trampoline.
	RuntimeBase uint32 = 0x0000_1000
	// DefaultHeapBase is where sys_mmap allocations start.
	DefaultHeapBase uint32 = 0x2000_0000
	// StackRegionBase is where per-thread stacks are carved out, growing
	// upward by thread id, each followed by an unmapped guard page.
	StackRegionBase uint32 = 0x4000_0000
)

// Fixed machine parameters, not Config fields: no caller needs another value.
const (
	// stackBytes is each guest thread's stack size; stacks sit stackStride
	// apart so an unmapped guard page follows each one.
	stackBytes  uint32 = 64 << 10
	stackStride        = stackBytes + mmu.PageSize
	// htmBits sizes the software HTM's lock table at 2^bits slots; its
	// transactions hold htm.DefaultCapacity words of read+write set.
	htmBits = 16
	// quantumTBs is the mean number of blocks between host scheduler yields
	// and preemptMemOps the mean number of guest memory operations between
	// randomized mid-block ones (instruction-granular preemption). Both
	// apply only while a second vCPU is live: a lone vCPU never yields.
	quantumTBs    = 32
	preemptMemOps = 600
)

// Config configures a Machine.
type Config struct {
	// Scheme selects the atomic emulation scheme by name (core.SchemeNames).
	Scheme string
	// Cost is the virtual-time cost model.
	Cost core.CostModel
	// MemBytes bounds guest physical memory.
	MemBytes uint32
	// HashBits sizes the HST store-test table (2^bits entries).
	HashBits uint
	// NoOptimize disables the IR optimizer (for differential testing).
	NoOptimize bool
	// MaxThreads bounds guest thread creation.
	MaxThreads int
	// FuseAtomics enables rule-based translation (paper §VI): recognized
	// LL/SC retry loops run as single fused host atomics.
	FuseAtomics bool
	// ChainBudget enables direct block chaining: a block exiting through a
	// direct branch jumps straight to its successor without returning to
	// the dispatch loop, for at most this many blocks per loop iteration.
	// Exclusive-protocol polling and witness stalls still run at every
	// chained boundary; the budget only bounds how stale the loop-level
	// services (deadline, checkpoint cadence, watchdog, host yield) can
	// get. 0 (the default) disables chaining; forced off in StepMode and
	// under TraceWriter, which need the loop after every block.
	ChainBudget int
	// Tiered enables profile-gated tiering: cold blocks run as unoptimized,
	// unfused IR translated at the decode rate (Cost.TBDecode) and are
	// re-translated as optimized superblocks once their per-vCPU execution
	// count crosses HotThreshold. Off by default: translation charges and
	// superblock shapes differ from the always-optimized pipeline, so the
	// figure/correctness harness leaves it off.
	Tiered bool
	// HotThreshold is the per-vCPU execution count at which a tiered
	// block is promoted to optimized IR (0 = default 64).
	HotThreshold int
	// HTMInterference calibrates how violently emulation work interferes
	// with transactions that span block boundaries (PICO-HTM's LL…SC
	// windows): at each boundary inside an open transaction the engine
	// aborts it with probability min(0.95, ((threads-1)/HTMInterference)²),
	// modelling conflicts on QEMU's shared emulator state [paper §III-B,
	// ref 18]. SC-only transactions (HST-HTM) never cross a boundary and
	// are unaffected. 0 means the default (16); negative is rejected.
	HTMInterference int
	// MaxGuestInstrs aborts a runaway vCPU after this many guest
	// instructions (0 = unlimited).
	MaxGuestInstrs uint64
	// StepMode builds vCPUs for deterministic single-stepping (litmus
	// tests): no goroutines, one guest instruction per block.
	StepMode bool
	// TraceWriter, when set, logs every executed guest instruction
	// (tid, pc, disassembly). Forces one-instruction blocks; debugging only.
	TraceWriter io.Writer
	// TraceEvents enables the per-vCPU atomic-event tracer (internal/obs):
	// LL/SC outcomes, exclusive sections, HTM aborts, watchdog trips,
	// checkpoint/restore. Off (the default) costs one nil check per
	// would-be event.
	TraceEvents bool
	// TraceRingBits sizes each vCPU's event ring at 2^bits events
	// (32 bytes each), 4 ≤ bits ≤ 24. 0 selects the default (12: 4096
	// events, 128 KiB per vCPU). Older events are overwritten once a ring
	// wraps.
	TraceRingBits uint
	// ProfileCollisions enables the HST collision census (Table I support).
	ProfileCollisions bool

	// StrictPaper restores the paper's crash-on-livelock behavior: the HTM
	// schemes return EmulationError after an abort storm instead of
	// demoting to their portable fallback path. The figure/correctness
	// harness sets it for reproduction fidelity; the default is resilient,
	// with core.DefaultResilience's retry budget, backoff and cooldown.
	StrictPaper bool
	// ResilienceSeed seeds the deterministic per-tid backoff jitter
	// (0 = default).
	ResilienceSeed uint64
	// WatchdogSCFails trips the per-vCPU progress watchdog after this many
	// SC failures with no intervening success. 0 selects the default;
	// a negative value disables the watchdog.
	WatchdogSCFails int64
	// CheckpointEvery enables crash-consistent checkpoints: a consistent
	// cut of the whole machine is captured inside a quiet stop-the-world
	// section each time virtual time advances by this many cycles. 0 (the
	// default) disables checkpointing; the paper harness leaves it off so
	// figure reproduction is unaffected.
	CheckpointEvery uint64
	// RecoveryAttempts bounds how many rollback recoveries Run performs
	// after a recoverable failure (watchdog trip, scheme error, guest
	// fault, vCPU panic) before giving up with RecoveryExhaustedError.
	// 0 selects the default (3); a negative value disables recovery even
	// when checkpoints are captured.
	RecoveryAttempts int
	// CheckpointSink, when set alongside CheckpointEvery, receives every
	// captured snapshot just after the quiet stop-the-world window ends —
	// the durability layer spills it to disk from here. The call runs on
	// the capturing vCPU's goroutine, uncharged (capture cost is already
	// attributed to the checkpoint component), so implementations must not
	// block: hand the (immutable) snapshot to a writer goroutine and
	// return. Restored runs keep the same sink.
	CheckpointSink func(*checkpoint.Snapshot)
	// VirtualDeadline stops the machine with a DeadlineError once any vCPU
	// clock passes this many virtual cycles. 0 means no deadline.
	VirtualDeadline uint64
	// HashSpinBudget bounds hashtab.SetWait's spin on a locked entry
	// (0 = hashtab.DefaultSpinBudget).
	HashSpinBudget int
	// FaultInjector, when set, is threaded through the TM, the hash table
	// and the MMU for deterministic failure testing.
	FaultInjector *faultinject.Injector
	// SchedHook, when set, observes vCPU blocking transitions so an
	// external step-mode scheduler (internal/adversary) can drive the
	// machine without timeouts or polling. See the SchedHook type.
	SchedHook SchedHook

	// SharedTBStore attaches the machine to the process-wide
	// content-addressed translation store (internal/tbstore): translation
	// blocks are adopted from and published to a view keyed by image
	// content + translation options, so repeat jobs for the same image
	// skip decode+translate+optimize. LoadImage is the one place a machine
	// attaches: the key and the guarded span come from the image, and the
	// memory it just seeded is pristine by construction. A machine built
	// by ResumeFromSnapshot never calls LoadImage, so it never shares —
	// a snapshot records no store-watch state to prove its pages pristine.
	SharedTBStore *tbstore.Store[*TB]
}

// SchedHook receives vCPU park/wake notifications for an external
// deterministic scheduler. A step-mode machine is driven one vCPU at a
// time through CPU.Step, but blocking guest syscalls (futex, barrier,
// join) do not return until another vCPU delivers a wake — the scheduler
// must know when the vCPU it is stepping has parked (its Step call will
// not return) and how many parked vCPUs a wake is about to release
// (their pending Step calls will now return).
//
// Parked runs on the parking vCPU's goroutine after the park is
// registered, before it sleeps. Woken runs on the waking vCPU's
// goroutine before the wakes are delivered, possibly under machine
// locks: implementations must not call back into the Machine, and may
// only block on a peer that is guaranteed to be receiving (a channel
// hand-off to the scheduler loop).
type SchedHook interface {
	Parked(tid uint32)
	Woken(n int)
}

// DefaultConfig returns a ready-to-use configuration for the given scheme.
func DefaultConfig(scheme string) Config {
	return Config{
		Scheme:           scheme,
		Cost:             core.DefaultCostModel(),
		MemBytes:         64 << 20,
		HashBits:         14,
		MaxThreads:       256,
		HTMInterference:  16,
		TraceRingBits:    12,
		WatchdogSCFails:  1 << 17,
		RecoveryAttempts: 3,
		HotThreshold:     64,
	}
}

// Machine is one emulated guest machine.
type Machine struct {
	cfg    Config
	mem    *mmu.Memory
	scheme core.Scheme
	tm     *htm.TM
	excl   *exclusive
	topts  translate.Options

	// tbs is the machine's translation-block cache, shared by its vCPUs:
	// mutex-sharded maps, see tbcache.go.
	tbs tbCache

	// Cross-job shared-translation state (sharedtb.go): the keyed view of
	// cfg.SharedTBStore, the image hash it derives from, and the MMU store
	// watch over the image span that gates adoption and publication.
	// All three are set before vCPUs launch (or while quiesced, on rekey).
	sharedView  *tbstore.View[*TB]
	sharedImage [32]byte
	sharedWatch *mmu.StoreWatch

	// Effective chaining/tiering knobs (tier.go), derived from cfg at
	// construction: StepMode and TraceWriter force both off.
	chainBudget  int
	tiered       bool
	hotThreshold uint32

	cpuMu sync.Mutex
	cpus  []*CPU
	// cpuReserved counts newCPU calls that passed the MaxThreads check but
	// have not appended to cpus yet, so concurrent guest spawns cannot
	// overshoot the limit between the check and the append.
	cpuReserved int
	nextTID     uint32
	wg          sync.WaitGroup

	stopped atomic.Bool
	// stopCh broadcasts the stop to join waiters, which (unlike futex and
	// barrier waiters) have no per-waiter wake channel the stop path can
	// reach: a join cycle would otherwise hang the host forever after the
	// deadlock detector fires. Guarded by errMu; recreated by restore.
	stopCh       chan struct{}
	stopChClosed bool
	errMu        sync.Mutex
	firstErr     error

	outMu  sync.Mutex
	output []uint32

	heapMu   sync.Mutex
	heapNext uint32

	futexMu sync.Mutex
	futexes map[uint32]*futexQueue

	barMu    sync.Mutex
	barriers map[uint32]*guestBarrier

	// exclSections counts stop-the-world sections (real or charged); every
	// vCPU pays an ExclusiveStall for each section it witnesses.
	exclSections atomic.Uint64
	// runningCPUs counts vCPUs not yet halted.
	runningCPUs atomic.Int32

	// parkMu guards parked, the per-CPU blocked markers and joinParked
	// counts: the guest-deadlock detector's state. parked counts vCPUs
	// blocked in a guest syscall with no wake in flight (wakers decrement
	// before delivering the wake, so parked == runningCPUs only at a true
	// deadlock). Lock order: futexMu/barMu before parkMu, parkMu before
	// cpuMu; never call stop while holding parkMu.
	parkMu sync.Mutex
	parked int
	// deadlockArmed gates the detector (guarded by parkMu). SpawnThread
	// launches a vCPU goroutine at once, so between two host-side spawns the
	// first thread can park on a barrier the second has yet to reach, and
	// "every live vCPU is parked" is then true of a machine that is only
	// half set up. The detector arms when RunContext takes the machine,
	// which re-checks once for parks it ignored; StepMode arms at
	// construction, where the caller sequences spawns and steps itself.
	deadlockArmed bool

	// Checkpoint/recovery state. lastCkpt is the newest consistent cut;
	// nextCkptVT is the virtual time at which the next capture is claimed
	// (CAS-guarded so exactly one vCPU captures per cadence point).
	ckptMu     sync.Mutex
	lastCkpt   *checkpoint.Snapshot
	nextCkptVT atomic.Uint64
	// Machine-level counters (per-CPU stats are themselves rolled back by
	// restores); AggregateStats merges them into the aggregate.
	checkpoints      atomic.Uint64
	ckptPages        atomic.Uint64
	recoveryAttempts atomic.Uint64
	recoveryRestores atomic.Uint64

	// Event-tracer state (nil/empty unless cfg.TraceEvents). rings holds
	// every per-vCPU ring ever created — restore() drops rolled-back vCPUs
	// from cpus, but their trace of what actually happened must survive.
	// hostRing records machine-level events (restores) with explicit
	// timestamps.
	ringMu   sync.Mutex
	rings    []*obs.Ring
	hostRing *obs.Ring
}

// TB is a cached translation block — the shared, scheme-consistent unit of
// the two-level cache. Without tiering, ir is set before the TB is
// published and never changes. Under profile-gated tiering a TB is born
// with only its cold form (unoptimized IR, immutable) and ir is published
// once, by the first vCPU that promotes the block (tier.go); cold stays
// valid so vCPUs that have not noticed the promotion yet keep running it.
type TB struct {
	ir   atomic.Pointer[ir.Block]
	cold *ir.Block

	// lo/hi bound the guest addresses the block was translated from (hi
	// exclusive; widened at promotion, before the superblock IR publishes)
	// and sens carries the instrumentation-sensitivity bits — both serve
	// the shared store's span checks and demotion retention (sharedtb.go).
	lo, hi atomic.Uint32
	sens   atomic.Uint32
}

// newTB wraps a freshly translated block as a TB: as its cold form when
// cold is set (tiering), otherwise as its one and only IR.
func newTB(block *ir.Block, cold bool) *TB {
	tb := &TB{}
	tb.lo.Store(block.GuestLo)
	tb.hi.Store(block.GuestHi)
	tb.sens.Store(sensOf(block.HasStores, block.HasLoads))
	if cold {
		tb.cold = block
	} else {
		tb.ir.Store(block)
	}
	return tb
}

// normalized fills zero-valued sizing fields from DefaultConfig while
// keeping every caller-set field. (A partially-specified Config used to be
// replaced wholesale whenever MemBytes was 0, silently discarding options
// like Scheme, HashBits, FuseAtomics, NoOptimize or TraceWriter.) Flags and
// debug fields pass through untouched, as does MaxGuestInstrs, where zero
// means unlimited.
func (cfg Config) normalized() Config {
	def := DefaultConfig(cfg.Scheme)
	if cfg.Cost == (core.CostModel{}) {
		cfg.Cost = def.Cost
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = def.MemBytes
	}
	if cfg.HashBits == 0 {
		cfg.HashBits = def.HashBits
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = def.MaxThreads
	}
	if cfg.HTMInterference == 0 {
		cfg.HTMInterference = def.HTMInterference
	}
	if cfg.TraceRingBits == 0 {
		cfg.TraceRingBits = def.TraceRingBits
	}
	// WatchdogSCFails: 0 means default, negative disables.
	if cfg.WatchdogSCFails == 0 {
		cfg.WatchdogSCFails = def.WatchdogSCFails
	}
	// RecoveryAttempts likewise: 0 means default, negative disables.
	if cfg.RecoveryAttempts == 0 {
		cfg.RecoveryAttempts = def.RecoveryAttempts
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = def.HotThreshold
	}
	return cfg
}

// resilience derives the scheme-facing resilience policy from the config;
// the schemes fill the retry budget, backoff and cooldown from
// core.DefaultResilience.
func (cfg *Config) resilience() core.Resilience {
	return core.Resilience{StrictPaper: cfg.StrictPaper, Seed: cfg.ResilienceSeed}
}

// NewMachine builds a machine with the configured scheme. Zero-valued
// sizing fields of cfg are filled from DefaultConfig (see Config.normalized)
// and the result must pass Config.Validate.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	m := &Machine{
		cfg:      cfg,
		mem:      mmu.New(cfg.MemBytes),
		excl:     newExclusive(),
		heapNext: DefaultHeapBase,
		futexes:  make(map[uint32]*futexQueue),
		barriers: make(map[uint32]*guestBarrier),
		stopCh:   make(chan struct{}),

		deadlockArmed: cfg.StepMode,
	}
	m.mem.SetInjector(cfg.FaultInjector)
	m.nextCkptVT.Store(cfg.CheckpointEvery)
	if cfg.TraceEvents {
		m.hostRing = obs.NewRing(0, m.cfg.TraceRingBits, nil)
	}

	res := m.cfg.resilience()
	deps := core.Deps{Cost: &m.cfg.Cost, Res: &res}
	needsHTM := cfg.Scheme == "pico-htm" || cfg.Scheme == "hst-htm"
	if needsHTM {
		tm, err := htm.New(htmBits, htm.DefaultCapacity)
		if err != nil {
			return nil, err
		}
		tm.SetInjector(cfg.FaultInjector)
		m.tm = tm
		deps.TM = tm
	}
	switch cfg.Scheme {
	case "hst", "hst-weak", "hst-htm":
		tab, err := core.NewHashTable(cfg.HashBits)
		if err != nil {
			return nil, err
		}
		tab.SpinBudget = cfg.HashSpinBudget
		tab.SetInjector(cfg.FaultInjector)
		deps.Htab = tab
	}
	var err error
	if cfg.Scheme == "hst" && cfg.ProfileCollisions {
		m.scheme = core.NewHSTProfiled(deps.Cost, deps.Htab)
	} else {
		m.scheme, err = core.New(cfg.Scheme, deps)
		if err != nil {
			return nil, err
		}
	}

	m.topts = translate.Options{
		InstrumentStores: m.scheme.InstrumentsStores(),
		InstrumentLoads:  m.scheme.InstrumentsLoads(),
		Optimize:         !cfg.NoOptimize,
		FuseAtomics:      cfg.FuseAtomics,
	}

	m.chainBudget = cfg.ChainBudget
	m.tiered = cfg.Tiered
	m.hotThreshold = uint32(cfg.HotThreshold)
	if cfg.StepMode || cfg.TraceWriter != nil {
		// Single-stepping and per-instruction tracing rely on returning to
		// the dispatch loop after every one-instruction block.
		m.topts.MaxGuestInstrs = 1
		m.chainBudget = 0
		m.tiered = false
	}

	// The runtime page: the thread-exit trampoline (svc exit).
	if err := m.mem.Map(RuntimeBase, mmu.PageSize, mmu.PermRX); err != nil {
		return nil, err
	}
	trap := trampolineWords()
	for i, w := range trap {
		if f := m.mem.WriteWordPriv(RuntimeBase+uint32(i)*4, w); f != nil {
			return nil, f
		}
	}
	return m, nil
}

// Scheme returns the active emulation scheme.
func (m *Machine) Scheme() core.Scheme { return m.scheme }

// Mem returns the guest address space (examples and tests use it to seed
// and inspect guest data).
func (m *Machine) Mem() *mmu.Memory { return m.mem }

// LoadImage maps and copies an assembled image into guest memory. Image
// pages are mapped read-write-execute (code and data share pages, as in a
// flat firmware-style binary). An image loads before the first SpawnThread:
// the copy is a plain one (mmu.WriteWordsPriv), so LoadImage refuses a
// machine that already has a vCPU.
func (m *Machine) LoadImage(im *asm.Image) error { return m.loadImage(im, nil) }

// LoadKeyedImage is LoadImage for a caller that already holds the image's
// ImageKey, which it must equal: the shared translation store is keyed
// with it instead of hashing the image a second time.
func (m *Machine) LoadKeyedImage(im *asm.Image, key [32]byte) error { return m.loadImage(im, &key) }

func (m *Machine) loadImage(im *asm.Image, key *[32]byte) error {
	m.cpuMu.Lock()
	spawned := m.nextTID
	m.cpuMu.Unlock()
	if spawned != 0 {
		return fmt.Errorf("engine: LoadImage after SpawnThread: an image loads before any vCPU exists")
	}
	base := mmu.PageBase(im.Org)
	end := im.End()
	size := (end - base + mmu.PageSize - 1) &^ uint32(mmu.PageMask)
	if err := m.mem.Map(base, size, mmu.PermRWX); err != nil {
		return fmt.Errorf("engine: mapping image: %w", err)
	}
	if f := m.mem.WriteWordsPriv(im.Org, im.Words); f != nil {
		return f
	}
	// Attach the shared-translation view now that the image bytes are in
	// place (the watch must not count host-side seeding as mutation).
	m.attachSharedTB(im, key)
	return nil
}

// MapRegion maps extra guest memory (workload heaps).
func (m *Machine) MapRegion(addr, size uint32, perm mmu.Perm) error {
	return m.mem.Map(addr, size, perm)
}

// stop records the first fatal error and halts every vCPU.
func (m *Machine) stop(err error) {
	m.errMu.Lock()
	if m.firstErr == nil && err != nil {
		m.firstErr = err
	}
	m.stopped.Store(true)
	if !m.stopChClosed {
		m.stopChClosed = true
		close(m.stopCh)
	}
	m.errMu.Unlock()
	// Wake sleepers so they observe the stop.
	m.futexMu.Lock()
	for _, q := range m.futexes {
		q.wakeAll(0)
	}
	m.futexMu.Unlock()
	m.barMu.Lock()
	for _, b := range m.barriers {
		b.releaseAll()
	}
	m.barMu.Unlock()
}

// Stopped reports whether the machine has fatally stopped (Err can still
// be nil: a clean exit_group also stops the machine).
func (m *Machine) Stopped() bool { return m.stopped.Load() }

// Interrupt stops the machine as if a fatal error had occurred, waking
// any vCPUs parked in blocking guest syscalls so their pending Step
// calls return. External steppers use it to abandon a wedged step-mode
// run; outside step mode, cancelling RunContext is the supported path.
func (m *Machine) Interrupt(err error) { m.stop(err) }

// Err returns the first fatal error, if any.
func (m *Machine) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.firstErr
}

// Start creates the main vCPU at entry with r0..rN = args and, unless the
// machine is in step mode, launches it.
func (m *Machine) Start(entry uint32, args ...uint32) (*CPU, error) {
	return m.newCPU(entry, 0, args)
}

// SpawnThread is the host-side thread creation used by tests; guest code
// uses the spawn syscall.
func (m *Machine) SpawnThread(entry uint32, args ...uint32) (*CPU, error) {
	return m.newCPU(entry, 0, args)
}

func (m *Machine) newCPU(entry uint32, startClock uint64, args []uint32) (*CPU, error) {
	// A stopped machine must not hand out a fresh vCPU goroutine: Start or
	// SpawnThread after a fatal stop used to launch a thread that raced
	// machine teardown. Surface the stop error instead.
	if m.stopped.Load() {
		if err := m.Err(); err != nil {
			return nil, fmt.Errorf("engine: machine stopped: %w", err)
		}
		return nil, fmt.Errorf("engine: machine stopped")
	}
	// Reserve a tid and a slot under one lock so concurrent guest spawns
	// cannot both pass the limit check and overshoot MaxThreads; the
	// reservation (not a re-check at append time) also means a spawn that
	// passed the check can never lose a race after mapping its stack.
	m.cpuMu.Lock()
	if len(m.cpus)+m.cpuReserved >= m.cfg.MaxThreads {
		m.cpuMu.Unlock()
		return nil, fmt.Errorf("engine: thread limit %d reached", m.cfg.MaxThreads)
	}
	m.cpuReserved++
	m.nextTID++
	tid := m.nextTID
	m.cpuMu.Unlock()

	stackTop, err := m.mapStack(tid)
	if err != nil {
		m.cpuMu.Lock()
		m.cpuReserved--
		m.cpuMu.Unlock()
		return nil, err
	}
	c := newCPU(m, tid)
	c.pc = entry
	c.clock = startClock
	for i, a := range args {
		if i >= 13 {
			break
		}
		c.slots[i] = a
	}
	c.slots[13] = stackTop    // sp
	c.slots[14] = RuntimeBase // lr: returning from the entry function exits
	c.done = make(chan struct{})

	m.cpuMu.Lock()
	m.cpus = append(m.cpus, c)
	m.cpuReserved--
	m.cpuMu.Unlock()
	m.runningCPUs.Add(1)

	if !m.cfg.StepMode {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			c.run()
		}()
	}
	return c, nil
}

func (m *Machine) mapStack(tid uint32) (uint32, error) {
	base := StackRegionBase + (tid-1)*stackStride
	if err := m.mem.Map(base, stackBytes, mmu.PermRW); err != nil {
		return 0, fmt.Errorf("engine: mapping stack for tid %d: %w", tid, err)
	}
	return base + stackBytes, nil
}

// CPUs returns the machine's vCPUs (stable after threads stop spawning).
func (m *Machine) CPUs() []*CPU {
	m.cpuMu.Lock()
	defer m.cpuMu.Unlock()
	out := make([]*CPU, len(m.cpus))
	copy(out, m.cpus)
	return out
}

// Output returns the values the guest emitted via the write syscall.
func (m *Machine) Output() []uint32 {
	m.outMu.Lock()
	defer m.outMu.Unlock()
	out := make([]uint32, len(m.output))
	copy(out, m.output)
	return out
}

// VirtualTime returns the machine's execution time in virtual cycles: the
// maximum over all vCPU clocks.
//
// Like AggregateStats it is safe while the machine runs: each clock is a
// plain word its vCPU goroutine owns, so the read stops the world
// (uncharged) first. In StepMode the caller drives all execution and the
// read is direct.
func (m *Machine) VirtualTime() uint64 {
	if !m.cfg.StepMode {
		m.excl.hostStop()
		defer m.excl.hostResume()
	}
	return m.virtualTimeQuiesced()
}

// virtualTimeQuiesced is VirtualTime for a caller that already holds the
// world stopped.
func (m *Machine) virtualTimeQuiesced() uint64 {
	var maxClk uint64
	for _, c := range m.CPUs() {
		maxClk = max(maxClk, c.clock)
	}
	return maxClk
}

// AggregateStats sums all vCPU counters and merges in the machine-level
// checkpoint/recovery counters (which survive rollbacks; per-CPU counters
// are restored along with the vCPU).
//
// Safe to call while the machine is running: per-vCPU counters are plain
// fields owned by their vCPU goroutine, so the read briefly stops the world
// (uncharged, like a checkpoint capture) to get a consistent, race-free
// snapshot — the service layer polls live jobs through this. In StepMode
// there are no vCPU goroutines and the caller drives all execution, so the
// read is direct and callers must not step concurrently.
func (m *Machine) AggregateStats() stats.CPU {
	if !m.cfg.StepMode {
		m.excl.hostStop()
		defer m.excl.hostResume()
	}
	var agg stats.CPU
	for _, c := range m.CPUs() {
		agg.Add(&c.st)
	}
	agg.Checkpoints = m.checkpoints.Load()
	agg.CheckpointPages = m.ckptPages.Load()
	agg.RecoveryAttempts = m.recoveryAttempts.Load()
	agg.RecoveryRestores = m.recoveryRestores.Load()
	return agg
}

// newTraceRing creates and registers a vCPU's event ring (nil when tracing
// is off). Rings are registered machine-wide rather than discovered via
// m.cpus because restore() drops rolled-back vCPUs from cpus — the trace
// must still describe what those vCPUs actually did.
func (m *Machine) newTraceRing(tid uint32, clock *uint64) *obs.Ring {
	if !m.cfg.TraceEvents {
		return nil
	}
	r := obs.NewRing(tid, m.cfg.TraceRingBits, clock)
	m.ringMu.Lock()
	m.rings = append(m.rings, r)
	m.ringMu.Unlock()
	return r
}

// TraceEvents returns every traced event, merged across vCPUs and sorted
// by virtual timestamp (ties by tid). Outside StepMode it quiesces the
// machine with the same host-side stop AggregateStats uses, so it is safe
// while vCPUs run. Returns nil when tracing is disabled.
func (m *Machine) TraceEvents() []obs.Event {
	if !m.cfg.TraceEvents {
		return nil
	}
	if !m.cfg.StepMode {
		m.excl.hostStop()
		defer m.excl.hostResume()
	}
	m.ringMu.Lock()
	rings := append([]*obs.Ring{m.hostRing}, m.rings...)
	m.ringMu.Unlock()
	var out []obs.Event
	for _, r := range rings {
		out = append(out, r.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].VT != out[j].VT {
			return out[i].VT < out[j].VT
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// TraceDropped reports how many events were lost to ring wrap, summed
// across all rings.
func (m *Machine) TraceDropped() uint64 {
	m.ringMu.Lock()
	defer m.ringMu.Unlock()
	n := m.hostRing.Dropped()
	for _, r := range m.rings {
		n += r.Dropped()
	}
	return n
}

// chargeExclusiveEntry charges the requester for a stop-the-world section
// (base + per-running-vCPU park cost) and publishes the section so every
// other vCPU pays its witness stall.
//
// This sits on the critical path of every HST and PICO-ST SC, so the
// running-vCPU count comes from the maintained runningCPUs counter — one
// atomic load — rather than copying and scanning the cpus slice under
// cpuMu, which made each SC O(num vCPUs) and serialized it against spawns.
func (m *Machine) chargeExclusiveEntry(c *CPU) {
	n := int(m.runningCPUs.Load())
	cost := m.cfg.Cost.ExclusiveBase
	if n > 1 {
		cost += uint64(n-1) * m.cfg.Cost.ExclusivePerCPU
	}
	c.charge(stats.CompExclusive, cost)
	c.st.ExclSections++
	// Publish; the requester has already paid, so it skips its own stall.
	c.lastExclSeen = m.exclSections.Add(1)
}

// tbFor returns the translation block at pc, translating on a shared-cache
// miss; see localFor for the mechanics. Kept as the shared-level entry
// point for tests and tools that care about the TB, not the per-vCPU view.
func (m *Machine) tbFor(c *CPU, pc uint32) (*TB, error) {
	lt, err := m.localFor(c, pc)
	if err != nil {
		return nil, err
	}
	return lt.tb, nil
}

// localFor returns the vCPU-private view of the block at pc, translating
// on a shared-cache miss. The shared lookup is lock-free (tbcache.go) and
// translation runs outside any critical section, so concurrent misses on
// different PCs proceed in parallel; racing misses on the same pc adopt
// the first published block. Translation inside an open PICO-HTM window
// aborts the transaction — the paper's "QEMU code becomes part of the
// transaction" effect.
//
// Cycle attribution: cache probes charge CompTBLookup and translation
// charges CompTBTranslate (both were folded into CompNative once, which
// made the translate pipeline invisible in /metrics and in tiering
// decisions). Under tiering a cold miss lowers the block without the
// optimizer or fusion and is charged as a decode (Cost.TBDecode per
// instruction); the full Cost.TBTranslate is paid at promotion.
//
// Adopting a block from the cross-job store stands in for translating it,
// cycle for cycle: the open transaction aborts and the vCPU is charged what
// the miss would have cost, so a job's virtual time, checkpoint cadence and
// deadline verdict do not depend on what other jobs ran before it. Only the
// host work is saved. (Tiered machines share promotion state through the
// store by design: a block another job already promoted arrives promoted.)
func (m *Machine) localFor(c *CPU, pc uint32) (*localTB, error) {
	slot := &c.jumpCache[jumpSlot(pc)]
	lt := *slot
	if lt == nil || lt.start != pc {
		if lt = c.localTBs[pc]; lt != nil {
			*slot = lt
		}
	}
	if lt != nil {
		// A jump-cache hit and a map hit are the same modelled probe.
		c.charge(stats.CompTBLookup, m.cfg.Cost.TBLookup)
		return lt, nil
	}
	c.st.TBSharedLookups++
	tb := m.tbs.get(pc)
	if tb == nil {
		c.abortOpenTxn(pc)
		opts, perInstr := m.topts, m.cfg.Cost.TBTranslate
		if m.tiered {
			opts.Optimize, opts.FuseAtomics = false, false
			perInstr = m.cfg.Cost.TBDecode
		}
		if stb := m.adoptShared(c, pc); stb != nil {
			first := stb.cold
			if first == nil {
				first = stb.ir.Load()
			}
			c.charge(stats.CompTBTranslate, perInstr*uint64(first.GuestLen))
			tb, _ = m.tbs.insert(pc, stb)
		} else {
			block, err := translate.Block(m.fetcher(), pc, opts)
			if err != nil {
				return nil, err
			}
			fresh := newTB(block, m.tiered)
			// The vCPU does the translation work whether or not its block
			// wins the publish race, so it pays the translate cost either way.
			c.charge(stats.CompTBTranslate, perInstr*uint64(block.GuestLen))
			// Offer the block to the cross-job store first — adopt-the-winner
			// there too, so racing machines converge on one canonical TB —
			// then publish into the machine cache. The span must be pristine
			// AFTER translation: the watch bumps before a mutating word is
			// written, so a translation that read mutated bytes cannot pass
			// this check.
			if m.sharedView != nil {
				if lo, hi := fresh.tbSpan(); m.sharedSpanClean(lo, hi) {
					var pubWon bool
					fresh, pubWon = m.sharedView.Publish(pc, fresh)
					if pubWon {
						c.st.TBStorePublishes++
					}
				}
			}
			var won bool
			tb, won = m.tbs.insert(pc, fresh)
			c.st.TBTranslations++
			if !won {
				c.st.TBRaceDiscards++
			}
		}
	}
	lt = &localTB{tb: tb, start: pc, block: tb.ir.Load()}
	c.localTBs[pc] = lt
	*slot = lt
	c.charge(stats.CompTBLookup, m.cfg.Cost.TBLookup)
	return lt, nil
}

// adoptShared returns the cross-job store's canonical block for pc if the
// pages it was translated from are still pristine in THIS machine's memory,
// nil otherwise.
func (m *Machine) adoptShared(c *CPU, pc uint32) *TB {
	if m.sharedView == nil || !m.sharedWatch.Contains(pc, pc+4) {
		return nil
	}
	stb, ok := m.sharedView.Get(pc)
	if !ok {
		c.st.TBStoreMisses++
		return nil
	}
	if lo, hi := stb.tbSpan(); !m.sharedSpanClean(lo, hi) {
		c.st.TBStoreInvalidations++
		return nil
	}
	c.st.TBStoreHits++
	return stb
}

// trampolineWords builds the runtime page: "svc #SysExit" so a thread entry
// function returning through lr exits cleanly.
func trampolineWords() []uint32 {
	return []uint32{
		svcWord(SysExit),
	}
}

// InitBarrier creates a guest barrier at addr for n participants — host-side
// setup used by harnesses; guest code can also use the barrier_init syscall.
func (m *Machine) InitBarrier(addr uint32, n int) { m.sysBarrierInit(addr, n) }
