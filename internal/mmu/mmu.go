// Package mmu implements the software MMU backing atomemu's guest address
// space — the analogue of QEMU's guest memory layer plus the pieces of the
// host kernel the paper's PST schemes lean on: per-page permissions with
// fault delivery (mprotect + SIGSEGV) and remapping of a physical frame at a
// different guest address (mremap).
//
// The fast path is lock-free: page-table entries are atomic words published
// after their frames, so concurrent guest loads/stores never take a lock.
// Structural changes (map, unmap, protect, remap) serialize on a mutex.
// Callers that need mprotect to be safe against in-flight accesses must
// provide their own stop-the-world, exactly as the paper's PST does via
// QEMU's start_exclusive.
//
// Guest stores have a page-level shortcut, this package's stand-in for a
// softmmu TLB hit: a pte whose page is present, writable, already dirty and
// outside the store watch, in a memory without a fault injector, carries
// pteStore, and StoreWord/Update on such a page go straight to the frame
// without the permission, watch, dirty and injector checks. The bit lives
// in the pte itself, so every pte write (Map, Unmap, Protect, Alias,
// Remap, Restore) drops it in the same atomic store that changes the page,
// and a store that loads the pte after that write takes the full path. The
// slow path sets it by compare-and-swap against the pte it checked, so it
// is never set on a pte that changed in between. SnapshotPages clears it
// with the dirty bit, WatchStores over its span, SetInjector everywhere.
package mmu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"atomemu/internal/faultinject"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // bytes
	PageWords = PageSize / 4
	PageMask  = PageSize - 1
)

// Perm is a page-permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
	// PermRW and PermRWX are the common combinations.
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

func (p Perm) String() string {
	buf := []byte("---")
	if p&PermRead != 0 {
		buf[0] = 'r'
	}
	if p&PermWrite != 0 {
		buf[1] = 'w'
	}
	if p&PermExec != 0 {
		buf[2] = 'x'
	}
	return string(buf)
}

// AccessKind describes the access that faulted.
type AccessKind uint8

// Access kinds.
const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessFetch
)

func (a AccessKind) String() string {
	switch a {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessFetch:
		return "fetch"
	}
	return "access?"
}

// FaultKind classifies a fault, mirroring the si_code values the paper's
// page-fault handler distinguishes (SEGV_MAPERR vs SEGV_ACCERR).
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped  FaultKind = iota // MAPERR: no mapping at the address
	FaultProtected                  // ACCERR: mapping exists, permission denied
	FaultAlign                      // misaligned word access
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtected:
		return "protection"
	case FaultAlign:
		return "alignment"
	}
	return "fault?"
}

// Fault reports a failed guest memory access.
type Fault struct {
	Addr   uint32
	Kind   FaultKind
	Access AccessKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s fault on %s at %#08x", f.Kind, f.Access, f.Addr)
}

// pte layout: bit 0 present, bits 1..3 perm, bit 4 dirty, bit 5 store
// shortcut, bits 8.. frame index. The dirty bit is set on every store
// resolution and consumed (and cleared) by Snapshot, so incremental
// snapshots copy only frames written since the previous one. pteStore is
// the store shortcut (package comment); it implies present, PermWrite and
// dirty.
const (
	ptePresent    = 1
	ptePermShift  = 1
	pteDirty      = 1 << 4
	pteStore      = 1 << 5
	pteFrameShift = 8
)

type leaf struct {
	ptes [1 << 10]atomic.Uint64
}

// Memory is a guest address space.
type Memory struct {
	mu        sync.Mutex // guards structural changes
	dir       [1 << 10]atomic.Pointer[leaf]
	frames    []*[PageWords]uint32 // fixed capacity, entries published before their pte
	nextFrame int
	freeList  []int32 // recycled frame indices
	inj       *faultinject.Injector
	// watch, when set, counts stores landing in one address range — the
	// engine's shared-translation guard over the guest image span. One
	// atomic pointer load per store resolution when unwatched.
	watch atomic.Pointer[StoreWatch]
}

// StoreWatch counts stores into [lo, hi) at page granularity. Counters are
// bumped with sequentially-consistent ordering BEFORE the watched word is
// written, so any reader that observes a mutated word is guaranteed to
// observe a non-zero count on its next RangeCount call — the property the
// engine's publication-time pristine check relies on (DESIGN.md §13).
// Per-page counts matter because guest images interleave code and data:
// a store to a data cell only taints its own page, not every translation
// from the image.
type StoreWatch struct {
	lo, hi uint32 // watched range, page-aligned
	total  atomic.Uint64
	pages  []atomic.Uint64 // one counter per watched page
}

// Count returns how many watched stores have been observed in total.
func (w *StoreWatch) Count() uint64 {
	if w == nil {
		return 0
	}
	return w.total.Load()
}

// Contains reports whether the non-empty range [lo, hi) lies inside the
// watched span.
func (w *StoreWatch) Contains(lo, hi uint32) bool {
	return w != nil && lo < hi && lo >= w.lo && hi <= w.hi
}

// RangeCount sums watched-store counts over the pages overlapping [lo, hi).
// Addresses outside the watched span contribute 0 — callers that need
// "unwatched means unknown" must gate on Contains first.
func (w *StoreWatch) RangeCount(lo, hi uint32) uint64 {
	if w == nil || hi <= w.lo || lo >= w.hi || lo >= hi {
		return 0
	}
	if lo < w.lo {
		lo = w.lo
	}
	if hi > w.hi {
		hi = w.hi
	}
	var n uint64
	for i := (lo - w.lo) >> PageShift; i <= (hi-1-w.lo)>>PageShift; i++ {
		n += w.pages[i].Load()
	}
	return n
}

// WatchStores installs a store watch over [lo, hi) (rounded out to page
// boundaries) and returns it, replacing any previous watch. Install after
// any host-side seeding of the range (WriteWordPriv resolves as a store and
// would count) and before guest stores run: it withdraws the store
// shortcut from the watched pages, and a store racing the install could
// set it again.
func (m *Memory) WatchStores(lo, hi uint32) *StoreWatch {
	lo &^= uint32(PageMask)
	hi = (hi + PageSize - 1) &^ uint32(PageMask)
	if hi <= lo {
		hi = lo + PageSize
	}
	w := &StoreWatch{lo: lo, hi: hi, pages: make([]atomic.Uint64, (hi-lo)>>PageShift)}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.watch.Store(w)
	for a := uint64(lo); a < uint64(hi); a += PageSize {
		if l := m.dir[a>>22].Load(); l != nil {
			l.ptes[a>>PageShift&0x3ff].And(^uint64(pteStore))
		}
	}
	return w
}

// SetInjector installs a fault injector (nil to disable). Call before the
// memory is shared; the field is read without synchronization afterwards.
// The MMU has no vCPU identity, so injection rules for its sites must use
// TID 0 (any vCPU) and select by address instead. Every store shortcut is
// withdrawn, so the next store on each page consults the injector.
func (m *Memory) SetInjector(inj *faultinject.Injector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inj = inj
	for di := range m.dir {
		if l := m.dir[di].Load(); l != nil {
			for pi := range l.ptes {
				l.ptes[pi].And(^uint64(pteStore))
			}
		}
	}
}

// New creates an address space backed by at most maxBytes of physical
// memory (rounded up to whole pages).
func New(maxBytes uint32) *Memory {
	nframes := int((uint64(maxBytes) + PageSize - 1) / PageSize)
	if nframes < 1 {
		nframes = 1
	}
	return &Memory{frames: make([]*[PageWords]uint32, nframes)}
}

func (m *Memory) leafFor(addr uint32, create bool) *leaf {
	idx := addr >> 22
	l := m.dir[idx].Load()
	if l == nil && create {
		// Caller holds m.mu; publish once.
		l = new(leaf)
		m.dir[idx].Store(l)
	}
	return l
}

func (m *Memory) pte(addr uint32) uint64 {
	l := m.dir[addr>>22].Load()
	if l == nil {
		return 0
	}
	return l.ptes[addr>>PageShift&0x3ff].Load()
}

func (m *Memory) setPTE(addr uint32, v uint64) {
	m.leafFor(addr, true).ptes[addr>>PageShift&0x3ff].Store(v)
}

// makePTE builds a present entry with the dirty bit set: every structural
// change (Map, Protect, Alias, Remap) conservatively marks the page dirty
// so the next incremental snapshot re-copies its frame. Without this a
// recycled frame index could alias a stale copy in the previous snapshot.
func makePTE(frame int32, perm Perm) uint64 {
	return uint64(frame)<<pteFrameShift | uint64(perm)<<ptePermShift | pteDirty | ptePresent
}

func pteFrame(p uint64) int32 { return int32(p >> pteFrameShift) }
func ptePerm(p uint64) Perm   { return Perm(p >> ptePermShift & 0x7) }

// allocFrame returns a zeroed frame index. Caller holds m.mu.
func (m *Memory) allocFrame() (int32, error) {
	if n := len(m.freeList); n > 0 {
		f := m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
		*m.frames[f] = [PageWords]uint32{}
		return f, nil
	}
	if m.nextFrame >= len(m.frames) {
		return 0, fmt.Errorf("mmu: out of physical memory (%d frames)", len(m.frames))
	}
	f := int32(m.nextFrame)
	m.frames[f] = new([PageWords]uint32)
	m.nextFrame++
	return f, nil
}

func pageAligned(addr uint32) bool { return addr&PageMask == 0 }

// Map allocates zeroed pages covering [addr, addr+size) with the given
// permissions. addr must be page-aligned; size is rounded up to pages.
// Mapping over an existing mapping is an error.
func (m *Memory) Map(addr, size uint32, perm Perm) error {
	if !pageAligned(addr) {
		return fmt.Errorf("mmu: Map addr %#x not page-aligned", addr)
	}
	if size == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	npages := (uint64(size) + PageSize - 1) / PageSize
	for i := uint64(0); i < npages; i++ {
		a := addr + uint32(i)*PageSize
		if m.pte(a)&ptePresent != 0 {
			return fmt.Errorf("mmu: Map: page %#x already mapped", a)
		}
	}
	for i := uint64(0); i < npages; i++ {
		a := addr + uint32(i)*PageSize
		f, err := m.allocFrame()
		if err != nil {
			return err
		}
		m.setPTE(a, makePTE(f, perm))
	}
	return nil
}

// Unmap removes the mappings covering [addr, addr+size). Frames whose last
// mapping disappears are recycled; aliased frames (Alias, Remap) survive
// until their final mapping goes.
func (m *Memory) Unmap(addr, size uint32) error {
	if !pageAligned(addr) {
		return fmt.Errorf("mmu: Unmap addr %#x not page-aligned", addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	npages := (uint64(size) + PageSize - 1) / PageSize
	for i := uint64(0); i < npages; i++ {
		a := addr + uint32(i)*PageSize
		p := m.pte(a)
		if p&ptePresent == 0 {
			return fmt.Errorf("mmu: Unmap: page %#x not mapped", a)
		}
		m.setPTE(a, 0)
		f := pteFrame(p)
		if !m.frameReferenced(f) {
			m.freeList = append(m.freeList, f)
		}
	}
	return nil
}

// frameReferenced reports whether any pte still points at frame f.
// Caller holds m.mu. Linear in mapped pages; only used on Unmap.
func (m *Memory) frameReferenced(f int32) bool {
	for di := range m.dir {
		l := m.dir[di].Load()
		if l == nil {
			continue
		}
		for pi := range l.ptes {
			p := l.ptes[pi].Load()
			if p&ptePresent != 0 && pteFrame(p) == f {
				return true
			}
		}
	}
	return false
}

// Protect changes the permissions of the pages covering [addr, addr+size).
// This is the mprotect analogue; the caller is responsible for any
// stop-the-world needed for it to be race-free against running vCPUs.
func (m *Memory) Protect(addr, size uint32, perm Perm) error {
	if !pageAligned(addr) {
		return fmt.Errorf("mmu: Protect addr %#x not page-aligned", addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	npages := (uint64(size) + PageSize - 1) / PageSize
	for i := uint64(0); i < npages; i++ {
		a := addr + uint32(i)*PageSize
		p := m.pte(a)
		if p&ptePresent == 0 {
			return fmt.Errorf("mmu: Protect: page %#x not mapped", a)
		}
		m.setPTE(a, makePTE(pteFrame(p), perm))
	}
	return nil
}

// PermAt returns the permissions of the page containing addr, or 0 if the
// page is unmapped.
func (m *Memory) PermAt(addr uint32) Perm {
	p := m.pte(addr)
	if p&ptePresent == 0 {
		return 0
	}
	return ptePerm(p)
}

// Alias maps the page at dst to the same physical frame as the page at src,
// with the given permissions. dst must be unmapped. This is the
// one-frame-two-addresses building block of the paper's PST-REMAP.
func (m *Memory) Alias(dst, src uint32, perm Perm) error {
	if !pageAligned(dst) || !pageAligned(src) {
		return fmt.Errorf("mmu: Alias addresses must be page-aligned (%#x, %#x)", dst, src)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.pte(src)
	if sp&ptePresent == 0 {
		return fmt.Errorf("mmu: Alias: source page %#x not mapped", src)
	}
	if m.pte(dst)&ptePresent != 0 {
		return fmt.Errorf("mmu: Alias: destination page %#x already mapped", dst)
	}
	m.setPTE(dst, makePTE(pteFrame(sp), perm))
	return nil
}

// Remap atomically moves the page mapping at old to new (same frame, new
// permissions), leaving old unmapped — the paper's sys_mremap step. Accesses
// to old afterwards fault with FaultUnmapped (MAPERR).
func (m *Memory) Remap(old, new uint32, perm Perm) error {
	if !pageAligned(old) || !pageAligned(new) {
		return fmt.Errorf("mmu: Remap addresses must be page-aligned (%#x, %#x)", old, new)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	op := m.pte(old)
	if op&ptePresent == 0 {
		return fmt.Errorf("mmu: Remap: page %#x not mapped", old)
	}
	if m.pte(new)&ptePresent != 0 {
		return fmt.Errorf("mmu: Remap: destination page %#x already mapped", new)
	}
	// Publish the new mapping before retiring the old one so no window
	// exists where the frame is unreachable by its owner.
	m.setPTE(new, makePTE(pteFrame(op), perm))
	m.setPTE(old, 0)
	return nil
}

// resolve returns the frame and word index for a word access.
func (m *Memory) resolve(addr uint32, need Perm, access AccessKind) (*[PageWords]uint32, uint32, *Fault) {
	if addr&3 != 0 {
		return nil, 0, &Fault{Addr: addr, Kind: FaultAlign, Access: access}
	}
	l := m.dir[addr>>22].Load()
	var p uint64
	if l != nil {
		p = l.ptes[addr>>PageShift&0x3ff].Load()
	}
	if p&ptePresent == 0 {
		return nil, 0, &Fault{Addr: addr, Kind: FaultUnmapped, Access: access}
	}
	if ptePerm(p)&need != need {
		return nil, 0, &Fault{Addr: addr, Kind: FaultProtected, Access: access}
	}
	if access == AccessStore && p&pteStore == 0 {
		watched := false
		if w := m.watch.Load(); w != nil && addr >= w.lo && addr < w.hi {
			watched = true
			w.total.Add(1)
			w.pages[(addr-w.lo)>>PageShift].Add(1)
		}
		pte := &l.ptes[addr>>PageShift&0x3ff]
		switch {
		case !watched && m.inj == nil && ptePerm(p)&PermWrite != 0:
			// Publish the shortcut, and mark dirty, against the pte just
			// checked. A failed swap means the pte changed: a structural
			// change (which sets dirty itself) or a racing swap (which set
			// dirty too), and the shortcut stays off a pte nobody checked.
			pte.CompareAndSwap(p, p|pteDirty|pteStore)
		case p&pteDirty == 0:
			// Lock-free dirty marking: the Or races only with identical Ors
			// and with structural changes, which rewrite the pte wholesale
			// (and themselves set dirty), so no update is lost.
			pte.Or(pteDirty)
		}
	}
	return m.frames[pteFrame(p)], addr & PageMask / 4, nil
}

// storeShortcut returns the frame of the page containing addr when its pte
// carries the store shortcut, nil otherwise.
func (m *Memory) storeShortcut(addr uint32) *[PageWords]uint32 {
	l := m.dir[addr>>22].Load()
	if l == nil {
		return nil
	}
	p := l.ptes[addr>>PageShift&0x3ff].Load()
	if p&pteStore == 0 {
		return nil
	}
	return m.frames[pteFrame(p)]
}

// LoadWord performs a guest word load with permission checking. All word
// accesses are host-atomic, modelling a coherent memory system.
func (m *Memory) LoadWord(addr uint32) (uint32, *Fault) {
	if m.inj.Check(faultinject.OpMemLoad, 0, addr) == faultinject.ActFault {
		return 0, &Fault{Addr: addr, Kind: FaultProtected, Access: AccessLoad}
	}
	fr, wi, f := m.resolve(addr, PermRead, AccessLoad)
	if f != nil {
		return 0, f
	}
	return atomic.LoadUint32(&fr[wi]), nil
}

// StoreWord performs a guest word store with permission checking.
func (m *Memory) StoreWord(addr, val uint32) *Fault {
	if addr&3 == 0 {
		if fr := m.storeShortcut(addr); fr != nil {
			atomic.StoreUint32(&fr[addr&PageMask/4], val)
			return nil
		}
	}
	if m.inj.Check(faultinject.OpMemStore, 0, addr) == faultinject.ActFault {
		return &Fault{Addr: addr, Kind: FaultProtected, Access: AccessStore}
	}
	fr, wi, f := m.resolve(addr, PermWrite, AccessStore)
	if f != nil {
		return f
	}
	atomic.StoreUint32(&fr[wi], val)
	return nil
}

// CASWord is the host compare-and-swap primitive (the x86 cmpxchg the
// paper's schemes translate SC into). It checks write permission.
func (m *Memory) CASWord(addr, old, new uint32) (bool, *Fault) {
	fr, wi, f := m.resolve(addr, PermRW, AccessStore)
	if f != nil {
		return false, f
	}
	return atomic.CompareAndSwapUint32(&fr[wi], old, new), nil
}

// LoadByte performs a guest byte load.
func (m *Memory) LoadByte(addr uint32) (uint8, *Fault) {
	fr, wi, f := m.resolve(addr&^3, PermRead, AccessLoad)
	if f != nil {
		f.Addr = addr
		return 0, f
	}
	w := atomic.LoadUint32(&fr[wi])
	return uint8(w >> (8 * (addr & 3))), nil
}

// StoreByte performs a guest byte store: an UpdateByte, so concurrent byte
// stores to different lanes of one word do not lose updates, but no
// cross-word atomicity is implied (a regular store, not SC).
func (m *Memory) StoreByte(addr uint32, val uint8) *Fault {
	_, f := m.Update(addr, Update{Kind: UpdateByte, Operand: uint32(val)})
	return f
}

// UpdateKind is the operation of an Update.
type UpdateKind uint8

// Update kinds. The first six are the fused read-modify-writes of the
// paper's §VI rule-based translation.
const (
	UpdateAdd UpdateKind = iota
	UpdateSub
	UpdateAnd
	UpdateOr
	UpdateXor
	UpdateXchg // unconditional exchange: new value = operand
	UpdateByte // byte store: the operand's low byte replaces the addressed lane
)

var updateNames = [...]string{"add", "sub", "and", "or", "xor", "xchg", "byte"}

func (k UpdateKind) String() string {
	if int(k) < len(updateNames) {
		return updateNames[k]
	}
	return "update?"
}

// Update describes one atomic read-modify-write of a guest word: every
// write a scheme performs that is not a plain word store (fused atomics,
// byte stores) is one.
type Update struct {
	Kind    UpdateKind
	Operand uint32
}

// Apply returns the word that replaces old when u is applied at addr. Only
// UpdateByte reads addr: its low two bits pick the lane.
func (u Update) Apply(addr, old uint32) uint32 {
	switch u.Kind {
	case UpdateAdd:
		return old + u.Operand
	case UpdateSub:
		return old - u.Operand
	case UpdateAnd:
		return old & u.Operand
	case UpdateOr:
		return old | u.Operand
	case UpdateXor:
		return old ^ u.Operand
	case UpdateXchg:
		return u.Operand
	case UpdateByte:
		shift := 8 * (addr & 3)
		return old&^(0xff<<shift) | (u.Operand&0xff)<<shift
	}
	return old
}

// Update atomically applies u at addr, checking write permission, and
// returns the previous value of the word. A word update needs an aligned
// addr; a byte update applies to the word containing addr. Faults report
// addr. A word update is a guest word store, so mem-store injection rules
// apply to it as to StoreWord; byte updates stay outside injection.
func (m *Memory) Update(addr uint32, u Update) (uint32, *Fault) {
	return m.update(addr, u, PermWrite)
}

// UpdatePriv is Update without the permission check, for schemes that
// commit a store while the page is deliberately protected.
func (m *Memory) UpdatePriv(addr uint32, u Update) (uint32, *Fault) {
	return m.update(addr, u, 0)
}

func (m *Memory) update(addr uint32, u Update, need Perm) (uint32, *Fault) {
	wa := addr
	if u.Kind == UpdateByte {
		wa &^= 3
	}
	var fr *[PageWords]uint32
	if wa&3 == 0 {
		fr = m.storeShortcut(wa)
	}
	wi := wa & PageMask / 4
	if fr == nil {
		if need != 0 && u.Kind != UpdateByte && m.inj.Check(faultinject.OpMemStore, 0, addr) == faultinject.ActFault {
			return 0, &Fault{Addr: addr, Kind: FaultProtected, Access: AccessStore}
		}
		var f *Fault
		if fr, wi, f = m.resolve(wa, need, AccessStore); f != nil {
			f.Addr = addr
			return 0, f
		}
	}
	w := &fr[wi]
	if u.Kind == UpdateXchg {
		return atomic.SwapUint32(w, u.Operand), nil
	}
	for {
		old := atomic.LoadUint32(w)
		if atomic.CompareAndSwapUint32(w, old, u.Apply(addr, old)) {
			return old, nil
		}
	}
}

// FetchWord reads an instruction word, checking execute permission.
func (m *Memory) FetchWord(addr uint32) (uint32, *Fault) {
	fr, wi, f := m.resolve(addr, PermExec, AccessFetch)
	if f != nil {
		return 0, f
	}
	return atomic.LoadUint32(&fr[wi]), nil
}

// ReadWordPriv reads a word ignoring permissions (engine/debugger use).
func (m *Memory) ReadWordPriv(addr uint32) (uint32, *Fault) {
	fr, wi, f := m.resolve(addr, 0, AccessLoad)
	if f != nil {
		return 0, f
	}
	return atomic.LoadUint32(&fr[wi]), nil
}

// WriteWordPriv writes a word ignoring permissions (loader/scheme use, e.g.
// the SC commit under PST while the page is read-only to everyone else).
func (m *Memory) WriteWordPriv(addr, val uint32) *Fault {
	fr, wi, f := m.resolve(addr, 0, AccessStore)
	if f != nil {
		return f
	}
	atomic.StoreUint32(&fr[wi], val)
	return nil
}

// WriteWordsPriv writes words to consecutive addresses from addr, ignoring
// permissions: the image loader's bulk form of WriteWordPriv. The caller
// must guarantee that nothing else accesses the range meanwhile (the
// engine loads images before any vCPU exists), so each page's words are
// one copy into its frame, not one atomic store per word. It resolves each
// page once; a store watch over the range counts every word, as word-by-word
// writes would. It stops at the first fault, with the pages before it
// written.
func (m *Memory) WriteWordsPriv(addr uint32, words []uint32) *Fault {
	for len(words) > 0 {
		fr, wi, f := m.resolve(addr, 0, AccessStore)
		if f != nil {
			return f
		}
		n := copy(fr[wi:], words)
		if w := m.watch.Load(); w != nil && addr >= w.lo && addr < w.hi {
			// resolve counted the first word; the page's others land too.
			w.total.Add(uint64(n - 1))
			w.pages[(addr-w.lo)>>PageShift].Add(uint64(n - 1))
		}
		addr += uint32(n) * 4
		words = words[n:]
	}
	return nil
}

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint32) uint32 { return addr &^ PageMask }

// PageSnap records one mapped guest page: base address, permissions and
// backing frame index. Aliased pages (Alias, Remap) share a frame index,
// so alias structure survives a snapshot/restore round trip.
type PageSnap struct {
	Base  uint32
	Perm  Perm
	Frame int32
}

// Snapshot is a consistent copy of the address space: every mapped page
// plus the contents of every referenced frame. Frame slices are immutable
// once captured; incremental snapshots share them with their predecessor
// when the frame was not written in between.
type Snapshot struct {
	Pages  []PageSnap
	Frames map[int32][]uint32
	// Copied counts frames copied fresh in this snapshot (as opposed to
	// shared with prev) — observability for the incremental path.
	Copied int
}

// SnapshotPages captures the address space. prev, when non-nil, is the
// previous snapshot: frames whose pages carry no dirty bit are shared with
// it instead of re-copied. All dirty bits are cleared. The caller must
// guarantee quiescence (no concurrent guest stores); the engine takes
// snapshots inside its exclusive section.
func (m *Memory) SnapshotPages(prev *Snapshot) *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{Frames: make(map[int32][]uint32)}
	dirtyFrames := make(map[int32]bool)
	for di := range m.dir {
		l := m.dir[di].Load()
		if l == nil {
			continue
		}
		for pi := range l.ptes {
			p := l.ptes[pi].Load()
			if p&ptePresent == 0 {
				continue
			}
			base := uint32(di)<<22 | uint32(pi)<<PageShift
			f := pteFrame(p)
			s.Pages = append(s.Pages, PageSnap{Base: base, Perm: ptePerm(p), Frame: f})
			if p&pteDirty != 0 {
				dirtyFrames[f] = true
				// The shortcut goes with the dirty bit: a store through it
				// would not set dirty again, and the next incremental
				// snapshot would share a stale copy of this frame.
				l.ptes[pi].And(^uint64(pteDirty | pteStore))
			} else if _, seen := dirtyFrames[f]; !seen {
				dirtyFrames[f] = false
			}
		}
	}
	for f, dirty := range dirtyFrames {
		if !dirty && prev != nil {
			if words, ok := prev.Frames[f]; ok {
				s.Frames[f] = words
				continue
			}
		}
		words := make([]uint32, PageWords)
		copy(words, m.frames[f][:])
		s.Frames[f] = words
		s.Copied++
	}
	return s
}

// Restore rebuilds the address space from a snapshot: the page table is
// replaced wholesale and every referenced frame's contents are copied back
// in. Frames allocated after the snapshot are recycled. The snapshot
// itself is not consumed and stays valid for further restores. Like
// SnapshotPages, this requires quiescence.
//
// A non-nil return means the restore did not complete: either the snapshot
// does not fit this address space (a decoded spill from a machine with a
// larger MemBytes — validated up front, before any state is touched), or a
// fault was injected mid-rebuild (OpMemStore rules match each restored
// page's base address). After an injected mid-rebuild fault the address
// space is partial; the caller retries the restore or abandons the machine.
func (m *Memory) Restore(s *Snapshot) *Fault {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Fail-closed validation before the wipe: a snapshot referencing frames
	// beyond physical capacity (or pages with no frame contents) must not
	// destroy the current state, and must not panic the frame-array index.
	for f := range s.Frames {
		if f < 0 || int(f) >= len(m.frames) {
			return &Fault{Addr: 0, Kind: FaultUnmapped, Access: AccessStore}
		}
	}
	for _, pg := range s.Pages {
		if _, ok := s.Frames[pg.Frame]; !ok {
			return &Fault{Addr: pg.Base, Kind: FaultUnmapped, Access: AccessStore}
		}
	}
	for i := range m.dir {
		m.dir[i].Store(nil)
	}
	used := make(map[int32]bool, len(s.Frames))
	for f, words := range s.Frames {
		if m.frames[f] == nil {
			m.frames[f] = new([PageWords]uint32)
			if int(f) >= m.nextFrame {
				m.nextFrame = int(f) + 1
			}
		}
		copy(m.frames[f][:], words)
		used[f] = true
	}
	m.freeList = m.freeList[:0]
	for f := 0; f < m.nextFrame; f++ {
		if m.frames[f] != nil && !used[int32(f)] {
			m.freeList = append(m.freeList, int32(f))
		}
	}
	// makePTE marks every restored page dirty, so the next incremental
	// snapshot re-copies all frames rather than trusting pre-rollback
	// sharing.
	for _, pg := range s.Pages {
		if m.inj.Check(faultinject.OpMemStore, 0, pg.Base) == faultinject.ActFault {
			return &Fault{Addr: pg.Base, Kind: FaultProtected, Access: AccessStore}
		}
		m.setPTE(pg.Base, makePTE(pg.Frame, pg.Perm))
	}
	return nil
}
