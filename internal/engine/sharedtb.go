package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"atomemu/internal/asm"
	"atomemu/internal/ir"
	"atomemu/internal/tbstore"
)

// This file is the machine side of the cross-job translation store
// (internal/tbstore): key derivation, attachment, and the store-watch
// pristine checks that keep shared blocks sound against self-modifying
// guest code. See DESIGN.md §13.

// ImageKey content-addresses an assembled image: sha256 over its origin,
// entry point and words. Machines whose images hash equal and whose
// translation options match (sharedOptsKey) produce interchangeable
// translation blocks.
func ImageKey(im *asm.Image) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:], im.Org)
	binary.LittleEndian.PutUint32(buf[4:], im.Entry)
	h.Write(buf[:])
	for _, w := range im.Words {
		binary.LittleEndian.PutUint32(buf[:4], w)
		h.Write(buf[:4])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// sharedOptsKey canonically describes everything that changes what a
// translation block means: scheme identity (demotion swaps the scheme, so
// a demoted machine naturally re-keys), instrumentation flags, the block
// cap (one instruction under StepMode and TraceWriter), the optimizer,
// fusion, and the tier/chain configuration. Kept as a full descriptor
// string so key equality is exact.
func (m *Machine) sharedOptsKey() string {
	o := m.topts
	return fmt.Sprintf("scheme=%s st=%t ld=%t max=%d opt=%t fuse=%t tier=%t hot=%d chain=%d",
		m.scheme.Name(), o.InstrumentStores, o.InstrumentLoads, o.MaxGuestInstrs,
		o.Optimize, o.FuseAtomics, m.tiered, m.hotThreshold, m.chainBudget)
}

// attachSharedTB derives the machine's keyed view of the process-wide
// store from the image LoadImage just seeded and installs the store watch
// over the image's words. Must run after host-side image seeding
// (WriteWordPriv resolves as a store and would count) and before guest
// execution starts; the first image loaded keeps the attachment.
func (m *Machine) attachSharedTB(im *asm.Image) {
	st := m.cfg.SharedTBStore
	if st == nil || m.sharedView != nil || im.Size() == 0 {
		return
	}
	m.sharedImage = ImageKey(im)
	m.sharedView = st.View(tbstore.Key{Image: m.sharedImage, Opts: m.sharedOptsKey()})
	m.sharedWatch = m.mem.WatchStores(im.Org, im.Org+im.Size())
}

// rekeySharedTB re-derives the view after demoteScheme changed the
// translation options: post-demotion translations belong to the demoted
// key's universe, so the machine gets a clean keyed view instead of
// poisoning (or being poisoned by) the un-demoted one. Runs only while the
// machine is quiesced (restore owns all vCPUs).
func (m *Machine) rekeySharedTB() {
	if m.sharedView == nil {
		return
	}
	m.sharedView = m.cfg.SharedTBStore.View(tbstore.Key{Image: m.sharedImage, Opts: m.sharedOptsKey()})
}

// ImageMutated reports whether any guest store has landed in the watched
// image span (false when no watch is installed).
func (m *Machine) ImageMutated() bool {
	return m.sharedWatch.Count() != 0
}

// sharedSpanClean reports whether the guest range [lo, hi) lies inside the
// watched image span and none of its pages has seen a guest store. The
// store-watch counter is bumped before the mutating word is written
// (mmu.StoreWatch), so a translation that read a mutated word can never
// pass a clean check performed after the translation finished. Page
// granularity keeps data-writing programs shareable: a store to a data
// cell only taints its own page, not the whole image.
func (m *Machine) sharedSpanClean(lo, hi uint32) bool {
	return m.sharedWatch.Contains(lo, hi) && m.sharedWatch.RangeCount(lo, hi) == 0
}

// tbSpan returns the conservative guest address cover of a TB's
// translation inputs.
func (tb *TB) tbSpan() (lo, hi uint32) {
	return tb.lo.Load(), tb.hi.Load()
}

// widenSpan grows the TB's cover monotonically (promotion replaces a
// block's IR with a superblock spanning more guest code; the bounds must
// be published before the new IR so any reader that sees the superblock
// also sees its full cover).
func (tb *TB) widenSpan(lo, hi uint32) {
	for {
		cur := tb.lo.Load()
		if lo >= cur || tb.lo.CompareAndSwap(cur, lo) {
			break
		}
	}
	for {
		cur := tb.hi.Load()
		if hi <= cur || tb.hi.CompareAndSwap(cur, hi) {
			break
		}
	}
}

// Instrumentation-sensitivity bits carried on each TB (see tbCache.retain).
const (
	sensStores = 1 << 0
	sensLoads  = 1 << 1
)

func sensOf(hasStores, hasLoads bool) uint32 {
	var s uint32
	if hasStores {
		s |= sensStores
	}
	if hasLoads {
		s |= sensLoads
	}
	return s
}

// compatibleAfter reports whether this TB's translation is unchanged by an
// instrumentation transition: a block with no plain stores translates
// identically whether or not stores are instrumented, and likewise for
// loads. Exactly the predicate scheme demotion retains by.
func (tb *TB) compatibleAfter(oldStores, newStores, oldLoads, newLoads bool) bool {
	s := tb.sens.Load()
	if oldStores != newStores && s&sensStores != 0 {
		return false
	}
	if oldLoads != newLoads && s&sensLoads != 0 {
		return false
	}
	return true
}

// noteBlock records an IR block's span and sensitivity on the TB; called
// before the block's IR is (or could be) published so readers of the IR
// always see covering metadata.
func (tb *TB) noteBlock(block *ir.Block) {
	tb.widenSpan(block.GuestLo, block.GuestHi)
	tb.sens.Or(sensOf(block.HasStores, block.HasLoads))
}
