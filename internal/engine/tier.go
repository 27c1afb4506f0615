package engine

import (
	"fmt"

	"atomemu/internal/htm"
	"atomemu/internal/ir"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
	"atomemu/internal/translate"
)

// This file is the fast path around the dispatch loop (ROADMAP item 1):
// direct block chaining, profile-gated tiering, and superblock promotion.
//
//   - Chaining: a localTB records its taken/fallthrough successors, so
//     stepOnce follows a committed exit straight to the next block without
//     a cache lookup. Links live in the vCPU-private tier only and die
//     with it (TB flush, scheme demotion, checkpoint restore).
//   - Tiering: with Config.Tiered, a cold block is lowered to IR but not
//     optimized, fused or extended (charged Cost.TBDecode per instruction,
//     see Machine.localFor); once its per-vCPU execution count crosses
//     HotThreshold it is re-translated as an optimized superblock
//     (translation follows unconditional branches) and the IR is published
//     on the shared TB for every vCPU to adopt. Both forms are ir.Blocks
//     run by execBlock, so a block's effect and its per-op charges are the
//     same in either; only the optimizer's savings differ, which is the
//     point of promoting.

// localTB is one vCPU's private view of a TB: the resolved executable form
// plus the direct-chaining links to its successors. Everything here is
// single-goroutine state; dropping the localTBs map (TB-cache flush,
// demotion, restore) drops the chain links with it.
type localTB struct {
	tb    *TB
	start uint32
	block *ir.Block // promoted (or only) IR; nil while the block runs in its cold form
	execs uint32    // cold executions by this vCPU, drives promotion
	taken *localTB  // successor after a taken/direct exit
	fall  *localTB  // successor after a fallthrough exit
}

// exitOutcome classifies how a block ended, for chaining: only direct
// exits (whose target is a static property of the block) may be chained.
type exitOutcome uint8

const (
	exitNone  exitOutcome = iota // indirect, syscall, halt, yield, fault
	exitTaken                    // direct jump or taken conditional branch
	exitFall                     // untaken conditional branch
)

// link returns the chain successor recorded for outcome o, if any.
func (lt *localTB) link(o exitOutcome) *localTB {
	if o == exitTaken {
		return lt.taken
	}
	return lt.fall
}

// setLink records the chain successor for outcome o. Valid because a direct
// exit's target is determined by the block form alone; any change of form
// (promotion, IR adoption) resets the links first.
func (lt *localTB) setLink(o exitOutcome, next *localTB) {
	if o == exitTaken {
		lt.taken = next
	} else {
		lt.fall = next
	}
}

// abortOpenTxn aborts an open transaction before emulation work that the
// paper's interference model says cannot survive inside one (translation,
// promotion): QEMU's translator touches shared emulator state.
func (c *CPU) abortOpenTxn(pc uint32) {
	if txn := c.mon.Txn; txn != nil && !txn.Done() {
		txn.AbortNow(htm.ReasonEmulation)
		c.st.HTMAborts++
		c.ring.Emit(obs.EvHTMAbort, pc, uint64(htm.ReasonEmulation))
		c.charge(stats.CompHTM, c.m.cfg.Cost.HTMAbort)
	}
}

// fetcher adapts the MMU's instruction fetch for the translator.
func (m *Machine) fetcher() translate.FetchFunc {
	return func(addr uint32) (uint32, error) {
		w, f := m.mem.FetchWord(addr)
		if f != nil {
			return 0, f
		}
		return w, nil
	}
}

// promote re-translates a hot cold-form block as an optimized superblock
// and publishes the IR on its shared TB. The first promoter wins the
// publish; a racer adopts the published block but still pays for the
// translation work it did (mirroring the TB-cache race-discard account).
func (m *Machine) promote(c *CPU, lt *localTB) error {
	opts := m.topts
	opts.FollowUncond = true
	opts.MaxGuestInstrs = translate.DefaultSuperblockInstrs
	block, err := translate.Block(m.fetcher(), lt.start, opts)
	if err != nil {
		return err
	}
	c.st.TBTranslations++
	c.st.TierPromotions++
	c.charge(stats.CompTBTranslate, m.cfg.Cost.TBTranslate*uint64(block.GuestLen))
	if m.sharedView != nil && !m.sharedSpanClean(block.GuestLo, block.GuestHi) {
		// The TB may be resident in (or adopted from) the cross-job store,
		// and this superblock read guest pages that have been stored to:
		// publishing it on the shared TB object would leak a mutated-code
		// translation to pristine machines. Keep the IR vCPU-private.
		lt.block = block
		lt.taken, lt.fall = nil, nil
		c.ring.Emit(obs.EvTierPromote, lt.start, uint64(lt.execs))
		return nil
	}
	// Widen the TB's guest cover and sensitivity before the IR publishes,
	// so any reader that adopts the superblock also sees metadata covering
	// it (shared-store span checks, demotion retention).
	lt.tb.noteBlock(block)
	if !lt.tb.ir.CompareAndSwap(nil, block) {
		c.st.TBRaceDiscards++
	}
	lt.block = lt.tb.ir.Load()
	// The superblock's terminator need not match the cold block's;
	// stale links would chain to the wrong successor.
	lt.taken, lt.fall = nil, nil
	c.ring.Emit(obs.EvTierPromote, lt.start, uint64(lt.execs))
	return nil
}

// truncatedBlock one-off translates the block at pc capped to n guest
// instructions, bypassing both cache tiers: it exists only to clamp the
// final block of a MaxGuestInstrs-bounded run, and caching it would poison
// the caches with an artificially short block. Fusion is disabled because
// a fused LL/SC loop consumes several guest instructions as one unit and
// could punch through the cap; the remainder of a cold block stays
// unoptimized like the block it stands in for.
func (m *Machine) truncatedBlock(c *CPU, pc uint32, n int, cold bool) (*ir.Block, error) {
	opts := m.topts
	opts.MaxGuestInstrs = n
	opts.FuseAtomics = false
	opts.FollowUncond = false
	if cold {
		opts.Optimize = false
	}
	block, err := translate.Block(m.fetcher(), pc, opts)
	if err != nil {
		return nil, err
	}
	c.charge(stats.CompTBTranslate, m.cfg.Cost.TBTranslate*uint64(block.GuestLen))
	return block, nil
}

// exec runs one resolved block through execBlock, the only code that gives
// a guest instruction meaning: the optimized IR when the block has been
// promoted, otherwise its cold form. Cold executions are counted toward
// promotion; IR published by another vCPU's promotion is adopted first.
func (c *CPU) exec(lt *localTB) exitOutcome {
	if lt.block == nil {
		if b := lt.tb.ir.Load(); b != nil {
			lt.block = b
			lt.taken, lt.fall = nil, nil
		} else if lt.execs++; lt.execs >= c.m.hotThreshold {
			c.abortOpenTxn(lt.start)
			if err := c.m.promote(c, lt); err != nil {
				c.fail(fmt.Errorf("engine: tid %d: %w", c.tid, err))
				return exitNone
			}
		}
	}
	b, cold := lt.block, lt.block == nil
	if cold {
		b = lt.tb.cold
		c.st.InterpBlocks++
	}
	if max := c.m.cfg.MaxGuestInstrs; max > 0 {
		if remain := max - c.st.GuestInstrs; uint64(b.GuestLen) > remain {
			// Fewer guest instructions remain in the budget than the
			// block holds: run a one-off translation of just the
			// remainder so the overshoot stays bounded (the dispatch
			// loop fails the run at the next block boundary).
			tb, err := c.m.truncatedBlock(c, b.Start, int(remain), cold)
			if err != nil {
				c.fail(fmt.Errorf("engine: tid %d: %w", c.tid, err))
				return exitNone
			}
			b = tb
		}
	}
	return c.execBlock(b)
}
