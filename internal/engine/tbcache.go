package engine

import (
	"sync"
	"sync/atomic"
)

// tbCache is the machine-wide shared translation-block cache.
//
// It is the engine's answer to the contention the paper measures on QEMU's
// shared emulator state (§III): with a single mutex around the TB map,
// every shared-cache miss serializes all vCPUs behind the translator, and
// even hits pay a lock handoff. Here the cache is split into power-of-two
// shards, each holding an atomic pointer to an immutable map snapshot:
//
//   - Hits are one atomic load plus one read of an immutable map — no
//     locks, no stores, so concurrent lookups never contend.
//   - Misses translate OUTSIDE any critical section; only publishing the
//     finished block takes the shard's writer mutex, which copies the
//     snapshot, adds the entry, and swaps the pointer (copy-on-write).
//     Misses on different PCs therefore translate in parallel.
//   - Racing misses on the SAME pc both translate, but the first publisher
//     wins: insert re-checks under the shard lock and the loser adopts the
//     winner's *TB, so a given pc always resolves to one canonical block.
//
// Copy-on-write is the right trade here because the working set is
// append-only and small (TBs are never invalidated — see the package
// comment on self-modifying code) while lookups run once per executed
// block on every vCPU.
const (
	tbShardBits = 6
	tbShardNum  = 1 << tbShardBits
)

type tbMap = map[uint32]*TB

type tbShard struct {
	snap atomic.Pointer[tbMap] // immutable; replaced wholesale on insert
	mu   sync.Mutex            // serializes writers only; readers never take it
	// pad spaces shards a cache line apart so snapshot swaps on one shard
	// don't false-share with hot lookups on a neighbour.
	_ [40]byte
}

type tbCache struct {
	shards [tbShardNum]tbShard
}

// shard hashes a block-start pc to its shard. Fibonacci hashing on the word
// address spreads the arithmetic progressions typical of block starts.
func (c *tbCache) shard(pc uint32) *tbShard {
	return &c.shards[(pc>>2)*2654435761>>(32-tbShardBits)]
}

// get returns the block cached for pc, or nil. Lock-free: one atomic load.
func (c *tbCache) get(pc uint32) *TB {
	if m := c.shard(pc).snap.Load(); m != nil {
		return (*m)[pc]
	}
	return nil
}

// insert publishes tb for pc and returns the canonical block: tb itself if
// this call won, or the already-published block if another vCPU raced us
// here first (won=false; the caller's translation is discarded).
func (c *tbCache) insert(pc uint32, tb *TB) (canonical *TB, won bool) {
	s := c.shard(pc)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap.Load()
	if old != nil {
		if existing := (*old)[pc]; existing != nil {
			return existing, false
		}
	}
	next := make(tbMap, lenOrZero(old)+1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[pc] = tb
	s.snap.Store(&next)
	return tb, true
}

// retain keeps only the blocks keep approves — what scheme demotion does
// when it changes the translation options: translations that are invariant
// under the instrumentation change survive, so vCPUs do not re-pay
// decode+translate+optimize for pure-compute blocks, while a block
// translated without store instrumentation (wrong for a scheme that
// requires it) is dropped. Callers must still clear per-vCPU local caches.
func (c *tbCache) retain(keep func(*TB) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if old := s.snap.Load(); old != nil {
			next := make(tbMap, len(*old))
			for pc, tb := range *old {
				if keep(tb) {
					next[pc] = tb
				}
			}
			if len(next) == 0 {
				s.snap.Store(nil)
			} else {
				s.snap.Store(&next)
			}
		}
		s.mu.Unlock()
	}
}

// len counts cached blocks across all shards (tests and stats reporting).
func (c *tbCache) len() int {
	n := 0
	for i := range c.shards {
		if m := c.shards[i].snap.Load(); m != nil {
			n += len(*m)
		}
	}
	return n
}

func lenOrZero(m *tbMap) int {
	if m == nil {
		return 0
	}
	return len(*m)
}
