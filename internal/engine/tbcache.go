package engine

import "sync"

// tbCache is the machine-wide shared translation-block cache.
//
// It is the engine's answer to the contention the paper measures on QEMU's
// shared emulator state (§III): with a single mutex around the TB map,
// every shared-cache miss would serialize all vCPUs behind the translator.
// Here the cache is split into power-of-two shards, each a plain map behind
// its own mutex:
//
//   - Misses translate OUTSIDE any critical section; only publishing the
//     finished block takes the shard's mutex, for one map write. Misses on
//     different PCs therefore translate in parallel, and publishing a
//     machine's n blocks costs O(n) in total.
//   - Racing misses on the SAME pc both translate, but the first publisher
//     wins: insert re-checks under the shard lock and the loser adopts the
//     winner's *TB, so a given pc always resolves to one canonical block.
//
// A lookup takes the shard mutex too. That is cheap because get is never on
// the dispatch hot path: each vCPU's jump cache and private localTBs map
// absorb every repeat lookup, so a vCPU reaches this cache at most once per
// pc (and again only after scheme demotion clears its local caches).
// Lock-free reads through copy-on-write snapshots would buy nothing at one
// lookup per pc and vCPU, and cloning a shard's table on every insert makes
// cold translation quadratic in the block count.
const (
	tbShardBits = 6
	tbShardNum  = 1 << tbShardBits
)

type tbShard struct {
	mu  sync.Mutex
	tbs map[uint32]tbEntry
	// pad spaces shards a cache line apart so lock traffic on one shard
	// doesn't false-share with a neighbour.
	_ [48]byte
}

// tbEntry is a published block and its ready time: the virtual clock of
// the vCPU that published it, translation paid.
type tbEntry struct {
	tb    *TB
	ready uint64
}

type tbCache struct {
	shards [tbShardNum]tbShard
}

// shard hashes a block-start pc to its shard. Fibonacci hashing on the word
// address spreads the arithmetic progressions typical of block starts.
func (c *tbCache) shard(pc uint32) *tbShard {
	return &c.shards[(pc>>2)*2654435761>>(32-tbShardBits)]
}

// get returns the block cached for pc, or nil.
func (c *tbCache) get(pc uint32) *TB {
	tb, _ := c.lookup(pc)
	return tb
}

// lookup returns the block cached for pc, or nil, and its ready time.
func (c *tbCache) lookup(pc uint32) (*TB, uint64) {
	s := c.shard(pc)
	s.mu.Lock()
	e := s.tbs[pc]
	s.mu.Unlock()
	return e.tb, e.ready
}

// insert publishes tb for pc, ready at virtual time ready, and returns the
// canonical block: tb itself if this call won, or the already-published
// block if another vCPU raced us here first (won=false; the caller's
// translation is discarded).
func (c *tbCache) insert(pc uint32, tb *TB, ready uint64) (canonical *TB, won bool) {
	s := c.shard(pc)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.tbs[pc].tb; existing != nil {
		return existing, false
	}
	if s.tbs == nil {
		s.tbs = make(map[uint32]tbEntry)
	}
	s.tbs[pc] = tbEntry{tb, ready}
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
		for pc, e := range s.tbs {
			if !keep(e.tb) {
				delete(s.tbs, pc)
			}
		}
		s.mu.Unlock()
	}
}

// len counts cached blocks across all shards (tests and stats reporting).
func (c *tbCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.tbs)
		s.mu.Unlock()
	}
	return n
}
