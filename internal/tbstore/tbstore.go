// Package tbstore is the process-wide content-addressed translation store:
// the cross-job answer to the per-Machine TB cache in internal/engine.
//
// Every atomemud job used to retranslate its guest image from scratch even
// when the fleet serves millions of repeat submissions of the same image —
// the sharded engine cache dies with its Machine. Here translations are
// keyed by *content*: a Key is the sha256 of the guest image span plus a
// canonical descriptor of everything that changes what a translation means
// (scheme, instrumentation options, tier/chain configuration). Two machines
// with equal keys are guaranteed to produce interchangeable blocks, so the
// first machine attached pays decode+translate+optimize and every later one
// for the same image starts warm.
//
// Each key's segment is a pc→block table behind a read-write lock: a lookup
// takes the read side, a publication the write side and one map insert, so
// publishing a job's n blocks costs O(n) in total. Publication has
// adopt-the-winner semantics — racing publishers for the same pc converge
// on one canonical block, exactly like the engine's tbCache.insert. A
// machine consults the store at most once per pc and vCPU, so the read lock
// is nowhere near a hot path.
//
// Memory is bounded by a block cap with LRU eviction at segment
// granularity: past the cap the least-recently-attached segments are
// dropped whole, the publishing one spared. There is no probation queue to
// keep one-shot images from washing out the hot set, because one-shot
// images never get here: the server attaches a machine only to a key it has
// seen before (server.sightings, DESIGN.md §13), so probation is a
// remembered key, not a segment full of blocks.
//
// The store never invalidates entries itself: publication is guarded on the
// engine side by an MMU store-watch over the image span, so a segment only
// ever contains blocks translated from pristine image bytes (see
// DESIGN.md §13). Machines that mutate their code span detach from their
// view and count an invalidation here.
package tbstore

import (
	"sync"
	"sync/atomic"
)

// Key identifies one translation universe. Two machines whose Keys are
// equal translate identically, byte for byte.
type Key struct {
	// Image is the sha256 of the guest image span (org, entry, words).
	Image [32]byte
	// Opts is the canonical descriptor of the translation configuration:
	// scheme name, instrumentation flags, block caps, tiering and fusion
	// knobs. Kept as the full descriptor string rather than a digest so a
	// key match is exact — there is no fingerprint collision to fall back
	// from.
	Opts string
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits          uint64 // segment lookups that returned a block
	Misses        uint64 // segment lookups that found nothing
	Publishes     uint64 // blocks published (publish races excluded)
	Evictions     uint64 // segments dropped by the cap
	EvictedBlocks uint64 // blocks dropped by those evictions
	Invalidations uint64 // machines that detached after mutating their code span
	Segments      int    // keys currently attached (live map size)
	Blocks        int    // blocks currently cached across all segments
}

// Store is a bounded content-addressed block store, generic over the block
// type so the engine can instantiate it with its own *TB without an import
// cycle. The zero Store is not usable; construct with New. A nil *Store is
// valid and inert (View returns nil).
type Store[V any] struct {
	maxBlocks int

	hits          atomic.Uint64
	misses        atomic.Uint64
	publishes     atomic.Uint64
	evictions     atomic.Uint64
	evictedBlocks atomic.Uint64
	invalidations atomic.Uint64
	blocks        atomic.Int64

	// mu guards the key map and the segments' recency. Lock order: mu before
	// any segment.mu (eviction); Get/Publish never hold a segment.mu while
	// taking mu.
	mu   sync.Mutex
	segs map[Key]*segment[V]
	tick uint64
}

type segment[V any] struct {
	mu      sync.RWMutex
	blocks  map[uint32]V
	evicted bool // dropped from the store: holds nothing, accepts nothing

	lastUse uint64 // guarded by Store.mu
}

// New builds a store capped at maxBlocks cached blocks. maxBlocks <= 0
// returns nil: a disabled store that every View call treats as absent.
func New[V any](maxBlocks int) *Store[V] {
	if maxBlocks <= 0 {
		return nil
	}
	return &Store[V]{
		maxBlocks: maxBlocks,
		segs:      make(map[Key]*segment[V]),
	}
}

// View attaches to the segment for k, creating it on first attach, and
// marks it the most recently used. Returns nil on a nil store.
func (s *Store[V]) View(k Key) *View[V] {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	seg := s.segs[k]
	if seg == nil {
		seg = &segment[V]{blocks: make(map[uint32]V)}
		s.segs[k] = seg
		// Segments that never received a block (every page of their image
		// dirty) are not reached by the block cap; the same number bounds
		// the key map.
		if len(s.segs) > s.maxBlocks {
			s.dropLRU(seg)
		}
	}
	seg.lastUse = s.tick
	return &View[V]{st: s, seg: seg}
}

// NoteInvalidation records a machine detaching from its view after
// observing a guest store into its translated span.
func (s *Store[V]) NoteInvalidation() {
	if s != nil {
		s.invalidations.Add(1)
	}
}

// Stats snapshots the counters.
func (s *Store[V]) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	nseg := len(s.segs)
	s.mu.Unlock()
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Publishes:     s.publishes.Load(),
		Evictions:     s.evictions.Load(),
		EvictedBlocks: s.evictedBlocks.Load(),
		Invalidations: s.invalidations.Load(),
		Segments:      nseg,
		Blocks:        int(s.blocks.Load()),
	}
}

// Len reports the cached block count (approximate while publishers race).
func (s *Store[V]) Len() int {
	if s == nil {
		return 0
	}
	return int(s.blocks.Load())
}

// View is one machine's handle on its key's segment. Methods are safe for
// concurrent use by the machine's vCPUs; a nil *View is inert. A view
// outlives its segment's eviction: it then misses every lookup and its
// publications are declined, until the machine's successor re-attaches.
type View[V any] struct {
	st  *Store[V]
	seg *segment[V]
}

// Get returns the block published for pc, if any.
func (v *View[V]) Get(pc uint32) (V, bool) {
	if v == nil {
		var zero V
		return zero, false
	}
	v.seg.mu.RLock()
	val, ok := v.seg.blocks[pc]
	v.seg.mu.RUnlock()
	if ok {
		v.st.hits.Add(1)
	} else {
		v.st.misses.Add(1)
	}
	return val, ok
}

// Publish offers val for pc and returns the canonical block: val itself if
// this call won, or the already-published block if another machine raced us
// here first (won=false) — the same adopt-the-winner contract as the
// engine's tbCache.insert, lifted across machines. One map insert under the
// segment's lock; a publication into an evicted segment is declined.
func (v *View[V]) Publish(pc uint32, val V) (canonical V, won bool) {
	if v == nil {
		return val, false
	}
	seg := v.seg
	seg.mu.Lock()
	existing, taken := seg.blocks[pc]
	declined := taken || seg.evicted
	if !declined {
		seg.blocks[pc] = val
	}
	seg.mu.Unlock()
	if taken {
		return existing, false
	}
	if declined {
		return val, false
	}

	v.st.publishes.Add(1)
	if v.st.blocks.Add(1) > int64(v.st.maxBlocks) {
		v.st.evict(seg)
	}
	return val, true
}

// evict drops least-recently-attached segments until the store is back
// under its block cap. The segment that triggered the eviction is spared
// (it is by definition in use).
func (s *Store[V]) evict(keep *segment[V]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.blocks.Load() > int64(s.maxBlocks) && s.dropLRU(keep) {
	}
}

// dropLRU evicts the least-recently-attached segment other than keep,
// reporting whether there was one. s.mu held.
func (s *Store[V]) dropLRU(keep *segment[V]) bool {
	var victimKey Key
	var victim *segment[V]
	for k, seg := range s.segs {
		if seg != keep && (victim == nil || seg.lastUse < victim.lastUse) {
			victimKey, victim = k, seg
		}
	}
	if victim == nil {
		return false
	}
	delete(s.segs, victimKey)
	victim.mu.Lock()
	n := len(victim.blocks)
	victim.blocks, victim.evicted = nil, true
	victim.mu.Unlock()
	s.blocks.Add(-int64(n))
	s.evictions.Add(1)
	s.evictedBlocks.Add(uint64(n))
	return true
}
