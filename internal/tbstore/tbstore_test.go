package tbstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func key(b byte) Key {
	var k Key
	k.Image[0] = b
	k.Opts = "scheme=test"
	return k
}

func TestNilStoreIsInert(t *testing.T) {
	s := New[int](0)
	if s != nil {
		t.Fatal("New(0) should return nil")
	}
	if v := s.View(key(1)); v != nil {
		t.Fatal("nil store View should return nil")
	}
	var v *View[int]
	if _, ok := v.Get(0x1000); ok {
		t.Fatal("nil view Get should miss")
	}
	if _, won := v.Publish(0x1000, 7); won {
		t.Fatal("nil view Publish should not win")
	}
	s.NoteInvalidation()
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("nil store Stats = %+v, want zero", got)
	}
	if s.Len() != 0 {
		t.Fatal("nil store Len should be 0")
	}
}

func TestGetPublishRoundTrip(t *testing.T) {
	s := New[string](16)
	v := s.View(key(1))
	if _, ok := v.Get(0x1000); ok {
		t.Fatal("empty segment should miss")
	}
	if got, won := v.Publish(0x1000, "a"); !won || got != "a" {
		t.Fatalf("first publish: got %q won=%v", got, won)
	}
	if got, ok := v.Get(0x1000); !ok || got != "a" {
		t.Fatalf("Get after publish: got %q ok=%v", got, ok)
	}
	// Second view of the same key sees the published block.
	v2 := s.View(key(1))
	if got, ok := v2.Get(0x1000); !ok || got != "a" {
		t.Fatalf("second view Get: got %q ok=%v", got, ok)
	}
	// A different key is a different universe.
	v3 := s.View(key(2))
	if _, ok := v3.Get(0x1000); ok {
		t.Fatal("different key should not see the block")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Publishes != 1 || st.Segments != 2 || st.Blocks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublishAdoptsTheWinner(t *testing.T) {
	s := New[string](16)
	v := s.View(key(1))
	v.Publish(0x2000, "winner")
	got, won := v.Publish(0x2000, "loser")
	if won {
		t.Fatal("second publish for the same pc must lose")
	}
	if got != "winner" {
		t.Fatalf("loser must adopt the winner, got %q", got)
	}
	if st := s.Stats(); st.Publishes != 1 || st.Blocks != 1 {
		t.Fatalf("a losing publish must not count or grow the store: %+v", st)
	}
}

func TestConcurrentPublishConverges(t *testing.T) {
	s := New[int](1024)
	const goroutines = 16
	results := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := s.View(key(1))
			canonical, _ := v.Publish(0x3000, g)
			results[g] = canonical
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("publishers disagree on the canonical block: %v", results)
		}
	}
	if st := s.Stats(); st.Publishes != 1 || st.Blocks != 1 {
		t.Fatalf("exactly one publish must win: %+v", st)
	}
}

func TestEvictionIsLRUOverSegments(t *testing.T) {
	s := New[int](4)

	old := s.View(key(1))
	old.Publish(0x1000, 1)
	old.Publish(0x1004, 2)
	mid := s.View(key(2))
	mid.Publish(0x1000, 3)
	mid.Publish(0x1004, 4)
	// Re-attaching key(1) makes key(2) the least recently used.
	s.View(key(1))

	v3 := s.View(key(3))
	v3.Publish(0x1000, 5) // over the cap

	if _, ok := old.Get(0x1000); !ok {
		t.Fatal("the re-attached segment was evicted before an older one")
	}
	if _, ok := mid.Get(0x1000); ok {
		t.Fatal("the least-recently-attached segment survived past the cap")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictedBlocks != 2 || st.Blocks != 3 {
		t.Fatalf("stats = %+v, want 1 eviction of 2 blocks leaving 3", st)
	}
	if st.Segments != 2 {
		t.Fatalf("an evicted segment must leave the key map: %+v", st)
	}
}

func TestEvictionSparesThePublishingSegment(t *testing.T) {
	s := New[int](2)
	a := s.View(key(1))
	b := s.View(key(2))
	b.Publish(0x1000, 1)
	// a is the LRU segment and the one publishing past the cap: b goes.
	a.Publish(0x1000, 2)
	a.Publish(0x1004, 3)

	if st := s.Stats(); st.Blocks > 2 {
		t.Fatalf("cap not enforced: %+v", st)
	}
	if _, ok := a.Get(0x1004); !ok {
		t.Fatal("the publishing segment must be spared")
	}
	if _, ok := b.Get(0x1000); ok {
		t.Fatal("the other segment should have been evicted")
	}
}

func TestEvictedSegmentDeclinesPublishes(t *testing.T) {
	s := New[int](2)
	a := s.View(key(1))
	a.Publish(0x1000, 1)
	b := s.View(key(2))
	b.Publish(0x1000, 2)
	b.Publish(0x1004, 3) // over cap: a is evicted

	if _, ok := a.Get(0x1000); ok {
		t.Fatal("setup: a should be evicted")
	}
	// A machine still holding the evicted segment's view must not grow a
	// table the cap can no longer reach.
	if got, won := a.Publish(0x1000, 4); won || got != 4 {
		t.Fatalf("publish into an evicted segment: got %d won=%v, want the caller's block back, declined", got, won)
	}
	if _, ok := a.Get(0x1000); ok {
		t.Fatal("an evicted segment served a block")
	}
	if st := s.Stats(); st.Blocks != 2 || st.Publishes != 3 {
		t.Fatalf("a declined publish must not count: %+v", st)
	}
	// Re-attaching the key starts a fresh segment.
	a2 := s.View(key(1))
	if _, won := a2.Publish(0x1000, 5); !won {
		t.Fatal("a re-attached key must accept publishes again")
	}
}

// TestPublishCostIsLinear: publishing n blocks through one view allocates
// O(n) bytes in total (it copied the whole table per block once: 0.70 s of
// CPU per svc_open window at ~1 500 blocks a job).
func TestPublishCostIsLinear(t *testing.T) {
	bytesFor := func(n int) uint64 {
		s := New[int](1 << 20)
		v := s.View(key(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for pc := 0; pc < n; pc++ {
			v.Publish(uint32(pc)*4, pc)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytesFor(1<<10), bytesFor(1<<14)
	// 16x the blocks may cost 16x the bytes, with slack for map growth
	// steps; the quadratic table copy cost 256x.
	if large > 48*small {
		t.Fatalf("publishing 16384 blocks allocated %d bytes, 1024 blocks %d: not linear", large, small)
	}
	if perBlock := large >> 14; perBlock > 256 {
		t.Fatalf("%d bytes allocated per published block", perBlock)
	}
}

func TestInvalidationCounter(t *testing.T) {
	s := New[int](8)
	s.NoteInvalidation()
	s.NoteInvalidation()
	if st := s.Stats(); st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
}

func TestManyKeysStayBounded(t *testing.T) {
	const cap = 32
	s := New[int](cap)
	for i := 0; i < 64; i++ {
		v := s.View(key(byte(i)))
		for pc := uint32(0); pc < 8; pc++ {
			v.Publish(0x1000+4*pc, i)
		}
	}
	if got := s.Len(); got > cap {
		t.Fatalf("Len = %d, want <= %d", got, cap)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions under sustained insert pressure")
	}
	// Keys that attach and never publish are bounded by the same number.
	for i := 0; i < 4*cap; i++ {
		s.View(Key{Opts: fmt.Sprint("empty", i)})
	}
	if st := s.Stats(); st.Segments > cap {
		t.Fatalf("%d segments attached, want <= %d", st.Segments, cap)
	}
}

func TestStatsString(t *testing.T) {
	// Stats must be a plain value type usable in logs.
	s := New[int](4)
	v := s.View(key(1))
	v.Publish(0x1000, 1)
	got := fmt.Sprintf("%+v", s.Stats())
	if got == "" {
		t.Fatal("empty stats formatting")
	}
}
