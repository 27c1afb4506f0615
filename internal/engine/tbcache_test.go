package engine

import (
	"runtime"
	"sync"
	"testing"

	"atomemu/internal/stats"
)

// TestTBCacheRacingMissesYieldOneTB races get-or-insert on overlapping PCs
// from many goroutines: every racer must end up with the identical *TB per
// pc (the first published block is canonical), and the cache must hold
// exactly one entry per pc. Run under -race this also proves publication
// is data-race free.
func TestTBCacheRacingMissesYieldOneTB(t *testing.T) {
	const goroutines = 8
	const npcs = 64
	var cache tbCache
	pcs := make([]uint32, npcs)
	for i := range pcs {
		pcs[i] = 0x10000 + uint32(i)*4
	}
	var results [goroutines][npcs]*TB
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range pcs {
				// Stagger the visit order per goroutine so different PCs
				// race at different times.
				idx := (i*7 + g*13) % npcs
				pc := pcs[idx]
				tb := cache.get(pc)
				if tb == nil {
					tb, _ = cache.insert(pc, &TB{}, 0)
				}
				results[g][idx] = tb
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for i, pc := range pcs {
		want := cache.get(pc)
		if want == nil {
			t.Fatalf("pc %#x missing after racing inserts", pc)
		}
		for g := 0; g < goroutines; g++ {
			if results[g][i] != want {
				t.Fatalf("goroutine %d got a different *TB for pc %#x", g, pc)
			}
		}
	}
	if n := cache.len(); n != npcs {
		t.Fatalf("cache holds %d blocks, want %d", n, npcs)
	}
}

// TestTBCacheInsertCostIsLinear: inserting n blocks allocates O(n) bytes
// in total. Each insert used to clone its shard's whole table, which made
// a cold job's translation quadratic in its block count.
func TestTBCacheInsertCostIsLinear(t *testing.T) {
	tb := &TB{}
	bytesFor := func(n int) uint64 {
		var c tbCache
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for pc := 0; pc < n; pc++ {
			c.insert(uint32(pc)*4, tb, 0)
		}
		runtime.ReadMemStats(&after)
		if c.len() != n {
			t.Fatalf("cache holds %d blocks, want %d", c.len(), n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytesFor(1<<10), bytesFor(1<<14)
	// 16x the blocks may cost 16x the bytes, with slack for map growth
	// steps; the per-insert table copy cost 256x.
	if large > 48*small {
		t.Fatalf("inserting 16384 blocks allocated %d bytes, 1024 blocks %d: not linear", large, small)
	}
	if perBlock := large >> 14; perBlock > 256 {
		t.Fatalf("%d bytes allocated per inserted block", perBlock)
	}
}

// TestTBForRacingTranslationsAgree drives the real miss path: host
// goroutines with their own vCPUs race m.tbFor on the same block starts.
// Everyone must resolve each pc to the same block, and the translation
// counters must balance — one winner per pc, every extra translation
// recorded as a race discard.
func TestTBForRacingTranslationsAgree(t *testing.T) {
	im := buildImage(t, counterProgram)
	m := newTestMachine(t, "pico-cas", im)
	const goroutines = 8
	const npcs = 8 // the first 8 instruction starts of the program
	pcs := make([]uint32, npcs)
	for i := range pcs {
		pcs[i] = im.Org + uint32(i)*4
	}
	cpus := make([]*CPU, goroutines)
	for i := range cpus {
		cpus[i] = newCPU(m, uint32(i+1))
	}
	var results [goroutines][npcs]*TB
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range pcs {
				idx := (i*5 + g*3) % npcs
				tb, err := m.tbFor(cpus[g], pcs[idx])
				if err != nil {
					t.Error(err)
					return
				}
				results[g][idx] = tb
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := range pcs {
		want := results[0][i]
		for g := 1; g < goroutines; g++ {
			if results[g][i] != want {
				t.Fatalf("goroutine %d resolved pc %#x to a different block", g, pcs[i])
			}
		}
	}
	var translations, discards uint64
	for _, c := range cpus {
		translations += c.st.TBTranslations
		discards += c.st.TBRaceDiscards
	}
	if translations-discards != npcs {
		t.Fatalf("translation accounting: %d translations, %d discards, want %d winners",
			translations, discards, npcs)
	}
	if n := m.tbs.len(); n != npcs {
		t.Fatalf("shared cache holds %d blocks, want %d", n, npcs)
	}
	// Cycle attribution: translation work belongs to CompTBTranslate for
	// every vCPU that translated — including racers whose block lost the
	// publish and was discarded — and never folds into CompNative (the old
	// mis-attribution this PR fixes). No block was executed here, so the
	// native component must stay zero everywhere.
	for _, c := range cpus {
		if c.st.TBTranslations > 0 && c.st.Cycles[stats.CompTBTranslate] == 0 {
			t.Errorf("tid %d translated %d blocks (%d discarded) but charged no tb_translate cycles",
				c.tid, c.st.TBTranslations, c.st.TBRaceDiscards)
		}
		if c.st.Cycles[stats.CompNative] != 0 {
			t.Errorf("tid %d: translation leaked %d cycles into the native component",
				c.tid, c.st.Cycles[stats.CompNative])
		}
	}
}

// TestTBCacheLocalHitSkipsShared: after the first lookup the block is in
// the vCPU-local cache and the shared-lookup counter stops moving.
func TestTBCacheLocalHitSkipsShared(t *testing.T) {
	im := buildImage(t, counterProgram)
	m := newTestMachine(t, "pico-cas", im)
	c := newCPU(m, 1)
	for i := 0; i < 3; i++ {
		if _, err := m.tbFor(c, im.Org); err != nil {
			t.Fatal(err)
		}
	}
	if c.st.TBSharedLookups != 1 {
		t.Fatalf("shared lookups = %d, want 1 (local cache must absorb repeats)", c.st.TBSharedLookups)
	}
	if c.st.TBTranslations != 1 {
		t.Fatalf("translations = %d, want 1", c.st.TBTranslations)
	}
}
