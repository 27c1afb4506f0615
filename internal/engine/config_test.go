package engine

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"atomemu/internal/hashtab"
)

// TestNewMachineKeepsPartialConfig: a Config that sets some fields but not
// MemBytes must keep every caller-set field and only fill the zero-valued
// sizing fields from DefaultConfig. (NewMachine used to swap in
// DefaultConfig wholesale, silently discarding HashBits, FuseAtomics,
// NoOptimize, TraceWriter, ….)
func TestNewMachineKeepsPartialConfig(t *testing.T) {
	tw := &bytes.Buffer{}
	cfg := Config{
		Scheme:         "hst",
		HashBits:       6,
		FuseAtomics:    true,
		NoOptimize:     true,
		TraceWriter:    tw,
		MaxGuestInstrs: 123,
		StepMode:       true,
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig("hst")

	if m.cfg.HashBits != 6 {
		t.Errorf("HashBits = %d, want the caller's 6", m.cfg.HashBits)
	}
	if !m.cfg.FuseAtomics || !m.cfg.NoOptimize {
		t.Error("FuseAtomics/NoOptimize flags were discarded")
	}
	if m.cfg.TraceWriter != tw {
		t.Error("TraceWriter was discarded")
	}
	if m.cfg.MaxGuestInstrs != 123 || !m.cfg.StepMode {
		t.Error("MaxGuestInstrs/StepMode were discarded")
	}
	// Zero-valued sizing fields are filled from the defaults.
	if m.cfg.MemBytes != def.MemBytes {
		t.Errorf("MemBytes = %d, want default %d", m.cfg.MemBytes, def.MemBytes)
	}
	if m.cfg.MaxThreads != def.MaxThreads {
		t.Error("MaxThreads not defaulted")
	}
	if m.cfg.Cost != def.Cost {
		t.Error("Cost model not defaulted")
	}
	// The kept options must actually reach the translator.
	if !m.topts.FuseAtomics {
		t.Error("FuseAtomics did not reach translate.Options")
	}
	if m.topts.Optimize {
		t.Error("NoOptimize did not reach translate.Options")
	}
}

// TestNewMachineExplicitFieldsUntouched: fully-specified configs pass
// through unchanged.
func TestNewMachineExplicitFieldsUntouched(t *testing.T) {
	cfg := DefaultConfig("pico-cas")
	cfg.MemBytes = 8 << 20
	cfg.MaxThreads = 3
	cfg.HashBits = 7
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.MemBytes != 8<<20 || m.cfg.MaxThreads != 3 || m.cfg.HashBits != 7 {
		t.Errorf("explicit fields rewritten: %+v", m.cfg)
	}
}

// TestDefaultHashBitsRoundTrip pins the engine default advertised by the
// hashtab.New doc comment: DefaultConfig's HashBits must build a table of
// exactly 2^14 entries.
func TestDefaultHashBitsRoundTrip(t *testing.T) {
	cfg := DefaultConfig("hst")
	if cfg.HashBits != 14 {
		t.Fatalf("DefaultConfig HashBits = %d; update the hashtab.New doc comment if this changes", cfg.HashBits)
	}
	tab, err := hashtab.New(cfg.HashBits)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1<<cfg.HashBits {
		t.Fatalf("table len = %d, want %d", tab.Len(), 1<<cfg.HashBits)
	}
}

// TestConcurrentSpawnRespectsMaxThreads: racing spawns must never overshoot
// the thread limit — the reserve-tid-and-slot step in newCPU is atomic.
func TestConcurrentSpawnRespectsMaxThreads(t *testing.T) {
	const limit = 8
	const attempts = 32
	m, err := NewMachine(Config{Scheme: "pico-cas", MaxThreads: limit, StepMode: true})
	if err != nil {
		t.Fatal(err)
	}
	var ok, rejected atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := m.SpawnThread(RuntimeBase); err != nil {
				rejected.Add(1)
			} else {
				ok.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := ok.Load(); got != limit {
		t.Errorf("%d spawns succeeded, want exactly %d", got, limit)
	}
	if got := rejected.Load(); got != attempts-limit {
		t.Errorf("%d spawns rejected, want %d", got, attempts-limit)
	}
	if n := len(m.CPUs()); n != limit {
		t.Errorf("machine holds %d vCPUs, want %d", n, limit)
	}
	// Every accepted vCPU got a distinct tid and a distinct stack.
	seen := map[uint32]bool{}
	for _, c := range m.CPUs() {
		if seen[c.TID()] {
			t.Errorf("duplicate tid %d", c.TID())
		}
		seen[c.TID()] = true
	}
}

// TestSpawnFailureReleasesReservation: a spawn that fails after reserving
// its slot (stack mapping fails once the region is exhausted) must release
// the reservation so later spawns can still use the slot.
func TestSpawnFailureReleasesReservation(t *testing.T) {
	// A machine so small that mapping any 64 KiB stack fails.
	cfg := DefaultConfig("pico-cas")
	cfg.MemBytes = 1 << 16
	cfg.StepMode = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(RuntimeBase); err == nil {
		t.Fatal("spawn with an unmappable stack should fail")
	}
	m.cpuMu.Lock()
	reserved := m.cpuReserved
	m.cpuMu.Unlock()
	if reserved != 0 {
		t.Fatalf("cpuReserved = %d after failed spawn, want 0", reserved)
	}
}
