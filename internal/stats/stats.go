// Package stats collects the profiling counters behind the paper's
// evaluation: instruction censuses (Table I), time-breakdown components
// (Fig. 12) and event rates (hash conflicts, false sharing, HTM aborts).
//
// A CPU value is written by exactly one vCPU goroutine; cross-thread readers
// must only inspect it after the machine has quiesced (or accept torn but
// monotonic counter reads — all fields are plain uint64 counters).
package stats

import (
	"fmt"
	"reflect"
	"strings"
)

// Component classifies where virtual time is spent, matching the stacked
// bars of the paper's Figure 12.
type Component uint8

// Time components.
const (
	CompNative      Component = iota // basic emulation work
	CompExclusive                    // start/end_exclusive and waiting on it
	CompInstrument                   // store/LL/SC instrumentation
	CompMProtect                     // protection syscalls and page faults
	CompHTM                          // transaction begin/commit/abort
	CompCheckpoint                   // checkpoint capture (off the guest-visible clock)
	CompTBLookup                     // TB cache probes (local and shared tiers)
	CompTBTranslate                  // decode→IR→optimize pipeline (incl. race-discarded losers)
	NumComponents
)

var componentNames = [NumComponents]string{
	CompNative:      "native",
	CompExclusive:   "exclusive",
	CompInstrument:  "instrument",
	CompMProtect:    "mprotect",
	CompHTM:         "htm",
	CompCheckpoint:  "checkpoint",
	CompTBLookup:    "tb_lookup",
	CompTBTranslate: "tb_translate",
}

func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component?%d", uint8(c))
}

// CPU holds one vCPU's counters.
type CPU struct {
	// Instruction census (Table I).
	GuestInstrs uint64
	IROps       uint64
	Loads       uint64
	Stores      uint64
	LLs         uint64
	SCs         uint64
	SCFails     uint64

	// Scheme events.
	HashConflicts uint64 // SC failed due to hash-entry change by an aliasing address
	PageFaults    uint64 // PST store faults taken
	FalseSharing  uint64 // PST faults on the page but not the monitored word
	HTMCommits    uint64
	HTMAborts     uint64
	ExclSections  uint64 // stop-the-world sections entered

	// Resilience events (abort backoff, fallback to hst, watchdog).
	HTMRetries      uint64 // transactional attempts re-issued after a retryable abort
	HTMBackoffWaits uint64 // backoff waits taken before those retries
	SchemeFallbacks uint64 // fallbacks to portable HST: machine demotions (pico-htm), stop-the-world SCs (hst-htm)
	WatchdogTrips   uint64 // progress-watchdog diagnostics raised

	// Checkpoint/recovery events. These live at machine level (per-CPU
	// counters are themselves rolled back by a restore) and are merged into
	// the aggregate by engine.Machine.AggregateStats; per-vCPU values stay 0.
	Checkpoints      uint64 // consistent cuts captured
	CheckpointPages  uint64 // page frames copied across all captures
	RecoveryAttempts uint64 // rollback recoveries attempted
	RecoveryRestores uint64 // checkpoint restores completed

	// Translation-cache events (the host-side contention story: shared
	// lookups are lock-free, and racing same-pc translations discard the
	// loser's block).
	TBSharedLookups uint64 // local-cache misses that consulted the shared TB cache
	TBTranslations  uint64 // blocks this vCPU translated itself
	TBRaceDiscards  uint64 // translations discarded after losing the publish race

	// IR-bypass fast path (chaining + profile-gated tiering).
	ChainLinks     uint64 // successor links installed between per-vCPU TBs
	ChainFollows   uint64 // block transitions taken via a chain link (no dispatch loop)
	TierPromotions uint64 // blocks promoted from their cold form to optimized IR
	InterpBlocks   uint64 // block executions served by the cold (unoptimized IR) form

	// Cross-job content-addressed translation store (internal/tbstore):
	// lookups against the process-wide shared view, publications into it,
	// and permanent detaches after the machine mutated its code span.
	TBStoreHits          uint64 // blocks adopted from the shared store
	TBStoreMisses        uint64 // shared-store probes that found nothing
	TBStorePublishes     uint64 // blocks this vCPU published to the store
	TBStoreInvalidations uint64 // views detached after a store into the image span

	// Virtual cycles by component.
	Cycles [NumComponents]uint64
}

// Charge adds cycles to a component.
func (c *CPU) Charge(comp Component, cycles uint64) { c.Cycles[comp] += cycles }

// TotalCycles sums all components.
func (c *CPU) TotalCycles() uint64 {
	var t uint64
	for _, v := range c.Cycles {
		t += v
	}
	return t
}

// Add accumulates other into c (for machine-wide aggregation). It walks
// the struct by reflection so a newly added counter can never be left
// out of the aggregate — hand-copying fields here silently dropped new
// counters from AggregateStats once the list drifted. Add only runs at
// quiescence (a handful of times per run), so reflection cost is moot.
func (c *CPU) Add(other *CPU) {
	dst := reflect.ValueOf(c).Elem()
	src := reflect.ValueOf(other).Elem()
	for i := 0; i < dst.NumField(); i++ {
		df, sf := dst.Field(i), src.Field(i)
		switch df.Kind() {
		case reflect.Uint64:
			df.SetUint(df.Uint() + sf.Uint())
		case reflect.Array:
			for j := 0; j < df.Len(); j++ {
				df.Index(j).SetUint(df.Index(j).Uint() + sf.Index(j).Uint())
			}
		default:
			panic(fmt.Sprintf("stats.CPU.Add: field %s has unsupported kind %s",
				dst.Type().Field(i).Name, df.Kind()))
		}
	}
}

// Field is one named counter from a CPU, as exported by Fields.
type Field struct {
	Name  string // snake_case field name, e.g. "sc_fails"
	Value uint64
}

// Fields returns every scalar counter of c with a snake_case name, in
// declaration order. The Cycles array is excluded — callers export it
// per component via Component.String. Like Add, this is reflection-
// driven so new counters automatically show up in /metrics.
func (c *CPU) Fields() []Field {
	v := reflect.ValueOf(c).Elem()
	t := v.Type()
	out := make([]Field, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		out = append(out, Field{Name: snakeCase(t.Field(i).Name), Value: v.Field(i).Uint()})
	}
	return out
}

// snakeCase converts a Go field name (GuestInstrs, HTMAborts, LLs,
// TBRaceDiscards) to snake_case (guest_instrs, htm_aborts, lls,
// tb_race_discards). Runs of capitals stay together until the last one
// starts a new word; a bare trailing plural "s" (LLs, SCs) sticks to
// its acronym instead of starting one.
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			prevUpper := i > 0 && rs[i-1] >= 'A' && rs[i-1] <= 'Z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			pluralTail := i+2 == len(rs) && rs[i+1] == 's'
			if i > 0 && (!prevUpper || (nextLower && !pluralTail)) {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// StoreToLLSCRatio returns how many regular stores execute per LL/SC pair —
// the discriminating statistic of the paper's Table I (88x .. 3000x on
// PARSEC).
func (c *CPU) StoreToLLSCRatio() float64 {
	atomics := c.LLs
	if atomics == 0 {
		return 0
	}
	return float64(c.Stores) / float64(atomics)
}

// Breakdown returns the fraction of total cycles per component.
func (c *CPU) Breakdown() [NumComponents]float64 {
	var out [NumComponents]float64
	total := c.TotalCycles()
	if total == 0 {
		return out
	}
	for i, v := range c.Cycles {
		out[i] = float64(v) / float64(total)
	}
	return out
}
