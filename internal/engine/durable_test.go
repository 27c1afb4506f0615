package engine

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"atomemu/internal/checkpoint"
	"atomemu/internal/faultinject"
	"atomemu/internal/mmu"
)

// TestRestoreFaultConsumesRecoveryAttempt (regression): a restore that
// itself faults — here an injected fault in the page-table rebuild, scoped
// to the runtime page's base address so it can only fire inside
// mmu.Restore's sweep, never on a guest store — must consume a recovery
// attempt and be retried, not panic or surface as a terminal rollback
// failure. The run takes one mid-flight guest fault, one failed restore,
// then a clean restore, and still finishes with an intact stack.
func TestRestoreFaultConsumesRecoveryAttempt(t *testing.T) {
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 2_000_000_000
	cfg.CheckpointEvery = 100_000
	cfg.FaultInjector = faultinject.New(
		faultinject.Rule{
			Op: faultinject.OpMemStore, Action: faultinject.ActFault, After: 6_000, Count: 1,
		},
		// The guest never stores to the RX runtime page, so this rule's
		// counter only advances — and the rule only fires — when
		// mmu.Restore walks the restored pages.
		faultinject.Rule{
			Op: faultinject.OpMemStore, Action: faultinject.ActFault, Addr: RuntimeBase, Count: 1,
		},
	)
	agg, rep, _ := runStackResilience(t, cfg, 16, 384, 256)
	if got := cfg.FaultInjector.Fired(); got != 2 {
		t.Fatalf("injected faults fired = %d, want 2 (one guest fault, one restore fault)", got)
	}
	if agg.RecoveryAttempts != 2 {
		t.Errorf("RecoveryAttempts = %d, want 2 (the failed restore must be charged)", agg.RecoveryAttempts)
	}
	if agg.RecoveryRestores != 1 {
		t.Errorf("RecoveryRestores = %d, want 1 (only the clean restore counts)", agg.RecoveryRestores)
	}
	if rep.Corrupted() {
		t.Errorf("stack corrupted after retried recovery: %+v", rep)
	}
}

// spillSink collects encoded snapshots the way the daemon's durability
// layer does: every capture is serialized with the stable codec and the
// latest image kept.
type spillSink struct {
	mu     sync.Mutex
	images [][]byte
}

func (s *spillSink) sink(t *testing.T) func(*checkpoint.Snapshot) {
	return func(snap *checkpoint.Snapshot) {
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, snap); err != nil {
			t.Errorf("encoding spilled snapshot: %v", err)
			return
		}
		s.mu.Lock()
		s.images = append(s.images, buf.Bytes())
		s.mu.Unlock()
	}
}

// runDeterminismWithSink is runDeterminism with a CheckpointSink installed,
// for checking that spilling is as invisible as capturing.
func runDeterminismWithSink(t *testing.T, every uint64, sink func(*checkpoint.Snapshot)) ([]uint32, uint64) {
	t.Helper()
	im := buildImage(t, checkpointDeterminismImage)
	cfg := DefaultConfig("pico-cas")
	cfg.MaxGuestInstrs = 100_000_000
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = sink
	cfg.Cost.TBTranslate = 0
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Output(), m.VirtualTime()
}

// TestResumeFromSpilledSnapshotMatchesUninterrupted is the durability
// round trip: a run spills every checkpoint through the binary codec; the
// latest image is decoded and resumed on a brand-new machine, which runs
// to completion with output and virtual time identical to an
// uninterrupted reference. It also extends the cycle-invisibility
// guarantee to the spill path — the run WITH a sink must match the
// reference run without one, output and virtual time both.
func TestResumeFromSpilledSnapshotMatchesUninterrupted(t *testing.T) {
	refOut, refVT, _ := runDeterminism(t, 0)

	var spill spillSink
	spillOut, spillVT := runDeterminismWithSink(t, 2_000, spill.sink(t))
	if len(spill.images) == 0 {
		t.Fatal("no snapshots spilled")
	}
	if spillVT != refVT {
		t.Fatalf("spilling perturbed virtual time: %d (spill) vs %d (ref)", spillVT, refVT)
	}
	if len(spillOut) != len(refOut) {
		t.Fatalf("spill-run output %v, want %v", spillOut, refOut)
	}
	for i := range spillOut {
		if spillOut[i] != refOut[i] {
			t.Fatalf("spill-run output diverged: %v vs %v", spillOut, refOut)
		}
	}

	// Resume from a mid-run cut (the final checkpoint can coincide with the
	// final virtual time, which would leave the resumed run nothing to do).
	snap, err := checkpoint.DecodeBytes(spill.images[len(spill.images)/2])
	if err != nil {
		t.Fatalf("decoding mid-run spill: %v", err)
	}
	if snap.VirtualTime == 0 || snap.VirtualTime >= refVT {
		t.Fatalf("chosen cut at VT %d should be mid-run (final VT %d)", snap.VirtualTime, refVT)
	}

	cfg := DefaultConfig("pico-cas")
	cfg.MaxGuestInstrs = 100_000_000
	cfg.CheckpointEvery = 2_000
	cfg.Cost.TBTranslate = 0
	m, err := ResumeFromSnapshot(cfg, snap)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	out, vt := m.Output(), m.VirtualTime()
	if vt != refVT {
		t.Fatalf("resumed virtual time %d, want %d", vt, refVT)
	}
	if len(out) != len(refOut) {
		t.Fatalf("resumed output %v, want %v", out, refOut)
	}
	for i := range out {
		if out[i] != refOut[i] {
			t.Fatalf("resumed output diverged: %v vs %v", out, refOut)
		}
	}
	for _, c := range m.CPUs() {
		if !c.Halted() {
			t.Fatalf("vCPU %d not halted after resumed run", c.TID())
		}
		if c.ExitCode() != 0 {
			t.Fatalf("vCPU %d exit code %d after resumed run", c.TID(), c.ExitCode())
		}
	}
}

// TestExitingVCPUIsNotCutLive: a vCPU whose exit lands on a checkpoint
// cadence point must not capture the cut itself. Its exit sets the halted
// flag the capture reads only later, so the cut recorded it live at the pc
// after its exit, and a machine restored from that cut ran it on past the
// exit: the lock-free stack's workers then looped with their iteration
// count wrapped below zero until the instruction cap. Here the cut's vCPU
// would run on into the second exit, with code 7.
func TestExitingVCPUIsNotCutLive(t *testing.T) {
	im := buildImage(t, `
.org 0x10000
.entry worker
worker:
    movi r1, #20
spin:
    subsi r1, r1, #1
    bne spin
    movi r0, #0
    svc #1
    movi r0, #7
    svc #1
`)
	cfg := DefaultConfig("hst")
	cfg.MaxGuestInstrs = 1_000_000
	cfg.CheckpointEvery = 1
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(im.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.LatestCheckpoint()
	if snap == nil {
		t.Fatal("no checkpoint captured at a cadence of one cycle")
	}
	resumed, err := ResumeFromSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range resumed.CPUs() {
		if c.ExitCode() != 0 {
			t.Fatalf("vCPU %d resumed from the last cut exited %d, want 0: the cut recorded it live past its exit", c.TID(), c.ExitCode())
		}
	}
}

// TestResumeRejectsBadInput: the resume entry point fails fast on the
// configurations and snapshots it cannot honour.
func TestResumeRejectsBadInput(t *testing.T) {
	valid := &checkpoint.Snapshot{
		Mem:  &mmu.Snapshot{Frames: map[int32][]uint32{}},
		CPUs: []checkpoint.VCPU{{TID: 1}},
	}
	step := DefaultConfig("hst")
	step.StepMode = true
	if _, err := ResumeFromSnapshot(step, valid); err == nil || !strings.Contains(err.Error(), "step mode") {
		t.Errorf("step-mode resume: err = %v, want step-mode rejection", err)
	}
	cfg := DefaultConfig("hst")
	if _, err := ResumeFromSnapshot(cfg, nil); err == nil {
		t.Error("nil snapshot must be rejected")
	}
	if _, err := ResumeFromSnapshot(cfg, &checkpoint.Snapshot{Mem: &mmu.Snapshot{}}); err == nil {
		t.Error("snapshot with no vCPUs must be rejected")
	}
	dup := &checkpoint.Snapshot{
		Mem:  &mmu.Snapshot{Frames: map[int32][]uint32{}},
		CPUs: []checkpoint.VCPU{{TID: 3}, {TID: 3}},
	}
	if _, err := ResumeFromSnapshot(cfg, dup); err == nil || !strings.Contains(err.Error(), "tid") {
		t.Errorf("duplicate-tid snapshot: err = %v, want tid rejection", err)
	}
}
