package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"atomemu/internal/engine"
	"atomemu/internal/gac"
)

// traceMachine builds the step-mode machine -trace-instrs runs: the GAC
// program src on threads workers.
func traceMachine(t *testing.T, src string, threads int) *engine.Machine {
	t.Helper()
	im, err := gac.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig("hst")
	cfg.StepMode = true
	m, err := engine.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		if _, err := m.SpawnThread(im.Entry, 0); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestTraceRunIsDeterministic: traceRun steps the threads round-robin, so
// two runs of the futex handoff log the same lines, from both threads, one
// per guest instruction the machine counts.
func TestTraceRunIsDeterministic(t *testing.T) {
	src, err := os.ReadFile("testdata/handoff.gac")
	if err != nil {
		t.Fatal(err)
	}
	var logs [2]string
	for i := range logs {
		m := traceMachine(t, string(src), 2)
		var log bytes.Buffer
		if err := traceRun(m, &log); err != nil {
			t.Fatal(err)
		}
		if out := m.Output(); len(out) != 1 || out[0] != 12 {
			t.Fatalf("output %v, want [12]", out)
		}
		if lines, instrs := strings.Count(log.String(), "\n"), m.AggregateStats().GuestInstrs; uint64(lines) != instrs {
			t.Fatalf("%d trace lines for %d guest instructions", lines, instrs)
		}
		logs[i] = log.String()
	}
	if logs[0] != logs[1] {
		t.Fatal("two traced runs logged different instructions")
	}
	if !strings.HasPrefix(logs[0], "T1 ") || !strings.Contains(logs[0], "\nT2 ") {
		t.Fatal("trace is missing a thread")
	}
}

// TestTraceRunEndsOnDeadlock: a thread that waits with nobody to wake it
// ends the traced run with the engine's deadlock error.
func TestTraceRunEndsOnDeadlock(t *testing.T) {
	m := traceMachine(t, "var d; func main(n) { futex_wait(&d, 0); }", 1)
	if err := traceRun(m, &bytes.Buffer{}); engine.ClassifyStop(err) != engine.StopDeadlock {
		t.Fatalf("traced run ended with %v, want a deadlock", err)
	}
}
