package adversary

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"atomemu/internal/faultinject"
)

// ReproVersion is bumped whenever the repro format or the trace-hash
// recipe changes incompatibly.
const ReproVersion = 1

// Expect pins what a repro's replay must observe.
type Expect struct {
	Class          string `json:"class"`
	OracleViolated bool   `json:"oracle_violated"`
	// ErrContains, when set, must be a substring of the machine error.
	ErrContains string `json:"err_contains,omitempty"`
}

// Repro is a self-contained, committable reproduction of a finding: a
// normalized step-mode scenario plus the exact outcome it must replay
// to, byte-for-byte (the trace hash covers the full event stream).
type Repro struct {
	Version   int      `json:"version"`
	Note      string   `json:"note,omitempty"`
	Scenario  Scenario `json:"scenario"`
	Expect    Expect   `json:"expect"`
	TraceHash string   `json:"trace_hash"`
}

// NewRepro pins a finding. Only step-mode scenarios are accepted: free
// runs are not deterministic and cannot anchor a byte-stable trace hash.
func NewRepro(s Scenario, o *Outcome, note string) (*Repro, error) {
	s = s.withDefaults()
	if s.Mode != ModeStep {
		return nil, fmt.Errorf("adversary: repros require step mode, got %q", s.Mode)
	}
	e := Expect{Class: o.Class.String(), OracleViolated: o.OracleViolated()}
	if o.Class == ClassLivelock {
		e.ErrContains = "livelock"
	}
	return &Repro{
		Version:   ReproVersion,
		Note:      note,
		Scenario:  s,
		Expect:    e,
		TraceHash: fmt.Sprintf("%016x", o.TraceHash),
	}, nil
}

// Replay re-runs the pinned scenario and checks every expectation:
// outcome class, oracle verdict, error substring and the trace hash. A
// non-nil error describes the divergence; the outcome is returned either
// way for diagnostics.
func (r *Repro) Replay() (*Outcome, error) {
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("adversary: repro version %d, this build replays version %d", r.Version, ReproVersion)
	}
	wantClass, err := ParseClass(r.Expect.Class)
	if err != nil {
		return nil, err
	}
	o, err := RunScenario(r.Scenario)
	if err != nil {
		return nil, fmt.Errorf("adversary: replay setup: %w", err)
	}
	if o.Class != wantClass {
		return o, fmt.Errorf("adversary: replay class diverged: got %s want %s (err=%q oracle=%q)",
			o.Class, wantClass, o.Err, o.OracleErr)
	}
	if o.OracleViolated() != r.Expect.OracleViolated {
		return o, fmt.Errorf("adversary: replay oracle verdict diverged: violated=%v want %v (%q)",
			o.OracleViolated(), r.Expect.OracleViolated, o.OracleErr)
	}
	if r.Expect.ErrContains != "" && !strings.Contains(o.Err, r.Expect.ErrContains) {
		return o, fmt.Errorf("adversary: replay error %q does not contain %q", o.Err, r.Expect.ErrContains)
	}
	if got := fmt.Sprintf("%016x", o.TraceHash); got != r.TraceHash {
		return o, fmt.Errorf("adversary: replay trace hash diverged: got %s want %s (replay is no longer deterministic)",
			got, r.TraceHash)
	}
	return o, nil
}

// WriteFile saves the repro as indented JSON.
func (r *Repro) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads a repro file, validating the scenario's fault rules so
// a stale or hand-edited file fails loudly rather than replaying junk.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", path, err)
	}
	if _, err := faultinject.FromSpecs(r.Scenario.Faults); err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", path, err)
	}
	if _, err := ParseClass(r.Expect.Class); err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", path, err)
	}
	return &r, nil
}
