// Package faultinject provides deterministic, rule-based fault injection
// for the emulator's concurrency substrate. Tests register rules that fire
// at the Nth matching operation on a chosen vCPU (or address) and force a
// failure that is hard to provoke naturally: a transaction abort, a
// poisoned commit, a stuck hash-entry lock holder, or a memory fault.
//
// Determinism: rules match on logical operation counts, never on wall
// clock. A rule's counter is advanced atomically per matching call, so a
// rule scoped to one TID fires at an exact, reproducible point in that
// vCPU's instruction stream. Rules scoped to "any vCPU" are deterministic
// in aggregate (the Nth matching operation machine-wide) but which vCPU
// observes the fault depends on scheduling.
//
// The injector is wired through htm.TM, hashtab.Table and mmu.Memory via
// their SetInjector methods; a nil *Injector is valid everywhere and
// injects nothing, so production paths pay one nil check.
package faultinject

import (
	"fmt"
	"sync/atomic"
)

// Op identifies an instrumented operation site.
type Op uint8

const (
	// OpTxnBegin fires when a vCPU opens an HTM transaction. ActAbort
	// dooms the transaction: it aborts at its first read/write/commit.
	OpTxnBegin Op = iota
	// OpTxnCommit fires at transaction commit. ActAbort forces a
	// conflict abort; ActPoison forces a non-transactional-store abort
	// (as if a plain store had poisoned an owned slot).
	OpTxnCommit
	// OpHashUnlock fires when a vCPU releases a hash-entry LockBit.
	// ActStickLock suppresses the release, simulating a stuck holder.
	OpHashUnlock
	// OpMemLoad and OpMemStore fire on guest word accesses through the
	// MMU. ActFault forces a protection fault. The MMU has no vCPU
	// identity, so these sites match rules with TID 0 (any) only.
	OpMemLoad
	OpMemStore
)

// String returns the site name for diagnostics.
func (o Op) String() string {
	switch o {
	case OpTxnBegin:
		return "txn-begin"
	case OpTxnCommit:
		return "txn-commit"
	case OpHashUnlock:
		return "hash-unlock"
	case OpMemLoad:
		return "mem-load"
	case OpMemStore:
		return "mem-store"
	}
	return "unknown"
}

// Ops lists every operation site, in Op order.
var Ops = []Op{OpTxnBegin, OpTxnCommit, OpHashUnlock, OpMemLoad, OpMemStore}

// ParseOp resolves an operation-site name (the Op.String form) back to
// its Op. It is the single source of truth for external rule encodings
// (the job service's JSON fault rules, the adversary's repro files).
func ParseOp(s string) (Op, error) {
	for _, o := range Ops {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown op %q (want txn-begin, txn-commit, hash-unlock, mem-load or mem-store)", s)
}

// Action is what an instrumented site should do when a rule fires.
type Action uint8

const (
	// ActNone means no rule fired; proceed normally.
	ActNone Action = iota
	// ActAbort forces a transaction abort (htm sites).
	ActAbort
	// ActPoison forces a poisoned-slot abort (htm commit site).
	ActPoison
	// ActStickLock suppresses a hash-entry unlock (hashtab site).
	ActStickLock
	// ActFault forces a memory protection fault (mmu sites).
	ActFault
)

// String returns the action name for diagnostics and external encodings.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActAbort:
		return "abort"
	case ActPoison:
		return "poison"
	case ActStickLock:
		return "stick-lock"
	case ActFault:
		return "fault"
	}
	return "unknown"
}

// ParseAction resolves an action name (the Action.String form) back to
// its Action. ActNone is not accepted: an external rule that injects
// nothing is a mistake, not a request.
func ParseAction(s string) (Action, error) {
	for _, a := range []Action{ActAbort, ActPoison, ActStickLock, ActFault} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown action %q (want abort, poison, stick-lock or fault)", s)
}

// Rule describes one deterministic fault. The zero value of a filter
// field means "match anything".
type Rule struct {
	// Op is the operation site this rule instruments.
	Op Op
	// Action is injected when the rule fires.
	Action Action
	// TID restricts the rule to one vCPU; 0 matches any vCPU.
	TID uint32
	// Addr restricts the rule to one guest address; 0 matches any.
	Addr uint32
	// After skips the first After matching operations, so the rule
	// first fires at matching operation After+1.
	After uint64
	// Count bounds how many times the rule fires; 0 means no bound.
	Count uint64
}

// ActionsFor is the op/action compatibility matrix: which injections an
// instrumented site actually honours. An incompatible pair parses but
// can never fire usefully — Validate turns that silent no-op into an
// upfront error.
func ActionsFor(op Op) []Action {
	switch op {
	case OpTxnBegin:
		return []Action{ActAbort}
	case OpTxnCommit:
		return []Action{ActAbort, ActPoison}
	case OpHashUnlock:
		return []Action{ActStickLock}
	case OpMemLoad, OpMemStore:
		return []Action{ActFault}
	}
	return nil
}

// Validate rejects rules whose action the op site does not honour, and
// rules on MMU sites scoped to a TID (the MMU has no vCPU identity, so
// such a rule would never match).
func (r Rule) Validate() error {
	ok := false
	for _, a := range ActionsFor(r.Op) {
		if a == r.Action {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("faultinject: action %q is not injectable at op %q", r.Action, r.Op)
	}
	if (r.Op == OpMemLoad || r.Op == OpMemStore) && r.TID != 0 {
		return fmt.Errorf("faultinject: op %q cannot be scoped to a tid (MMU sites match any vCPU)", r.Op)
	}
	return nil
}

// String renders the rule compactly for CSV rows and repro notes.
func (r Rule) String() string {
	s := fmt.Sprintf("%s:%s", r.Op, r.Action)
	if r.TID != 0 {
		s += fmt.Sprintf(":t%d", r.TID)
	}
	if r.Addr != 0 {
		s += fmt.Sprintf(":a%#x", r.Addr)
	}
	if r.After != 0 {
		s += fmt.Sprintf(":+%d", r.After)
	}
	if r.Count != 0 {
		s += fmt.Sprintf(":x%d", r.Count)
	}
	return s
}

// Spec is the JSON wire form of a Rule, keyed by the Op and Action names:
// a job request's "fault" list and an adversary scenario's "faults",
// including the committed repro files.
type Spec struct {
	Op     string `json:"op"`     // txn-begin txn-commit hash-unlock mem-load mem-store
	Action string `json:"action"` // abort poison stick-lock fault
	TID    uint32 `json:"tid,omitempty"`
	Addr   uint32 `json:"addr,omitempty"`
	After  uint64 `json:"after,omitempty"`
	Count  uint64 `json:"count,omitempty"`
}

// Rule resolves the spec through ParseOp, ParseAction and Validate, so a
// spec is refused exactly when the injector would ignore it. field names
// the offending JSON field ("op", "action", "tid"), or is empty when the
// error is about the rule as a whole.
func (s Spec) Rule() (r Rule, field string, err error) {
	op, err := ParseOp(s.Op)
	if err != nil {
		return Rule{}, "op", err
	}
	act, err := ParseAction(s.Action)
	if err != nil {
		return Rule{}, "action", err
	}
	r = Rule{Op: op, Action: act, TID: s.TID, Addr: s.Addr, After: s.After, Count: s.Count}
	if err := r.Validate(); err != nil {
		if (op == OpMemLoad || op == OpMemStore) && s.TID != 0 {
			field = "tid"
		}
		return Rule{}, field, err
	}
	return r, "", nil
}

// String renders the resolved rule, or op:action(invalid).
func (s Spec) String() string {
	if r, _, err := s.Rule(); err == nil {
		return r.String()
	}
	return s.Op + ":" + s.Action + "(invalid)"
}

// FromSpecs builds an injector from wire specs, nil when there are none.
// An error names the spec and field at fault: fault[2].action: ….
func FromSpecs(specs []Spec) (*Injector, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	rules := make([]Rule, len(specs))
	for i, s := range specs {
		r, field, err := s.Rule()
		switch {
		case err != nil && field != "":
			return nil, fmt.Errorf("fault[%d].%s: %w", i, field, err)
		case err != nil:
			return nil, fmt.Errorf("fault[%d]: %w", i, err)
		}
		rules[i] = r
	}
	return New(rules...), nil
}

type ruleState struct {
	Rule
	seen  atomic.Uint64 // matching operations observed
	fired atomic.Uint64 // faults actually injected
}

// Injector evaluates a fixed rule set. It is safe for concurrent use and
// a nil receiver injects nothing.
type Injector struct {
	rules []*ruleState
}

// New builds an injector from rules. Rules are evaluated in order; the
// first rule whose window covers the current matching operation wins.
func New(rules ...Rule) *Injector {
	in := &Injector{rules: make([]*ruleState, 0, len(rules))}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// Check reports the action to inject at an operation site. Every call
// that matches a rule's filters advances that rule's operation counter,
// whether or not the rule's After/Count window covers it.
func (in *Injector) Check(op Op, tid, addr uint32) Action {
	if in == nil {
		return ActNone
	}
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		if r.TID != 0 && r.TID != tid {
			continue
		}
		if r.Addr != 0 && r.Addr != addr {
			continue
		}
		n := r.seen.Add(1)
		if n <= r.After {
			continue
		}
		if r.Count != 0 && n > r.After+r.Count {
			continue
		}
		r.fired.Add(1)
		return r.Action
	}
	return ActNone
}

// Fired returns how many faults have been injected across all rules.
func (in *Injector) Fired() uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for _, r := range in.rules {
		n += r.fired.Load()
	}
	return n
}

// RuleStat reports one rule's observation and injection counts.
type RuleStat struct {
	Rule  Rule
	Seen  uint64 // matching operations observed
	Fired uint64 // faults actually injected
}

// RuleStats returns per-rule counts in registration order. The adversary
// uses them as coverage feedback: a rule that never fired explored
// nothing and is a candidate for removal or retargeting.
func (in *Injector) RuleStats() []RuleStat {
	if in == nil {
		return nil
	}
	out := make([]RuleStat, 0, len(in.rules))
	for _, r := range in.rules {
		out = append(out, RuleStat{Rule: r.Rule, Seen: r.seen.Load(), Fired: r.fired.Load()})
	}
	return out
}
