package server

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"sync"
	"time"

	"atomemu/internal/asm"
	"atomemu/internal/checkpoint"
	"atomemu/internal/engine"
	"atomemu/internal/faultinject"
	"atomemu/internal/stats"
)

// JobRequest is the wire form of a job submission: a guest program (GAC
// source or an assembled GA32 image) plus the safe subset of the engine
// Config a tenant may set. Everything else — scheme construction, worker
// scheduling, breaker routing — belongs to the server.
type JobRequest struct {
	// Scheme selects the emulation scheme (core.SchemeNames).
	Scheme string `json:"scheme"`
	// GAC is guest source compiled at admission; ImageB64 is a
	// base64-encoded assembled image (asm.Image.WriteTo). Exactly one.
	GAC      string `json:"gac,omitempty"`
	ImageB64 string `json:"image_b64,omitempty"`
	// Threads spawns this many workers at the image entry (default 1).
	Threads int `json:"threads,omitempty"`
	// Arg is passed in r0 to every worker.
	Arg uint32 `json:"arg,omitempty"`
	// DeadlineMS is the job's wall-clock budget; 0 takes the server
	// default, and the server cap always applies.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Config is the tenant-settable engine Config subset.
	Config JobConfig `json:"config,omitempty"`
	// Fault holds fault-injection rules, accepted only when the server
	// was started with fault injection allowed (soak and CI harnesses).
	Fault []faultinject.Spec `json:"fault,omitempty"`
	// IdempotencyKey, when set, makes the submission exactly-once: a retry
	// carrying the same key (same client after a lost 202, or any client
	// after a daemon restart) returns the originally admitted job's id
	// instead of running the program again. Keys survive restarts on
	// durable servers. A key whose submission was shed may be retried.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Tenant attributes the job to a tenant for fairness accounting. The
	// worker records it verbatim (the router enforces per-tenant quotas);
	// empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// JobConfig is the engine Config subset a job may set. Zero values defer to
// the engine defaults (Config.normalized), except VirtualDeadline, where
// zero defers to the server's default budget.
type JobConfig struct {
	MemBytes         uint32 `json:"mem_bytes,omitempty"`
	HashBits         uint   `json:"hash_bits,omitempty"`
	MaxGuestInstrs   uint64 `json:"max_guest_instrs,omitempty"`
	FuseAtomics      bool   `json:"fuse_atomics,omitempty"`
	CheckpointEvery  uint64 `json:"checkpoint_every,omitempty"`
	RecoveryAttempts int    `json:"recovery_attempts,omitempty"`
	VirtualDeadline  uint64 `json:"virtual_deadline,omitempty"`
	WatchdogSCFails  int64  `json:"watchdog_sc_fails,omitempty"`
	// ChainBudget enables direct block chaining (max blocks per dispatch);
	// 0 leaves it off. Tiered starts blocks as unoptimized IR and promotes
	// them to optimized superblocks at HotThreshold executions (0 takes the
	// engine default threshold).
	ChainBudget  int  `json:"chain_budget,omitempty"`
	Tiered       bool `json:"tiered,omitempty"`
	HotThreshold int  `json:"hot_threshold,omitempty"`
}

// JobState is a job's lifecycle position. Terminal states: done, failed,
// canceled.
type JobState string

// Job states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of GET /jobs/{id}. For a running job the
// counters are a live quiesced snapshot; for a terminal job they are final.
type JobStatus struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Tenant string   `json:"tenant,omitempty"`
	// SchemeRequested is what the tenant asked for; SchemeEffective is
	// what the job ran under (the breaker demotes to portable HST while
	// open, and rollback recovery may demote mid-run).
	SchemeRequested string `json:"scheme_requested"`
	SchemeEffective string `json:"scheme_effective,omitempty"`
	Demoted         bool   `json:"demoted,omitempty"`
	// Class/ExitCode mirror cmd/atomemu's exit classification
	// (engine.ClassifyStop); Error is the stop error, if any.
	Class    string `json:"class,omitempty"`
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error,omitempty"`

	// RestartResumes counts daemon restarts this job survived as a running
	// job (resumed from its durable checkpoint or requeued from scratch).
	RestartResumes int `json:"restart_resumes,omitempty"`

	Output      []uint32 `json:"output,omitempty"`
	VirtualTime uint64   `json:"virtual_time"`
	GuestInstrs uint64   `json:"guest_instrs"`
	SCs         uint64   `json:"scs"`
	SCFails     uint64   `json:"sc_fails"`
	Checkpoints uint64   `json:"checkpoints"`
	Restores    uint64   `json:"restores"`
	Fallbacks   uint64   `json:"fallbacks"`
	Watchdogs   uint64   `json:"watchdog_trips"`

	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// job is the server-side job record. The mutex guards every mutable field;
// machine is non-nil only while running, so status requests can take a live
// snapshot without keeping finished machines alive, and finish drops the
// image, config, journaled request and resume snapshot at the terminal
// transition, so a finished record costs its status and key only.
type job struct {
	id  string
	im  *asm.Image    // read-only: shared with every job the compile cache serves it to
	cfg engine.Config // validated at admission; Scheme set per run by the breaker

	threads int
	arg     uint32
	wallcap time.Duration

	// imageHash is the job's engine.ImageKey, derived at decode: what the
	// translation store's second-sight admission counts, and the key the
	// machine attaches its store view with.
	imageHash [32]byte

	// Durability fields. key is the idempotency key (may be set without a
	// DataDir); rawReq is the original wire JSON, journaled so a restart
	// can rebuild the job; resumes counts restarts survived while running;
	// resumeSnap, when non-nil, is the decoded checkpoint the next run
	// resumes from instead of loading the image.
	key        string
	rawReq     []byte
	resumes    int
	resumeSnap *checkpoint.Snapshot

	mu      sync.Mutex
	status  JobStatus
	machine *engine.Machine
	cancel  func()
}

// decode turns a JobRequest into a runnable job, enforcing the server's
// admission policy. All failures here are the caller's fault (HTTP 400).
func (s *Server) decode(req JobRequest) (*job, error) {
	if (req.GAC == "") == (req.ImageB64 == "") {
		return nil, fmt.Errorf("exactly one of gac or image_b64 is required")
	}
	var prog *compiled
	if req.GAC != "" {
		if len(req.GAC) > s.opts.MaxSourceBytes {
			return nil, fmt.Errorf("gac source %d bytes exceeds the %d-byte limit", len(req.GAC), s.opts.MaxSourceBytes)
		}
		compile := s.compiled.compile
		if len(req.Fault) > 0 {
			compile = compileFresh // fault-injected jobs neither read nor feed any cache
		}
		var err error
		prog, err = compile(req.GAC)
		if err != nil {
			return nil, fmt.Errorf("gac: %w", err)
		}
	} else {
		raw, err := base64.StdEncoding.DecodeString(req.ImageB64)
		if err != nil {
			return nil, fmt.Errorf("image_b64: %w", err)
		}
		if len(raw) > s.opts.MaxSourceBytes {
			return nil, fmt.Errorf("image %d bytes exceeds the %d-byte limit", len(raw), s.opts.MaxSourceBytes)
		}
		im, err := asm.ReadImage(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("image: %w", err)
		}
		prog = newCompiled(im)
	}
	threads := req.Threads
	if threads == 0 {
		threads = 1
	}
	if threads < 1 || threads > s.opts.MaxThreadsPerJob {
		return nil, fmt.Errorf("threads %d out of range [1,%d]", threads, s.opts.MaxThreadsPerJob)
	}
	if len(req.Tenant) > 64 {
		return nil, fmt.Errorf("tenant %q longer than 64 bytes", req.Tenant[:64]+"…")
	}
	if len(req.Fault) > 0 && !s.opts.AllowFaultInjection {
		return nil, fmt.Errorf("fault injection is not enabled on this server")
	}
	// Errors name the offending field, fault[2].action, so a client can fix
	// its request without grepping server source.
	inj, err := faultinject.FromSpecs(req.Fault)
	if err != nil {
		return nil, err
	}

	cfg := engine.DefaultConfig(req.Scheme)
	cfg.MemBytes = req.Config.MemBytes
	if req.Config.HashBits != 0 {
		cfg.HashBits = req.Config.HashBits
	}
	cfg.MaxGuestInstrs = req.Config.MaxGuestInstrs
	cfg.FuseAtomics = req.Config.FuseAtomics
	cfg.CheckpointEvery = req.Config.CheckpointEvery
	if req.Config.RecoveryAttempts != 0 {
		cfg.RecoveryAttempts = req.Config.RecoveryAttempts
	}
	cfg.VirtualDeadline = req.Config.VirtualDeadline
	if cfg.VirtualDeadline == 0 {
		cfg.VirtualDeadline = s.opts.DefaultVirtualDeadline
	}
	if req.Config.WatchdogSCFails != 0 {
		cfg.WatchdogSCFails = req.Config.WatchdogSCFails
	}
	cfg.ChainBudget = req.Config.ChainBudget
	cfg.Tiered = req.Config.Tiered
	if req.Config.HotThreshold != 0 {
		cfg.HotThreshold = req.Config.HotThreshold
	}
	if cfg.MaxGuestInstrs == 0 || cfg.MaxGuestInstrs > s.opts.MaxGuestInstrs {
		cfg.MaxGuestInstrs = s.opts.MaxGuestInstrs
	}
	cfg.FaultInjector = inj
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	wall := s.opts.DefaultWallDeadline
	if req.DeadlineMS > 0 {
		wall = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if wall > s.opts.MaxWallDeadline {
		wall = s.opts.MaxWallDeadline
	}
	return &job{
		im:        prog.im,
		cfg:       cfg,
		threads:   threads,
		arg:       req.Arg,
		wallcap:   wall,
		imageHash: prog.hash,
		status: JobStatus{
			State:           StateQueued,
			Tenant:          req.Tenant,
			SchemeRequested: req.Scheme,
			ExitCode:        -1,
		},
	}, nil
}

// snapshot returns the job's wire status; a running job's counters come
// from a live quiesced machine read.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	m := j.machine
	st := j.status
	j.mu.Unlock()
	if m != nil && st.State == StateRunning {
		agg := m.AggregateStats()
		st.VirtualTime = m.VirtualTime()
		fillStats(&st, agg)
	}
	return st
}

func fillStats(st *JobStatus, agg stats.CPU) {
	st.GuestInstrs = agg.GuestInstrs
	st.SCs = agg.SCs
	st.SCFails = agg.SCFails
	st.Checkpoints = agg.Checkpoints
	st.Restores = agg.RecoveryRestores
	st.Fallbacks = agg.SchemeFallbacks
	st.Watchdogs = agg.WatchdogTrips
}
