// Package server is the multi-tenant emulation job service behind
// cmd/atomemud: an HTTP/JSON API that accepts guest programs, runs each in
// an isolated engine.Machine via RunContext on a bounded worker pool, and
// serves structured results.
//
// Robustness is the design center, built from the engine's own resilience
// primitives:
//
//   - Admission control: a bounded queue; submissions beyond it are shed
//     with 429 instead of queuing without bound, and drains are refused
//     with 503 before the queue is consulted.
//   - Per-job isolation: every job gets its own Machine — a misbehaving
//     guest can exhaust only its own budgets. Worker goroutines contain
//     panics (the engine already contains vCPU panics), so no job input
//     can kill the daemon.
//   - Deadlines: each job runs under a wall-clock context deadline and a
//     virtual-time deadline; both are capped by server policy.
//   - Per-scheme circuit breaker: repeated scheme-implicating failures
//     (recovery exhausted, watchdog trips, emulation errors) open the
//     scheme's breaker, demoting new jobs to portable HST until a
//     half-open probe passes — the service-level twin of the engine's
//     per-run scheme demotion.
//   - Graceful drain: Drain stops admission, lets queued and running jobs
//     reach a terminal state (cancelling stragglers after a grace period;
//     rollback-capable jobs checkpoint-abort via context cancellation),
//     then stops the workers.
package server

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/engine"
	"atomemu/internal/obs"
	"atomemu/internal/stats"
	"atomemu/internal/tbstore"
)

// Options is the server policy. Zero values take DefaultOptions' values.
type Options struct {
	// Workers bounds concurrently running jobs.
	Workers int
	// QueueDepth bounds jobs waiting to run; submissions past it are shed
	// with 429.
	QueueDepth int
	// DefaultWallDeadline and MaxWallDeadline budget a job's wall-clock
	// run time.
	DefaultWallDeadline time.Duration
	MaxWallDeadline     time.Duration
	// DefaultVirtualDeadline is applied when a job sets none (jobs may set
	// a lower or higher one, engine-validated).
	DefaultVirtualDeadline uint64
	// MaxGuestInstrs caps any job's instruction budget.
	MaxGuestInstrs uint64
	// MaxThreadsPerJob bounds a job's worker-thread request.
	MaxThreadsPerJob int
	// BreakerThreshold is how many consecutive scheme-implicating failures
	// open a scheme's breaker. 0 takes the default; a negative value
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a breaker stays open before a half-open
	// probe.
	BreakerCooldown time.Duration
	// DrainGrace is how long Drain waits for in-flight jobs before
	// cancelling them.
	DrainGrace time.Duration
	// AllowFaultInjection accepts jobs carrying fault-injection rules —
	// for soak and CI harnesses, never production tenants.
	AllowFaultInjection bool
	// DataDir enables durability: accepted jobs are journaled write-ahead
	// under <DataDir>/journal, running jobs spill checkpoints under
	// <DataDir>/ckpt, and New replays both so accepted work survives a
	// crash or restart. Empty keeps the server purely in-memory.
	DataDir string
	// Fsync is the journal sync policy: "always", "batch" or "never". See
	// durable.SyncPolicy for the trade-offs.
	Fsync string
	// MaxRestartResumes bounds how many times one job may resume from its
	// on-disk checkpoint across daemon restarts before recovery falls back
	// to requeueing it from scratch. Negative means unbounded.
	// The same budget bounds resumes shipped in over POST /jobs/{id}/resume
	// (router failover): past it, the snapshot is dropped and the job runs
	// from scratch.
	MaxRestartResumes int
	// SharedTBCacheBlocks caps the process-wide content-addressed
	// translation store (internal/tbstore) at this many cached blocks: jobs
	// for the same image under the same configuration share translations
	// instead of each re-paying decode+translate+optimize. On by default:
	// 0 takes the default cap, and a negative value is the one way to
	// switch the store off (every job then keeps a private cache). A job attaches only from the second time its image
	// and scheme are seen, so traffic that never repeats publishes nothing;
	// a hit is charged the virtual cycles of the translation it skipped, so
	// results do not depend on it. Fault-injected jobs never attach. The
	// compile cache in front of it (source hash to image, same admission
	// rule) has no switch.
	SharedTBCacheBlocks int
	// BackgroundReplay makes New return before the journal replay finishes:
	// the HTTP surface comes up immediately, /readyz answers 503 (with
	// Retry-After) until recovery completes, and submissions are refused
	// with 503 in the window. Off, New blocks until recovery is done — the
	// historical behavior, which tests and embedders rely on.
	BackgroundReplay bool
	// Logger receives server-side diagnostics (failed response encodes).
	Logger *log.Logger

	// testReplayHold, when set by a test, is received from after the journal
	// has been read but before recovered jobs are requeued — pinning the
	// server in its recovering state so the 503 window is observable.
	testReplayHold chan struct{}
	// testAdmitHold, when set by a test, runs in admit (s.mu held) after the
	// job has won its queue slot — pinning the submitter while a worker
	// already owns the job, so the ordering of hand-off and registration is
	// observable.
	testAdmitHold func()
}

// maxSourceBytes bounds a job's GAC source and its decoded image.
const maxSourceBytes = 1 << 20

// DefaultOptions returns the policy a zero Options takes: withDefaults fills
// each zero field from here, and atomemud's flags default to it.
func DefaultOptions() Options {
	return Options{
		Workers:                4,
		QueueDepth:             16,
		DefaultWallDeadline:    30 * time.Second,
		MaxWallDeadline:        2 * time.Minute,
		DefaultVirtualDeadline: 2_000_000_000,
		MaxGuestInstrs:         4_000_000_000,
		MaxThreadsPerJob:       64,
		BreakerThreshold:       3,
		BreakerCooldown:        30 * time.Second,
		DrainGrace:             10 * time.Second,
		Fsync:                  "batch",
		MaxRestartResumes:      3,
		SharedTBCacheBlocks:    1 << 16, // some forty images of the largest admissible source, ~80 MB
		Logger:                 log.Default(),
	}
}

// withDefaults fills each zero field from DefaultOptions. max(v, 0) folds a
// negative value into zero where negative means nothing; BreakerThreshold,
// MaxRestartResumes and SharedTBCacheBlocks keep theirs.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	o.Workers = cmp.Or(max(o.Workers, 0), def.Workers)
	o.QueueDepth = cmp.Or(max(o.QueueDepth, 0), def.QueueDepth)
	o.DefaultWallDeadline = cmp.Or(max(o.DefaultWallDeadline, 0), def.DefaultWallDeadline)
	o.MaxWallDeadline = cmp.Or(max(o.MaxWallDeadline, 0), def.MaxWallDeadline)
	o.DefaultVirtualDeadline = cmp.Or(o.DefaultVirtualDeadline, def.DefaultVirtualDeadline)
	o.MaxGuestInstrs = cmp.Or(o.MaxGuestInstrs, def.MaxGuestInstrs)
	o.MaxThreadsPerJob = cmp.Or(max(o.MaxThreadsPerJob, 0), def.MaxThreadsPerJob)
	o.BreakerThreshold = cmp.Or(o.BreakerThreshold, def.BreakerThreshold)
	o.BreakerCooldown = cmp.Or(max(o.BreakerCooldown, 0), def.BreakerCooldown)
	o.DrainGrace = cmp.Or(max(o.DrainGrace, 0), def.DrainGrace)
	o.Fsync = cmp.Or(o.Fsync, def.Fsync)
	o.MaxRestartResumes = cmp.Or(o.MaxRestartResumes, def.MaxRestartResumes)
	o.SharedTBCacheBlocks = cmp.Or(o.SharedTBCacheBlocks, def.SharedTBCacheBlocks)
	o.Logger = cmp.Or(o.Logger, def.Logger)
	return o
}

// Statz is the GET /statz body, which the router's health probe reads.
type Statz struct {
	Breakers []BreakerStatus `json:"breakers"`
	Metrics  Metrics         `json:"metrics"`
	// Warmth is always present, so probes can read it unconditionally.
	Warmth Warmth `json:"warmth"`
}

// Warmth is the router's placement hint: how much reusable translation
// state this worker holds. All zero when the store is off.
type Warmth struct {
	TBStoreBlocks   int `json:"tbstore_blocks"`
	TBStoreSegments int `json:"tbstore_segments"`
}

// Metrics are the service counters, exposed on /healthz and /statz.
type Metrics struct {
	Accepted  uint64 `json:"accepted"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Recovered counts jobs that finished after at least one rollback
	// restore; Demoted counts jobs the breaker routed to HST.
	Recovered    uint64 `json:"recovered"`
	Demoted      uint64 `json:"demoted"`
	BreakerTrips uint64 `json:"breaker_trips"`
	Panics       uint64 `json:"panics"`

	// Durability counters, all zero on servers without a DataDir.
	// Journal*: this process's write-ahead journal activity, plus what the
	// startup replay found on disk. CkptSpill*: checkpoint spills to disk.
	// Restart*: how jobs recovered at the last startup.
	JournalAppends     uint64 `json:"journal_appends,omitempty"`
	JournalFsyncs      uint64 `json:"journal_fsyncs,omitempty"`
	JournalCompactions uint64 `json:"journal_compactions,omitempty"`
	JournalSegments    uint64 `json:"journal_segments,omitempty"`
	JournalErrors      uint64 `json:"journal_errors,omitempty"`
	JournalReplayed    uint64 `json:"journal_replayed,omitempty"`
	JournalCorrupt     uint64 `json:"journal_corrupt_records,omitempty"`
	CkptSpills         uint64 `json:"ckpt_spills,omitempty"`
	CkptSpillBytes     uint64 `json:"ckpt_spill_bytes,omitempty"`
	CkptSpillErrors    uint64 `json:"ckpt_spill_errors,omitempty"`
	CkptTempsSwept     uint64 `json:"ckpt_temps_swept,omitempty"`
	RestartResumed     uint64 `json:"restart_resumed,omitempty"`
	RestartRequeued    uint64 `json:"restart_requeued,omitempty"`
	RestartTerminal    uint64 `json:"restart_terminal,omitempty"`

	// Reuse counters. CompileCache*: the source-hash → image cache at
	// admission. TBStore*: the process-wide translation store (zero when
	// SharedTBCacheBlocks disabled it).
	CompileCacheHits     uint64 `json:"compile_cache_hits,omitempty"`
	CompileCacheMisses   uint64 `json:"compile_cache_misses,omitempty"`
	CompileCacheBytes    int    `json:"compile_cache_bytes,omitempty"`
	CompileCacheEntries  int    `json:"compile_cache_entries,omitempty"`
	TBStoreHits          uint64 `json:"tbstore_hits,omitempty"`
	TBStoreMisses        uint64 `json:"tbstore_misses,omitempty"`
	TBStorePublishes     uint64 `json:"tbstore_publishes,omitempty"`
	TBStoreEvictions     uint64 `json:"tbstore_evictions,omitempty"`
	TBStoreInvalidations uint64 `json:"tbstore_invalidations,omitempty"`
	TBStoreBlocks        int    `json:"tbstore_blocks,omitempty"`
	TBStoreSegments      int    `json:"tbstore_segments,omitempty"`
}

// Server is the job service. Create with New, mount Handler, stop with
// Drain.
type Server struct {
	opts     Options
	reply    Reply
	queue    chan *job
	breakers *breakerSet

	// admitMu serializes admission against the drain transition: Submit
	// holds it shared while checking draining and enqueuing, so once Drain
	// (exclusive) has set the flag, nothing more enters the queue.
	admitMu   sync.RWMutex
	draining  atomic.Bool
	drainOnce sync.Once     // Drain is idempotent: only the first call transitions
	drainCh   chan struct{} // closed at drain: workers finish the queue and exit
	killed    atomic.Bool   // drain grace expired: every job, including ones not yet started, is canceled

	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup // one per accepted job, done at terminal state

	// recovering is true from New until journal replay has requeued every
	// recovered job (always false without BackgroundReplay, where New blocks
	// through recovery). recoveryDone closes when recovery ends, success or
	// failure; recoverErr (under mu) holds a fatal replay error — the server
	// then refuses admission forever and reports the error on /readyz.
	recovering   atomic.Bool
	recoveryDone chan struct{}
	recoverErr   error

	// finishes is the worker pool's measured drain rate; 429 sheds derive
	// their Retry-After from it.
	finishMu sync.Mutex
	finishes FinishWindow

	mu     sync.Mutex
	jobs   map[string]*job
	nextID uint64
	// idemp maps an idempotency key to the job id it admitted, so a retried
	// POST (a client that never saw its 202, or one replaying across a
	// daemon restart) returns the same job instead of running it twice.
	// shedByKey/shedByID remember keyed submissions shed at admission, so
	// GET /jobs/{id} can answer "shed", distinctly from "never seen".
	idemp     map[string]string
	shedByKey map[string]string
	shedByID  map[string]string

	// dur is the durability layer; nil without Options.DataDir.
	dur *durability

	// completions is the ordered feed of terminal jobs routers watch
	// (completions.go).
	completions *completions

	// compiled is the compile cache decode goes through. tbstore is the
	// process-wide content-addressed translation store (nil when disabled)
	// and tbSeen its probation list: run attaches a job to the store only
	// from the second sight of its image and scheme.
	compiled *compileCache
	tbstore  *tbstore.Store[*engine.TB]
	tbSeen   sightings

	accepted, shed, completed, failed, canceled atomic.Uint64
	recovered, demoted, panics                  atomic.Uint64

	// Engine observability, fed by finish: counters from every finished
	// machine accumulate into engineAgg, and per-scheme latency histograms
	// record each job's wall and virtual duration. aggMu guards all three
	// (histogram observation itself is lock-free; the maps are not).
	aggMu     sync.Mutex
	engineAgg stats.CPU
	wallHist  map[string]*obs.Histogram
	virtHist  map[string]*obs.Histogram
}

// New builds the server and starts its worker pool. With a DataDir it
// replays the journal — re-registering terminal jobs, requeueing accepted
// ones and resuming started ones from their spilled checkpoints — before
// admitting anything new. Journal damage (torn tails, corrupt records)
// never fails startup; only real I/O errors do. With BackgroundReplay the
// replay runs behind a 503 window instead of blocking New; a replay I/O
// error then disables admission permanently (reported on /readyz) rather
// than failing construction.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:         opts,
		reply:        Reply{Name: "server", Log: opts.Logger},
		breakers:     newBreakerSet(opts.BreakerThreshold, opts.BreakerCooldown),
		drainCh:      make(chan struct{}),
		recoveryDone: make(chan struct{}),
		jobs:         make(map[string]*job),
		idemp:        make(map[string]string),
		shedByKey:    make(map[string]string),
		shedByID:     make(map[string]string),
		wallHist:     make(map[string]*obs.Histogram),
		virtHist:     make(map[string]*obs.Histogram),
		completions:  newCompletions(),
		compiled:     newCompileCache(compileCacheBytes),
		tbstore:      tbstore.New[*engine.TB](opts.SharedTBCacheBlocks),
	}
	if opts.DataDir == "" {
		s.startPool(nil)
		close(s.recoveryDone)
		return s, nil
	}
	if !opts.BackgroundReplay {
		var recovered []*job
		if err := s.initDurability(&recovered); err != nil {
			return nil, fmt.Errorf("server: durability init: %w", err)
		}
		s.startPool(recovered)
		close(s.recoveryDone)
		return s, nil
	}
	s.recovering.Store(true)
	go func() {
		defer close(s.recoveryDone)
		var recovered []*job
		err := s.initDurability(&recovered)
		if hold := opts.testReplayHold; hold != nil {
			<-hold
		}
		if err != nil {
			// The journal is unreadable for real (I/O, not damage): admitting
			// anything could double-run recovered work, so the server stays
			// not-ready forever and says why.
			s.mu.Lock()
			s.recoverErr = err
			s.mu.Unlock()
			s.opts.Logger.Printf("server: durability init failed, admission disabled: %v", err)
			return
		}
		s.startPool(recovered)
		s.recovering.Store(false)
	}()
	return s, nil
}

// startPool creates the queue, requeues recovered jobs and starts the
// workers. Recovered jobs must all fit the queue, whatever its configured
// depth: shedding previously accepted work at restart would break the
// durability contract.
func (s *Server) startPool(recovered []*job) {
	qcap := s.opts.QueueDepth
	if len(recovered) > qcap {
		qcap = len(recovered)
	}
	q := make(chan *job, qcap)
	for _, j := range recovered {
		q <- j
		s.jobWG.Add(1)
	}
	s.mu.Lock()
	s.queue = q
	s.mu.Unlock()
	for i := 0; i < s.opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
}

// jobQueue reads the queue under the lock: with BackgroundReplay the queue
// is created when recovery finishes, so observers (readyz, /metrics) that
// run inside the window must not read the field bare. nil means the pool
// is not up yet.
func (s *Server) jobQueue() chan *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue
}

// WaitReady blocks until recovery has finished (immediately on servers
// without BackgroundReplay) or ctx expires. A nil return does not mean the
// server is admitting — recovery may have failed or a drain begun; it
// means the startup transition is over and Metrics/readyz are final.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.recoveryDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// notReady reports why the server cannot admit jobs right now ("" = it
// can, drain aside) plus a Retry-After hint in seconds (0 = none: the
// condition is permanent).
func (s *Server) notReady() (string, int) {
	if s.recovering.Load() {
		s.mu.Lock()
		err := s.recoverErr
		s.mu.Unlock()
		if err != nil {
			return "recovery failed: " + err.Error(), 0
		}
		return "recovering: journal replay in progress", 1
	}
	if s.draining.Load() {
		return "draining", 0
	}
	return "", 0
}

// Submit admits a job: decode and validate (the expensive part, outside any
// lock), then atomically check-drain-and-enqueue. The returned job is
// already visible to Status. A request whose idempotency key was already
// accepted returns the original job's id without running anything new.
func (s *Server) Submit(req JobRequest) (string, error) {
	j, err := s.decode(req)
	if err != nil {
		return "", &SubmitError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	return s.admit(j, req)
}

// admit is the shared admission tail of Submit and SubmitResume: readiness
// and drain gates, journal bookkeeping, idempotency, and the
// enqueue-or-shed race.
func (s *Server) admit(j *job, req JobRequest) (string, error) {
	if reason, retry := s.notReady(); reason != "" {
		return "", &SubmitError{Status: http.StatusServiceUnavailable, Msg: reason, RetryAfter: retry}
	}
	j.key = req.IdempotencyKey
	if j.key != "" || s.dur != nil {
		raw, merr := json.Marshal(req)
		if merr != nil {
			return "", &SubmitError{Status: http.StatusBadRequest, Msg: merr.Error()}
		}
		j.rawReq = raw
	}
	// Once queued the job belongs to a worker, which may finish it (and
	// drop rawReq) before the submission is journaled below.
	rawReq := j.rawReq
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return "", &SubmitError{Status: http.StatusServiceUnavailable, Msg: "draining"}
	}
	s.mu.Lock()
	if j.key != "" {
		if id, ok := s.idemp[j.key]; ok {
			s.mu.Unlock()
			return id, nil
		}
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.status.ID = j.id
	j.status.EnqueuedAt = time.Now()
	// The hand-off and the registration are one critical section (the send
	// never blocks), and the jobWG count precedes both: a worker may run the
	// job to its terminal state before this goroutine is scheduled again,
	// and run's deferred Done, the completion feed's Status lookup and drain
	// must all find the job accounted for. An unkeyed shed leaves no record.
	s.jobWG.Add(1)
	select {
	case s.queue <- j:
		if hold := s.opts.testAdmitHold; hold != nil {
			hold()
		}
		s.jobs[j.id] = j
		if j.key != "" {
			s.idemp[j.key] = j.id
			if old := s.shedByKey[j.key]; old != "" {
				delete(s.shedByKey, j.key)
				delete(s.shedByID, old)
			}
		}
		s.mu.Unlock()
	default:
		s.jobWG.Done()
		// A keyed shed is remembered (and journaled), so a client retrying
		// the key later gets a fresh attempt, and a GET on this id gets a
		// distinct "shed" answer rather than "never seen".
		if j.key != "" {
			s.shedByKey[j.key] = j.id
			s.shedByID[j.id] = j.key
		}
		s.mu.Unlock()
		s.shed.Add(1)
		se := &SubmitError{Status: http.StatusTooManyRequests, Msg: "queue full", RetryAfter: s.retryAfterSecs()}
		if j.key != "" {
			s.journalAppend(durable.Record{Type: durable.TypeShed, Job: j.id, Key: j.key})
			se.ID = j.id
		}
		return "", se
	}
	s.accepted.Add(1)
	s.journalAppend(durable.Record{Type: durable.TypeSubmitted, Job: j.id, Key: j.key, Request: rawReq})
	return j.id, nil
}

// lookup returns the job record for id, nil if unknown.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Status returns a job's current status snapshot.
func (s *Server) Status(id string) (JobStatus, bool) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// state is the job's current state; queued for an id not yet visible.
func (s *Server) state(id string) string {
	if st, ok := s.Status(id); ok {
		return string(st.State)
	}
	return string(StateQueued)
}

// Jobs returns a snapshot of every known job.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(all))
	for _, j := range all {
		out = append(out, j.snapshot())
	}
	return out
}

// Metrics returns the service counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Accepted:     s.accepted.Load(),
		Shed:         s.shed.Load(),
		Completed:    s.completed.Load(),
		Failed:       s.failed.Load(),
		Canceled:     s.canceled.Load(),
		Recovered:    s.recovered.Load(),
		Demoted:      s.demoted.Load(),
		BreakerTrips: s.breakers.tripCount(),
		Panics:       s.panics.Load(),
	}
	s.mu.Lock()
	d := s.dur
	s.mu.Unlock()
	if d != nil {
		js := d.jour.Stats()
		m.JournalAppends = js.Appends
		m.JournalFsyncs = js.Fsyncs
		m.JournalCompactions = js.Compactions
		m.JournalSegments = uint64(js.Segments)
		m.JournalErrors = d.journalErrors.Load()
		m.JournalReplayed = uint64(d.replay.Records)
		m.JournalCorrupt = uint64(d.replay.CorruptRecords)
		m.CkptSpills = d.spills.Load()
		m.CkptSpillBytes = d.spillBytes.Load()
		m.CkptSpillErrors = d.spillErrors.Load()
		m.CkptTempsSwept = d.ckptTempsSwept.Load()
		m.RestartResumed = d.restartResumed.Load()
		m.RestartRequeued = d.restartRequeued.Load()
		m.RestartTerminal = d.restartTerminal.Load()
	}
	m.CompileCacheHits = s.compiled.hits.Load()
	m.CompileCacheMisses = s.compiled.misses.Load()
	m.CompileCacheBytes, m.CompileCacheEntries = s.compiled.size()
	if s.tbstore != nil {
		ts := s.tbstore.Stats()
		m.TBStoreHits = ts.Hits
		m.TBStoreMisses = ts.Misses
		m.TBStorePublishes = ts.Publishes
		m.TBStoreEvictions = ts.Evictions
		m.TBStoreInvalidations = ts.Invalidations
		m.TBStoreBlocks = ts.Blocks
		m.TBStoreSegments = ts.Segments
	}
	return m
}

// Breakers returns the per-scheme breaker states.
func (s *Server) Breakers() []BreakerStatus { return s.breakers.statuses() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server: refuse new submissions, let queued and
// running jobs reach a terminal state, cancel stragglers after DrainGrace
// (their machines stop at the next block boundary; rollback-capable jobs
// abort from their last checkpoint), and stop the workers. Returns nil when
// every accepted job ended terminal; ctx bounds the whole wait.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		s.admitMu.Unlock()
		close(s.drainCh)
	})

	// A background replay still in flight owns the journal and the worker
	// pool's startup; the drain must not race it.
	select {
	case <-s.recoveryDone:
	case <-ctx.Done():
		return fmt.Errorf("server: drain aborted during recovery: %w", ctx.Err())
	}

	jobsDone := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(jobsDone)
	}()
	grace := time.NewTimer(s.opts.DrainGrace)
	defer grace.Stop()
	select {
	case <-jobsDone:
	case <-grace.C:
		s.cancelRunning()
		select {
		case <-jobsDone:
		case <-ctx.Done():
			return fmt.Errorf("server: drain timed out with jobs still live: %w", ctx.Err())
		}
	case <-ctx.Done():
		s.cancelRunning()
		return fmt.Errorf("server: drain aborted: %w", ctx.Err())
	}
	s.workerWG.Wait()
	s.closeJournal()
	// Every completion has been published; release the watchers still
	// long-polling so the HTTP server can shut down promptly.
	s.completions.close()
	return nil
}

// cancelRunning cancels every live job. The killed flag is set first so a
// queued job popped after this sweep self-cancels on startup (run checks it
// right after publishing its cancel func) — otherwise a straggler could
// still burn its full wall-clock budget inside the drain window.
func (s *Server) cancelRunning() {
	s.killed.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
}

// worker runs queued jobs until drained: after drainCh closes it keeps
// pulling until the queue is empty, so every accepted job still runs.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.drainCh:
			for {
				select {
				case j := <-s.queue:
					s.run(j)
				default:
					return
				}
			}
		}
	}
}

// run executes one job in an isolated machine. The deferred recover is the
// service's outermost containment: the engine already contains vCPU panics,
// so this guards host-side setup — no job input may kill the daemon.
func (s *Server) run(j *job) {
	defer s.jobWG.Done()
	var sp *spiller
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			if sp != nil {
				sp.stop()
				sp = nil
			}
			s.finish(j, engine.StopError, fmt.Errorf("server: job panicked: %v", r), nil)
		}
	}()

	scheme, demoted, probe := s.breakers.route(j.status.SchemeRequested)
	if demoted {
		s.demoted.Add(1)
	}
	cfg := j.cfg
	cfg.Scheme = scheme
	// The first sight of an image under a scheme only remembers it: the job
	// runs with a private cache and no store watch, as if the store were off.
	// Fault-injected jobs never share: an injected fault could poison a
	// translation other tenants adopt. A restart resume is not a sight: a
	// machine rebuilt from a snapshot never loads the image, so it could not
	// attach anyway (engine.Config.SharedTBStore).
	if s.tbstore != nil && cfg.FaultInjector == nil && j.resumeSnap == nil &&
		s.tbSeen.seen(sha256.Sum256(append(j.imageHash[:], scheme...))) {
		cfg.SharedTBStore = s.tbstore
	}
	if s.dur != nil && cfg.CheckpointEvery > 0 {
		sp = s.newSpiller(j.id)
		cfg.CheckpointSink = sp.sink
	}
	var m *engine.Machine
	var err error
	if snap := j.resumeSnap; snap != nil {
		// Restart recovery: rebuild the machine from the spilled cut instead
		// of loading the image from scratch. One shot — drop the reference so
		// the decoded snapshot isn't pinned for the job's lifetime.
		j.resumeSnap = nil
		m, err = engine.ResumeFromSnapshot(cfg, snap)
	} else {
		m, err = engine.NewMachine(cfg)
		if err == nil {
			err = m.LoadKeyedImage(j.im, j.imageHash)
		}
		for i := 0; i < j.threads && err == nil; i++ {
			_, err = m.SpawnThread(j.im.Entry, j.arg)
		}
	}
	if err != nil {
		s.breakers.report(scheme, probe, false)
		if sp != nil {
			sp.stop()
			sp = nil
		}
		s.finish(j, engine.StopError, err, nil)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), j.wallcap)
	defer cancel()
	j.mu.Lock()
	j.status.State = StateRunning
	j.status.StartedAt = time.Now()
	j.status.SchemeEffective = scheme
	j.status.Demoted = demoted
	j.machine = m
	j.cancel = cancel
	j.mu.Unlock()
	s.journalAppend(durable.Record{Type: durable.TypeStarted, Job: j.id, Resumes: j.resumes})
	if s.killed.Load() {
		cancel()
	}

	runErr := m.RunContext(ctx)
	// A run that ended on another scheme was demoted mid-run (a live
	// demotion or a demoting rollback): it implicates the scheme as much
	// as a failure does, even when the job went on to finish.
	s.breakers.report(scheme, probe, schemeTripworthy(runErr) || m.Scheme().Name() != scheme)
	if sp != nil {
		// The machine has stopped, so no further sink calls: flush the last
		// spill before finish journals the terminal record and deletes it.
		sp.stop()
		sp = nil
	}
	s.finish(j, engine.ClassifyStop(runErr), runErr, m)
}

// finish moves a job to its terminal state and publishes the final result.
func (s *Server) finish(j *job, class engine.StopClass, err error, m *engine.Machine) {
	st := StateFailed
	switch {
	case err == nil:
		st = StateDone
		s.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st = StateCanceled
		s.canceled.Add(1)
	default:
		s.failed.Add(1)
	}
	j.mu.Lock()
	j.status.State = st
	j.status.FinishedAt = time.Now()
	j.status.Class = class.String()
	j.status.ExitCode = class.ExitCode()
	if err != nil {
		j.status.Error = err.Error()
	}
	if m != nil {
		agg := m.AggregateStats()
		fillStats(&j.status, agg)
		j.status.VirtualTime = m.VirtualTime()
		j.status.Output = m.Output()
		// Mid-run demotion (rollback recovery) also counts as demoted.
		if eff := m.Scheme().Name(); eff != j.status.SchemeEffective {
			j.status.SchemeEffective = eff
			j.status.Demoted = true
		}
		if agg.RecoveryRestores > 0 && err == nil {
			s.recovered.Add(1)
		}
		s.observeJob(j.status.SchemeEffective, &agg,
			j.status.FinishedAt.Sub(j.status.StartedAt), j.status.VirtualTime)
	}
	j.machine = nil
	j.cancel = nil
	// A terminal job is only ever read through status and key (GET, journal
	// compaction, idempotent replay): let go of everything it ran from.
	j.im, j.rawReq, j.resumeSnap = nil, nil, nil
	j.cfg = engine.Config{}
	final := j.status
	j.mu.Unlock()
	s.finishMu.Lock()
	s.finishes.Note(final.FinishedAt)
	s.finishMu.Unlock()
	// Journal the terminal state outside the job lock (an append can rotate
	// into compaction, which re-reads every job's status), and announce it
	// only once that record is durable.
	s.journalFinish(j, final)
	s.completions.publish(j.id)
}

// retryAfterSecs derives a 429 Retry-After hint: how long until the
// backlog ahead of a retry likely drains, from the live queue depth and
// the measured drain rate. Without rate evidence it assumes one second
// per queued job per worker. Clamped to [1, 60].
func (s *Server) retryAfterSecs() int {
	qlen := len(s.jobQueue())
	s.finishMu.Lock()
	rate := s.finishes.Rate(time.Now())
	s.finishMu.Unlock()
	var secs float64
	if rate > 0 {
		secs = (float64(qlen) + 1) / rate
	} else {
		secs = float64(qlen)/float64(s.opts.Workers) + 1
	}
	return min(max(int(secs+0.999), 1), 60)
}

// --- HTTP ---

// Handler returns the service's HTTP API:
//
//	POST /jobs                   submit a JobRequest → 202 {id} | 400 | 429 | 503
//	GET  /jobs                   list job statuses
//	GET  /jobs/{id}              one job's status → 200 | 404
//	GET  /jobs/{id}/checkpoint   latest live checkpoint, ACKP binary → 200 | 404
//	                             (both name the job's idempotency key in
//	                             KeyHeader: ids restart with an in-memory
//	                             process, the key tells whose job answered)
//	POST /jobs/{id}/resume       submit a job resuming from a shipped
//	                             ACKP snapshot (router failover hand-off)
//	GET  /completions            long-poll feed of jobs that turned terminal
//	                             after a cursor (?epoch=E&after=N&wait=S) →
//	                             200 {epoch, seq, reset, jobs} | 503 drained
//	GET  /healthz                liveness + metrics (200 while the process serves)
//	GET  /readyz                 admission readiness → 200 | 503 draining,
//	                             journal replay in progress, or recovery failed
//	GET  /statz                  metrics + breaker states
//	GET  /metrics                Prometheus text exposition
//
// 429 and retryable 503 responses carry a Retry-After header; the 429 one
// is derived from the queue depth and the pool's measured drain rate.
// Read-only endpoints return 405 for any method but GET.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.reply.Jobs(s.Submit, s.state, func() any { return s.Jobs() }))
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/")
		switch sub {
		case "checkpoint":
			s.reply.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
				s.handleCheckpoint(w, id)
			})(w, r)
			return
		case "resume":
			s.reply.Only(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
				s.handleResume(w, r, id)
			})(w, r)
			return
		default:
			if sub != "" {
				s.reply.Error(w, http.StatusNotFound, "no such endpoint /jobs/{id}/"+sub)
				return
			}
		}
		s.reply.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
			j := s.lookup(id)
			if j == nil {
				s.mu.Lock()
				key, shed := s.shedByID[id]
				s.mu.Unlock()
				if shed {
					// Distinct from "never seen": this id was allocated to a keyed
					// submission and shed at admission. Re-submitting the key is a
					// fresh attempt.
					s.reply.JSON(w, http.StatusNotFound, map[string]string{
						"error":           "job " + id + " was shed at admission",
						"reason":          "shed",
						"idempotency_key": key,
					})
					return
				}
				s.reply.Error(w, http.StatusNotFound, "no such job "+id)
				return
			}
			setKeyHeader(w, j)
			s.reply.JSON(w, http.StatusOK, j.snapshot())
		})(w, r)
	})
	mux.HandleFunc("/completions", s.reply.Only(http.MethodGet, s.handleCompletions))
	mux.HandleFunc("/healthz", s.reply.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		s.reply.JSON(w, http.StatusOK, map[string]any{
			"status": "ok", "draining": s.Draining(),
			"recovering": s.recovering.Load(), "metrics": s.Metrics(),
		})
	}))
	mux.HandleFunc("/readyz", s.reply.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		// Not ready means "stop routing here": draining, journal replay
		// still running, or recovery dead — a router or LB probing this
		// endpoint must take the worker out of rotation in all three.
		if reason, retry := s.notReady(); reason != "" {
			s.reply.Fail(w, &SubmitError{Status: http.StatusServiceUnavailable, Msg: reason, RetryAfter: retry})
			return
		}
		s.reply.JSON(w, http.StatusOK, map[string]any{
			"status": "ready", "queued": len(s.jobQueue()), "queue_depth": s.opts.QueueDepth,
		})
	}))
	mux.HandleFunc("/statz", s.reply.Only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		s.reply.JSON(w, http.StatusOK, Statz{Breakers: s.Breakers(), Metrics: s.Metrics(),
			Warmth: Warmth{TBStoreBlocks: s.tbstore.Len(), TBStoreSegments: s.tbstore.Stats().Segments}})
	}))
	mux.HandleFunc("/metrics", s.reply.Metrics(s.WritePrometheus))
	return mux
}

// KeyHeader carries a job's idempotency key on GET /jobs/{id} and
// GET /jobs/{id}/checkpoint responses. A worker job id is only unique within
// one in-memory process, so a caller that remembers an id across a worker
// restart (the router) checks the key before believing the answer is about
// its job.
const KeyHeader = "X-Atomemu-Idempotency-Key"

func setKeyHeader(w http.ResponseWriter, j *job) {
	if j.key != "" {
		w.Header().Set(KeyHeader, j.key)
	}
}
