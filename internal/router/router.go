// Package router is the front tier of a multi-node atomemu deployment: an
// HTTP service that consistent-hash routes jobs across a fleet of atomemud
// workers and keeps the fleet's promises when individual workers die.
//
//   - Placement: jobs are routed on a consistent-hash ring (keyed by the
//     client's idempotency key, falling back to the router job id), so a
//     given key always lands on the same worker while membership holds, and
//     membership changes only move the dead worker's arc.
//   - Health: workers are actively probed (/readyz, /statz) through a
//     three-state machine — healthy, suspect, down — with exponential
//     probe backoff while down, automatic ring eviction on the down
//     transition and rejoin on recovery. See health.go.
//   - Completion: one watch loop per worker long-polls the worker's
//     completion feed (GET /completions) and finalizes jobs as their
//     events arrive; per-job status requests happen only when a feed is
//     (re)established — list + watch, never a periodic sweep. See watch.go.
//   - Failover: when a worker goes down mid-job, its in-flight jobs are
//     re-dispatched to surviving workers. For jobs that checkpoint, the
//     router fetches /jobs/{id}/checkpoint on a timer and caches the
//     latest ACKP image; failover ships it via POST /jobs/{id}/resume so
//     the job continues from its last checkpoint instead of from the
//     entry point.
//   - Exactly-once results: every job runs under a worker-side idempotency
//     key (the client's, or a router-generated "fab:<id>"), so a re-shipped
//     dispatch cannot double-admit, and the router exposes one id and one
//     final status per key. Duplicate *execution* is possible under
//     partition (a presumed-dead worker may still be running its copy),
//     but the engine is deterministic and the only observable effect is
//     the result recorded under the key — which both copies compute
//     identically. See DESIGN.md §12 for the full argument.
//   - Fairness: admission is quota-bounded per tenant (quota scales with
//     configured tenant weight) and dispatch order is deficit round-robin
//     across tenants, so a flooding tenant saturates its own quota and
//     eats 429s while background tenants keep their latency.
//   - Backpressure: a dispatch bounced by a full worker queue (429) is
//     retried on the next ring candidate after a jittered backoff; after
//     RedispatchRounds fruitless rounds the job is shed with 429 semantics
//     rather than queued forever.
//
// With a DataDir the router writes its own write-ahead journal (the same
// durable format as the workers') recording submitted / dispatched /
// finished transitions, so a router restart recovers its job table and
// re-adopts in-flight work by polling the workers it had dispatched to.
package router

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/obs"
	"atomemu/internal/server"
)

// Options configures a Router.
type Options struct {
	// Workers are the base URLs of the atomemud fleet ("http://host:port").
	Workers []string

	// TenantWeights maps tenant name to scheduling weight (min 1). A
	// tenant's admission quota is weight × QuotaPerWeight and its DRR
	// quantum is its weight. Unlisted tenants get DefaultWeight.
	TenantWeights map[string]int
	// DefaultWeight is the weight for tenants not in TenantWeights.
	// Default 1.
	DefaultWeight int
	// QuotaPerWeight caps a tenant's live jobs (admitted, not yet terminal)
	// at weight × QuotaPerWeight. Beyond it submissions are shed with 429
	// and a Retry-After derived from the tenant's measured completion rate.
	// Default 32; negative disables quotas.
	QuotaPerWeight int

	// Dispatchers is the number of dispatch workers. Default 4.
	Dispatchers int
	// DispatchAttempts is how many ring candidates one dispatch round
	// tries before backing off. Default 3 (clamped to the fleet size).
	DispatchAttempts int
	// RedispatchRounds is how many dispatch rounds a job gets before it is
	// shed. Default 3.
	RedispatchRounds int
	// BounceBackoff is the base jittered backoff between candidate
	// attempts and between rounds. Default 25ms.
	BounceBackoff time.Duration

	// ProbeInterval is the health probe cadence per worker. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 2s.
	ProbeTimeout time.Duration
	// ProbeSuspectAfter is the consecutive-failure count that turns a
	// healthy worker suspect. Default 1.
	ProbeSuspectAfter int
	// ProbeDownAfter is the consecutive-failure count that turns a worker
	// down (ring eviction + failover). Default 3.
	ProbeDownAfter int
	// ProbeBackoffMax caps the exponential probe backoff while a worker
	// stays down. Default 5s.
	ProbeBackoffMax time.Duration

	// CheckpointFetchInterval is how often the checkpoint image of a
	// dispatched job that checkpoints is re-fetched and cached (fetching
	// encodes a full snapshot on the worker). Default 500ms.
	CheckpointFetchInterval time.Duration

	// VNodes is the virtual-node count per worker on the hash ring.
	// Default 64.
	VNodes int

	// DataDir, when set, enables the router journal (submitted /
	// dispatched / finished records) so a restart recovers the job table.
	DataDir string
	// JournalSync is the journal fsync policy. Default SyncBatch.
	JournalSync durable.SyncPolicy

	// Client performs dispatch, status and checkpoint requests; probes and
	// the completion-feed long-polls reuse its Transport under their own
	// deadlines. Defaults to a 30s-timeout client.
	Client *http.Client
	// Logger receives router diagnostics. Defaults to log.Default().
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.DefaultWeight <= 0 {
		o.DefaultWeight = 1
	}
	if o.QuotaPerWeight == 0 {
		o.QuotaPerWeight = 32
	}
	if o.Dispatchers <= 0 {
		o.Dispatchers = 4
	}
	if o.DispatchAttempts <= 0 {
		o.DispatchAttempts = 3
	}
	if o.RedispatchRounds <= 0 {
		o.RedispatchRounds = 3
	}
	if o.BounceBackoff <= 0 {
		o.BounceBackoff = 25 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.ProbeSuspectAfter <= 0 {
		o.ProbeSuspectAfter = 1
	}
	if o.ProbeDownAfter <= 0 {
		o.ProbeDownAfter = 3
	}
	if o.ProbeBackoffMax <= 0 {
		o.ProbeBackoffMax = 5 * time.Second
	}
	if o.CheckpointFetchInterval <= 0 {
		o.CheckpointFetchInterval = 500 * time.Millisecond
	}
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// jobState is the router-side lifecycle. "dispatched" covers everything
// between hand-off and the worker's terminal status (the worker-side
// queued/running distinction lives in the proxied status).
type jobState string

const (
	jobQueued     jobState = "queued"
	jobDispatched jobState = "dispatched"
	jobDone       jobState = "done"
	jobFailed     jobState = "failed"
	jobShed       jobState = "shed"
)

func (s jobState) terminal() bool { return s == jobDone || s == jobFailed || s == jobShed }

// job is the router's record of one submission. Guarded by Router.mu;
// between nextJob and the dispatch outcome the owning dispatcher is the
// only writer of the routing fields. The record holds the request once, in
// wire form, and only while the job is live: a terminal job is read through
// its view and keys alone, so release drops the program with the rest.
type job struct {
	id      string
	tenant  string
	key     string // client idempotency key ("" if none)
	wkey    string // worker-side idempotency key: key, else "fab:<id>"
	hashKey string // ring key: image content hash, else client key, else router id
	raw     []byte // the request as dispatched (tenant and wkey injected); nil once terminal
	ckpts   bool   // the job asked for checkpoints: worth fetching for failover

	state     jobState
	worker    string // base URL while dispatched
	workerJob string // worker-side job id while dispatched
	rounds    int    // dispatch rounds consumed this attempt
	resumes   int    // failover re-dispatches so far
	resumed   bool   // current dispatch adopted a shipped checkpoint

	ckpt    []byte // latest fetched ACKP image
	ckptVT  uint64 // its virtual time
	useCkpt bool   // next dispatch should ship ckpt via /resume

	// early is a completion event that arrived while the dispatch POST was
	// still in flight (see worker.pending); tryDispatch claims it.
	early *server.JobStatus

	errMsg string
	final  *server.JobStatus

	enqueuedAt   time.Time // first admission
	lastEnqueue  time.Time // start of the current dispatch wait
	dispatchedAt time.Time
	finishedAt   time.Time
}

// release drops what only a live job needs — the program (tens of
// kilobytes, the bulk of the record) and the cached checkpoint image — at
// the terminal transition. r.mu held.
func (j *job) release() {
	j.raw, j.ckpt = nil, nil
}

// tenant is one admission/scheduling domain. Guarded by Router.mu.
type tenant struct {
	name    string
	weight  int
	quota   int // live-job cap; <0 = unbounded
	queue   []*job
	deficit int
	onDeck  bool // in Router.active

	live     int // admitted, not yet terminal
	inflight int // dispatched, not yet terminal

	admitted     uint64
	shedQuota    uint64
	shedDispatch uint64
	completed    uint64
	failed       uint64

	waitHist *obs.Histogram // dispatch wait (enqueue→hand-off), seconds

	finishRing [32]time.Time
	finishN    int
}

func (t *tenant) noteFinish(at time.Time) {
	t.finishRing[t.finishN%len(t.finishRing)] = at
	t.finishN++
}

// finishRate is the tenant's measured completions/sec over its recent
// finish ring; 0 means no evidence.
func (t *tenant) finishRate(now time.Time) float64 {
	n := t.finishN
	if n > len(t.finishRing) {
		n = len(t.finishRing)
	}
	if n < 2 {
		return 0
	}
	oldest := now
	for i := 0; i < n; i++ {
		if ts := t.finishRing[i]; ts.Before(oldest) {
			oldest = ts
		}
	}
	span := now.Sub(oldest)
	if span <= 0 {
		span = 50 * time.Millisecond
	}
	return float64(n) / span.Seconds()
}

// latencyBuckets spans in-process test latencies to worst-case redispatch
// backoff chains; the dispatch-wait and finish-lag histograms share it.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 15}

// Router is the front tier. Create with New, mount Handler, stop with
// Close (or DrainAndClose to wait for in-flight jobs first).
type Router struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a tenant queue gains work
	workers map[string]*worker
	ring    *ring
	jobs    map[string]*job
	byKey   map[string]string // client idempotency key → router job id
	tenants map[string]*tenant
	active  []*tenant // DRR rotation of tenants with queued work
	nextID  uint64
	stopped bool

	jour   *durable.Journal
	replay durable.ReplayStats

	draining atomic.Bool
	// ctx is the router's lifetime: Close cancels it, which stops every
	// loop and aborts the worker requests made under it (a feed long-poll
	// would otherwise hold Close for its whole wait).
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	client      *http.Client
	probeClient *http.Client
	watchClient *http.Client // no Timeout: each long-poll carries its own deadline

	// Lifetime counters (see metrics.go).
	dispatches         atomic.Uint64
	bounces            atomic.Uint64
	dispatchErrs       atomic.Uint64
	failoverRedispatch atomic.Uint64
	failoverResumed    atomic.Uint64
	ckptFetches        atomic.Uint64
	ckptFetchBytes     atomic.Uint64
	completed          atomic.Uint64
	failed             atomic.Uint64
	journalErrs        atomic.Uint64
	watchEvents        atomic.Uint64
	watchResyncs       [numResyncReasons]atomic.Uint64
	finishLag          *obs.Histogram // worker FinishedAt → router finalize, seconds
}

// New builds the router, replays its journal (with a DataDir), and starts
// the dispatch, probe, watch and checkpoint-fetch loops. Workers start
// healthy and on the
// ring — the first probe round corrects that within ProbeInterval.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("router: no workers configured")
	}
	r := &Router{
		opts:    opts,
		workers: make(map[string]*worker, len(opts.Workers)),
		ring:    newRing(opts.VNodes),
		jobs:    make(map[string]*job),
		byKey:   make(map[string]string),
		tenants: make(map[string]*tenant),
		client:  opts.Client,
		probeClient: &http.Client{
			Timeout:   opts.ProbeTimeout,
			Transport: opts.Client.Transport,
		},
		watchClient: &http.Client{Transport: opts.Client.Transport},
		finishLag:   obs.NewHistogram(latencyBuckets),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.cond = sync.NewCond(&r.mu)
	now := time.Now()
	for _, u := range opts.Workers {
		if _, dup := r.workers[u]; dup {
			return nil, fmt.Errorf("router: duplicate worker %s", u)
		}
		r.workers[u] = &worker{
			url: u, state: stateHealthy, nextProbe: now,
			inflight: make(map[string]*job), pending: make(map[string]*job),
		}
		r.ring.add(u)
	}
	if opts.DataDir != "" {
		if err := r.initJournal(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Dispatchers; i++ {
		r.wg.Add(1)
		go r.dispatchLoop()
	}
	r.wg.Add(2 + len(r.workers))
	go r.probeLoop()
	go r.ckptLoop()
	for u := range r.workers {
		go r.watchLoop(u)
	}
	return r, nil
}

// tenantLocked returns (creating on first sight) the tenant record.
func (r *Router) tenantLocked(name string) *tenant {
	t := r.tenants[name]
	if t == nil {
		w := r.opts.TenantWeights[name]
		if w <= 0 {
			w = r.opts.DefaultWeight
		}
		quota := -1
		if r.opts.QuotaPerWeight > 0 {
			quota = w * r.opts.QuotaPerWeight
		}
		t = &tenant{
			name: name, weight: w, quota: quota,
			waitHist: obs.NewHistogram(latencyBuckets),
		}
		r.tenants[name] = t
	}
	return t
}

// Submit admits a job: quota check, id assignment, idempotency
// registration, tenant enqueue. Returns the router job id; errors are
// *server.SubmitError with HTTP semantics (429 quota with Retry-After,
// 503 draining, 400 invalid).
func (r *Router) Submit(req server.JobRequest) (string, error) {
	if r.draining.Load() {
		return "", &server.SubmitError{Status: http.StatusServiceUnavailable, Msg: "router is draining"}
	}
	if len(req.Tenant) > 64 {
		return "", &server.SubmitError{Status: http.StatusBadRequest, Msg: "tenant: too long (max 64 bytes)"}
	}
	if (req.GAC == "") == (req.ImageB64 == "") {
		return "", &server.SubmitError{Status: http.StatusBadRequest, Msg: "provide exactly one of gac or image_b64"}
	}
	tname := req.Tenant
	if tname == "" {
		tname = "default"
	}

	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return "", &server.SubmitError{Status: http.StatusServiceUnavailable, Msg: "router is stopped"}
	}
	if req.IdempotencyKey != "" {
		if id, ok := r.byKey[req.IdempotencyKey]; ok {
			r.mu.Unlock()
			return id, nil
		}
	}
	t := r.tenantLocked(tname)
	if t.quota >= 0 && t.live >= t.quota {
		t.shedQuota++
		retry := r.tenantRetryAfterLocked(t)
		r.mu.Unlock()
		return "", &server.SubmitError{
			Status:     http.StatusTooManyRequests,
			Msg:        fmt.Sprintf("tenant %q is at its admission quota (%d live jobs)", tname, t.quota),
			RetryAfter: retry,
		}
	}
	r.nextID++
	id := fmt.Sprintf("fab-%d", r.nextID)
	j := &job{
		id:     id,
		tenant: tname,
		key:    req.IdempotencyKey,
		state:  jobQueued,
	}
	// The worker-side idempotency key makes re-dispatch of the same router
	// job collapse on the worker: the client's key when it gave one, a
	// router-scoped synthetic key otherwise.
	wreq := req
	wreq.Tenant = tname
	if wreq.IdempotencyKey == "" {
		wreq.IdempotencyKey = "fab:" + id
	}
	raw, err := json.Marshal(wreq)
	if err != nil {
		r.mu.Unlock()
		return "", &server.SubmitError{Status: http.StatusBadRequest, Msg: "encoding request: " + err.Error()}
	}
	j.wkey = wreq.IdempotencyKey
	j.raw = raw
	j.ckpts = req.Config.CheckpointEvery > 0
	j.hashKey = ringKey(req, j.key, id)
	now := time.Now()
	j.enqueuedAt, j.lastEnqueue = now, now
	r.jobs[id] = j
	if j.key != "" {
		r.byKey[j.key] = id
	}
	t.live++
	t.admitted++
	r.enqueueLocked(t, j)
	r.mu.Unlock()

	r.journalAppend(durable.Record{
		Type: durable.TypeSubmitted, Job: id, Key: j.key,
		Request: json.RawMessage(raw), UnixMS: now.UnixMilli(),
	})
	return id, nil
}

// ringKey derives a job's consistent-hash placement key. Image content
// wins: repeat submissions of the same guest program land on the worker
// that already holds its compiled image and its translations in the
// shared TB store, so placement affinity is what turns those caches into
// fleet-level wins. Same program, same arc — whoever submits it. Jobs
// without program content (not possible via the HTTP surface) fall back to
// the client key, then the router id.
func ringKey(req server.JobRequest, key, id string) string {
	switch {
	case req.GAC != "":
		sum := sha256.Sum256([]byte("gac\x00" + req.GAC))
		return "img:" + hex.EncodeToString(sum[:])
	case req.ImageB64 != "":
		sum := sha256.Sum256([]byte("img\x00" + req.ImageB64))
		return "img:" + hex.EncodeToString(sum[:])
	case key != "":
		return key
	default:
		return id
	}
}

// tenantRetryAfterLocked derives a quota-shed Retry-After from the
// tenant's measured completion rate: how long until one quota slot likely
// frees. Clamped to [1, 30]; 2 without rate evidence.
func (r *Router) tenantRetryAfterLocked(t *tenant) int {
	rate := t.finishRate(time.Now())
	if rate <= 0 {
		return 2
	}
	secs := 1 / rate
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return int(secs + 0.5)
}

// enqueueLocked appends the job to its tenant queue and puts the tenant on
// the DRR rotation.
func (r *Router) enqueueLocked(t *tenant, j *job) {
	j.state = jobQueued
	j.lastEnqueue = time.Now()
	t.queue = append(t.queue, j)
	if !t.onDeck {
		t.onDeck = true
		r.active = append(r.active, t)
	}
	r.cond.Signal()
}

// nextLocked pops the next job under deficit round-robin: the tenant at
// the head of the rotation spends one deficit credit per job; an exhausted
// tenant moves to the tail with a fresh quantum (its weight), so over a
// rotation each backlogged tenant dispatches in proportion to its weight.
func (r *Router) nextLocked() *job {
	for len(r.active) > 0 {
		t := r.active[0]
		if len(t.queue) == 0 {
			t.deficit = 0
			t.onDeck = false
			r.active = r.active[1:]
			continue
		}
		if t.deficit < 1 {
			t.deficit += t.weight
			r.active = append(r.active[1:], t)
			continue
		}
		t.deficit--
		j := t.queue[0]
		t.queue = t.queue[1:]
		return j
	}
	return nil
}

// nextJob blocks until a job is available or the router stops (nil).
func (r *Router) nextJob() *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.stopped {
			return nil
		}
		if j := r.nextLocked(); j != nil {
			return j
		}
		r.cond.Wait()
	}
}

func (r *Router) dispatchLoop() {
	defer r.wg.Done()
	for {
		j := r.nextJob()
		if j == nil {
			return
		}
		r.dispatch(j)
	}
}

type dispOutcome int

const (
	dispOK       dispOutcome = iota
	dispBounce               // 429: worker queue full, try the next candidate
	dispFail                 // transport error or 5xx: counts against worker health
	dispTerminal             // 400 or job no longer dispatchable: stop trying
)

// dispatch walks the job's ring candidates, with jittered backoff between
// attempts and between rounds; RedispatchRounds fruitless rounds shed the
// job. An empty ring (every worker down) burns rounds like a bounce — a
// job cannot wait forever for a fleet that may never return.
func (r *Router) dispatch(j *job) {
	for {
		r.mu.Lock()
		if r.stopped || j.state != jobQueued {
			r.mu.Unlock()
			return
		}
		cands := r.ring.candidates(j.hashKey, r.opts.DispatchAttempts)
		if len(cands) > 2 {
			// The arc owner stays first — placement stability is what builds
			// worker warmth in the first place. But a bounce's spill order is
			// free choice: prefer spilling to the warmest surviving candidate
			// (most reusable translations, per its /statz warmth hint). Stable
			// sort, so equally-cold candidates keep ring order.
			rest := cands[1:]
			sort.SliceStable(rest, func(a, b int) bool {
				wa, wb := r.workers[rest[a]], r.workers[rest[b]]
				var sa, sb int
				if wa != nil {
					sa = wa.warmth
				}
				if wb != nil {
					sb = wb.warmth
				}
				return sa > sb
			})
		}
		r.mu.Unlock()

		for i, url := range cands {
			if i > 0 {
				// Back off before spilling to the next candidate: the bounce
				// is usually a momentarily full queue, and the jitter keeps
				// concurrent dispatchers from stampeding the same spill.
				if !r.sleepStop(jitter(r.opts.BounceBackoff << uint(i-1))) {
					return
				}
			}
			switch r.tryDispatch(j, url) {
			case dispOK, dispTerminal:
				return
			case dispBounce, dispFail:
			}
		}

		r.mu.Lock()
		j.rounds++
		rounds := j.rounds
		if rounds >= r.opts.RedispatchRounds {
			r.shedLocked(j, fmt.Sprintf("no worker accepted the job after %d dispatch rounds", rounds))
			r.mu.Unlock()
			r.journalFinish(j)
			return
		}
		r.mu.Unlock()
		if !r.sleepStop(jitter(r.opts.BounceBackoff << uint(rounds+1))) {
			return
		}
	}
}

// tryDispatch hands the job to one worker: POST /jobs, or POST
// /jobs/{id}/resume with the cached checkpoint image when this is a
// failover re-dispatch that has one to ship.
func (r *Router) tryDispatch(j *job, url string) dispOutcome {
	r.mu.Lock()
	w := r.workers[url]
	if j.state != jobQueued {
		r.mu.Unlock()
		return dispTerminal
	}
	useCkpt := j.useCkpt && len(j.ckpt) > 0
	ckpt := j.ckpt
	resumes := j.resumes
	raw := j.raw
	// From here until the 202 is recorded the worker may finish the job
	// before the router knows its worker-side id: the feed leaves such an
	// event on the pending job, and syncGen tells whether a resync listed
	// the worker's jobs without this one.
	key := j.wkey
	w.pending[key] = j
	gen := w.syncGen
	r.mu.Unlock()

	resp, err := r.postDispatch(url, j.id, raw, useCkpt, ckpt, resumes)

	now := time.Now()
	r.mu.Lock()
	delete(w.pending, key)
	early := j.early
	j.early = nil
	accepted := err == nil && resp.code == http.StatusAccepted && j.state == jobQueued
	var resumesNow int
	if accepted {
		j.state = jobDispatched
		j.worker = url
		j.workerJob = resp.id
		j.dispatchedAt = now
		j.resumed = useCkpt && resp.resumed
		j.useCkpt = false
		t := r.tenants[j.tenant]
		t.inflight++
		t.waitHist.Observe(now.Sub(j.lastEnqueue).Seconds())
		w.dispatched++
		w.inflight[key] = j
		resumesNow = j.resumes
	}
	missed := w.syncGen != gen
	r.mu.Unlock()

	if err != nil {
		r.dispatchErrs.Add(1)
		r.noteWorkerFailure(url, "dispatch: "+err.Error())
		return dispFail
	}
	switch resp.code {
	case http.StatusAccepted:
		if !accepted { // lost a race with shed/stop
			return dispTerminal
		}
		r.dispatches.Add(1)
		if useCkpt && resp.resumed {
			r.failoverResumed.Add(1)
		}
		r.journalAppend(durable.Record{
			Type: durable.TypeDispatched, Job: j.id,
			Worker: url, WorkerJob: resp.id, Resumes: resumesNow,
			UnixMS: now.UnixMilli(),
		})
		switch {
		case early != nil:
			r.finalize(j, url, early)
		case missed || resp.state.Terminal():
			// No event will come: a resync listed this worker's jobs while
			// the 202 was in flight, or the key was already terminal there
			// (an idempotent hit on an earlier dispatch's result).
			if _, err := r.reconcile(j, url, resp.id); err != nil {
				r.noteWorkerFailure(url, "reconcile: "+err.Error())
			}
		}
		return dispOK
	case http.StatusTooManyRequests:
		r.bounces.Add(1)
		return dispBounce
	case http.StatusBadRequest:
		// The fleet rejected the job itself; retrying elsewhere cannot help.
		r.mu.Lock()
		r.failLocked(j, "worker rejected job: "+resp.errMsg)
		r.mu.Unlock()
		r.journalFinish(j)
		return dispTerminal
	default:
		r.dispatchErrs.Add(1)
		r.noteWorkerFailure(url, fmt.Sprintf("dispatch: HTTP %d: %s", resp.code, resp.errMsg))
		return dispFail
	}
}

// sleepStop sleeps d unless the router stops first; false means stopped.
func (r *Router) sleepStop(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-r.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// shedLocked marks a queued job shed (dispatch exhausted). r.mu held.
func (r *Router) shedLocked(j *job, why string) {
	j.state = jobShed
	j.errMsg = why
	j.finishedAt = time.Now()
	j.release()
	t := r.tenants[j.tenant]
	t.live--
	t.shedDispatch++
	t.noteFinish(j.finishedAt)
	r.opts.Logger.Printf("router: shedding %s: %s", j.id, why)
}

// failLocked marks a queued job failed without a worker status. r.mu held.
func (r *Router) failLocked(j *job, why string) {
	j.state = jobFailed
	j.errMsg = why
	j.finishedAt = time.Now()
	j.release()
	t := r.tenants[j.tenant]
	t.live--
	t.failed++
	t.noteFinish(j.finishedAt)
	r.failed.Add(1)
}

// Draining reports whether DrainAndClose has begun.
func (r *Router) Draining() bool { return r.draining.Load() }

// DrainAndClose stops admission, waits (bounded by ctx) for every live job
// to reach a terminal state, then shuts down. Jobs still live at ctx
// expiry stay live on their workers; a restarted router with the same
// DataDir re-adopts them.
func (r *Router) DrainAndClose(ctx context.Context) error {
	r.draining.Store(true)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for {
		r.mu.Lock()
		live := 0
		for _, t := range r.tenants {
			live += t.live
		}
		r.mu.Unlock()
		if live == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = fmt.Errorf("router drain: %d jobs still live: %w", live, ctx.Err())
			break wait
		case <-tick.C:
		}
	}
	r.Close()
	return err
}

// Close stops the loops (cancelling any feed long-poll in flight) and the
// journal. Idempotent. Live jobs keep running on their workers.
func (r *Router) Close() {
	r.mu.Lock()
	r.stopped = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
	r.mu.Lock()
	jour := r.jour
	r.jour = nil
	r.mu.Unlock()
	if jour != nil {
		if err := jour.Close(); err != nil {
			r.opts.Logger.Printf("router: closing journal: %v", err)
		}
	}
}
