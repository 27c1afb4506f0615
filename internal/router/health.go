package router

import (
	"context"
	"math/rand"
	"time"
)

// Worker health is a three-state machine driven by active probes of the
// worker's /readyz (and, while it answers, /statz for load gauges):
//
//	healthy ──ProbeSuspectAfter consecutive failures──▶ suspect
//	suspect ──ProbeDownAfter consecutive failures────▶ down
//	any     ──one successful probe───────────────────▶ healthy
//
// A suspect worker stays on the ring (it may be a blip; its queued jobs
// are still likely to finish) but its failures keep counting. The down
// transition evicts the worker from the ring and fails over its in-flight
// jobs to surviving workers. While down, probing backs off exponentially
// (capped at ProbeBackoffMax) so a dead host is not hammered; the first
// successful probe resets the counters, rejoins the ring, and the worker
// starts taking its hash arc again.
//
// Dispatch and completion-feed errors against a worker feed the same
// counter as probe failures, so a worker that dies right after a clean
// probe is detected at the speed of traffic, not of the probe interval.

type healthState int32

const (
	stateHealthy healthState = iota
	stateSuspect
	stateDown
)

func (h healthState) String() string {
	switch h {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	default:
		return "down"
	}
}

// worker is the router's view of one atomemud. All fields are guarded by
// Router.mu.
type worker struct {
	url   string
	state healthState

	consecFails int
	lastErr     string
	lastProbe   time.Time
	nextProbe   time.Time
	backoff     time.Duration // probe backoff while down; 0 = ProbeInterval cadence
	probing     bool          // a probe goroutine is in flight

	// Gauges from the last successful /readyz + /statz probe.
	queued     int
	queueDepth int
	accepted   uint64
	completed  uint64
	shed       uint64
	// warmth is the worker's reusable translation state (shared TB store
	// blocks) from the /statz warmth hint; dispatch uses it to order spill
	// candidates.
	warmth int

	// Lifetime transition counters for /metrics.
	downs   uint64
	rejoins uint64

	dispatched uint64 // jobs this router dispatched here

	// inflight indexes the jobs dispatched here and not yet terminal by
	// their worker-side idempotency key: where feed events find their job,
	// and the list a resync or the down transition walks. pending holds the
	// jobs whose dispatch POST to this worker is still in flight — the
	// worker may finish one before the 202 that names its worker-side id is
	// processed, and the key is known before the POST. syncGen moves when a
	// resync lists inflight, so such a dispatch can tell it was left out.
	inflight  map[string]*job
	pending   map[string]*job
	syncGen   uint64
	watchLive bool // the last feed request succeeded
}

// probeLoop wakes every half ProbeInterval and launches probes for workers
// that are due. Each probe runs in its own goroutine so one unresponsive
// worker (blocked until ProbeTimeout) cannot delay probing the others.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.opts.ProbeInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		r.mu.Lock()
		for _, w := range r.workers {
			if w.probing || now.Before(w.nextProbe) {
				continue
			}
			w.probing = true
			r.wg.Add(1)
			go r.probe(w.url)
		}
		r.mu.Unlock()
	}
}

// probe performs one health check against a worker and feeds the result to
// the state machine. Runs outside Router.mu. Only this goroutine clears
// the probing flag it runs under: a dispatch or feed failure noted while
// the probe is still blocked must not let probeLoop start a second one,
// or the pair would double-count toward ProbeDownAfter.
func (r *Router) probe(url string) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		r.workers[url].probing = false
		r.mu.Unlock()
	}()
	// Any answer but a 200 from /readyz is a failure: a draining worker
	// must leave the rotation just like a dead one. /statz only feeds
	// gauges and the warmth hint; a failed read of it counts as all zero.
	q, depth, err := r.probeClient.Ready(context.Background(), url)
	if err != nil {
		r.noteWorkerFailure(url, err.Error())
		return
	}
	sz, _ := r.probeClient.Statz(context.Background(), url)
	r.mu.Lock()
	w := r.workers[url]
	if w != nil {
		w.queued, w.queueDepth = q, depth
		w.accepted, w.completed, w.shed = sz.Metrics.Accepted, sz.Metrics.Completed, sz.Metrics.Shed
		w.warmth = sz.Warmth.TBStoreBlocks
	}
	r.mu.Unlock()
	r.noteWorkerSuccess(url)
}

// noteWorkerSuccess records a successful interaction: reset the failure
// streak, rejoin the ring if the worker was down, resume normal cadence.
func (r *Router) noteWorkerSuccess(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[url]
	if w == nil {
		return
	}
	w.lastProbe = time.Now()
	w.consecFails = 0
	w.lastErr = ""
	w.backoff = 0
	w.nextProbe = w.lastProbe.Add(r.opts.ProbeInterval)
	if w.state == stateDown {
		w.rejoins++
		r.ring.add(url)
		r.opts.Logger.Printf("router: worker %s recovered, rejoining ring", url)
	}
	w.state = stateHealthy
}

// noteWorkerFailure records a failed probe/dispatch/feed attempt and
// advances the state machine, evicting and failing over on the down
// transition.
func (r *Router) noteWorkerFailure(url, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[url]
	if w == nil {
		return
	}
	w.lastProbe = time.Now()
	w.consecFails++
	w.lastErr = detail
	switch {
	case w.consecFails >= r.opts.ProbeDownAfter:
		if w.state != stateDown {
			w.state = stateDown
			w.downs++
			r.ring.remove(url)
			r.opts.Logger.Printf("router: worker %s down after %d failures (%s), evicting and failing over",
				url, w.consecFails, detail)
			r.failoverWorkerLocked(url)
		}
		// Exponential probe backoff while down, jittered so a fleet of
		// routers does not probe a rebooting worker in lockstep.
		if w.backoff == 0 {
			w.backoff = r.opts.ProbeInterval
		} else if w.backoff < r.opts.ProbeBackoffMax {
			w.backoff *= 2
			if w.backoff > r.opts.ProbeBackoffMax {
				w.backoff = r.opts.ProbeBackoffMax
			}
		}
		w.nextProbe = w.lastProbe.Add(jitter(w.backoff))
	case w.consecFails >= r.opts.ProbeSuspectAfter && w.state == stateHealthy:
		w.state = stateSuspect
		w.nextProbe = w.lastProbe.Add(r.opts.ProbeInterval)
	default:
		w.nextProbe = w.lastProbe.Add(r.opts.ProbeInterval)
	}
}

// jitter spreads d over [0.5d, 1.5d).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
