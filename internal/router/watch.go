package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"time"

	"atomemu/internal/server"
)

// Job completion is event-driven: list + watch against each worker's
// completion feed (GET /completions, server/completions.go).
//
// One watch loop per worker holds a long-poll on the feed and finalizes
// jobs as their events arrive, so the router learns of a completion when
// the worker's terminal record is durable, not at the next tick of a
// status sweep, and an in-flight job costs its worker no status requests
// at all. The "list" half — reconcile over the worker's in-flight jobs —
// runs only when the feed is (re)established: at first contact (which is
// also how journal-replayed dispatches are re-adopted), when the worker
// reports the cursor lapsed (reset), and when another process answers (a
// new epoch: an in-memory worker restart shows up as 404s, which fail
// over at once). The cursor is adopted BEFORE the list, so a job that
// completes in between is seen by one of the two.
//
// Events, and every status or checkpoint read, are matched on the job's
// worker-side idempotency key, never on the worker job id alone: a
// restarted in-memory worker numbers its jobs from job-1 again, so the id
// the router remembers may by then name somebody else's job.
//
// Delivery is at-least-once — the cursor only advances past a response
// that was parsed — and finalize is idempotent, so a redelivered event is
// a no-op. A failed attempt (transport error, non-200) counts once toward
// the worker's health and is retried at ProbeInterval: one failure per
// dead worker per attempt, however many jobs it holds.

// watchWait is how long one feed long-poll stays open. It only bounds how
// often an idle feed is re-asked; events cut it short.
const watchWait = 10 * time.Second

// Why a worker's in-flight jobs were reconciled one by one.
const (
	resyncStart = iota // first contact with the worker's feed
	resyncReset        // the worker no longer holds our cursor
	resyncEpoch        // another worker process answers
	numResyncReasons
)

var resyncReasonNames = [numResyncReasons]string{"start", "reset", "epoch"}

// watchLoop follows one worker's completion feed until the router stops.
func (r *Router) watchLoop(url string) {
	defer r.wg.Done()
	var (
		epoch    string
		after    uint64
		needSync bool
	)
	// fail counts one failed attempt and paces the next; false means stop.
	fail := func(detail string) bool {
		if r.ctx.Err() != nil {
			return false
		}
		r.setWatchLive(url, false)
		r.noteWorkerFailure(url, detail)
		return r.sleepStop(r.opts.ProbeInterval)
	}
	for r.ctx.Err() == nil {
		if r.workerDown(url) {
			// The health machine owns a down worker: its jobs failed over at
			// the transition, and the probes decide when it rejoins.
			r.setWatchLive(url, false)
			if !r.sleepStop(r.opts.ProbeInterval) {
				return
			}
			continue
		}
		if needSync {
			if err := r.resync(url); err != nil {
				if !fail("resync: " + err.Error()) {
					return
				}
				continue
			}
			needSync = false
		}
		resp, err := r.fetchCompletions(url, epoch, after)
		if err != nil {
			if !fail("watch: " + err.Error()) {
				return
			}
			continue
		}
		r.setWatchLive(url, true)
		if resp.Reset {
			reason := resyncReset
			switch {
			case epoch == "":
				reason = resyncStart
			case resp.Epoch != epoch:
				reason = resyncEpoch
			}
			r.watchResyncs[reason].Add(1)
			epoch, after, needSync = resp.Epoch, resp.Seq, true
			continue
		}
		r.watchEvents.Add(uint64(len(resp.Jobs)))
		for i := range resp.Jobs {
			r.deliver(url, &resp.Jobs[i])
		}
		after = resp.Seq
	}
}

// fetchCompletions performs one feed long-poll. The request lives under
// the router's lifetime context (Close cancels it mid-wait) with its own
// deadline of the wait plus a probe's worth of slack.
func (r *Router) fetchCompletions(url, epoch string, after uint64) (*server.CompletionsResponse, error) {
	ctx, cancel := context.WithTimeout(r.ctx, watchWait+r.opts.ProbeTimeout)
	defer cancel()
	target := fmt.Sprintf("%s/completions?epoch=%s&after=%d&wait=%d",
		url, neturl.QueryEscape(epoch), after, int(watchWait/time.Second))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.watchClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("completions: %s: %s", resp.Status, body)
	}
	var out server.CompletionsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("bad completions body: %w", err)
	}
	if out.Epoch == "" {
		return nil, fmt.Errorf("bad completions body: no epoch")
	}
	return &out, nil
}

// deliver routes one feed event to the job it finishes, matched on the
// worker-side idempotency key (worker job ids restart with an in-memory
// worker; the key does not). An event nobody is waiting for is normal — a
// redelivery after finalize, or another client's job on a shared worker.
// One for a job whose dispatch POST is still in flight — the worker
// finished it before the 202 was processed — is left on the job for
// tryDispatch to claim.
func (r *Router) deliver(url string, ev *server.Completion) {
	if !ev.State.Terminal() {
		return
	}
	r.mu.Lock()
	w := r.workers[url]
	j := w.inflight[ev.Key]
	if p := w.pending[ev.Key]; j == nil && p != nil {
		p.early = &ev.JobStatus
	}
	r.mu.Unlock()
	if j != nil {
		r.finalize(j, url, &ev.JobStatus)
	}
}

// jobRef names one in-flight job and the worker-side id it had when the
// list was taken under the lock.
type jobRef struct {
	j         *job
	workerJob string
}

// resync reconciles every job in flight on the worker, one status request
// each. syncGen moves in the same critical section that takes the list, so
// a dispatch whose 202 is still in flight (its job is not on the list yet)
// sees the change and reconciles itself.
func (r *Router) resync(url string) error {
	r.mu.Lock()
	w := r.workers[url]
	w.syncGen++
	refs := make([]jobRef, 0, len(w.inflight))
	for _, j := range w.inflight {
		refs = append(refs, jobRef{j, j.workerJob})
	}
	r.mu.Unlock()
	for _, p := range refs {
		if _, err := r.reconcile(p.j, url, p.workerJob); err != nil {
			return err
		}
	}
	return nil
}

func (r *Router) workerDown(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workers[url].state == stateDown
}

func (r *Router) setWatchLive(url string, live bool) {
	r.mu.Lock()
	r.workers[url].watchLive = live
	r.mu.Unlock()
}

// ckptLoop refreshes, every CheckpointFetchInterval, the cached checkpoint
// image of each dispatched job that checkpoints — the image failover will
// ship. Fetching encodes a full snapshot on the worker, so it is the one
// thing still done on a timer, and only for jobs that asked for
// checkpoints. A worker is skipped for the round on its first transport
// error: a hung worker must cost one client timeout, not one per job.
func (r *Router) ckptLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.opts.CheckpointFetchInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-tick.C:
		}
		byWorker := make(map[string][]jobRef)
		r.mu.Lock()
		for url, w := range r.workers {
			for _, j := range w.inflight {
				if j.ckpts {
					byWorker[url] = append(byWorker[url], jobRef{j, j.workerJob})
				}
			}
		}
		r.mu.Unlock()
		for url, refs := range byWorker {
			for _, p := range refs {
				if r.fetchCheckpoint(p.j, url, p.workerJob) != nil {
					break
				}
			}
		}
	}
}
