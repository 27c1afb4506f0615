package router

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/server"
)

// reconcile asks the worker about one dispatched job and acts on the
// answer: a terminal status finalizes the router job, and a worker that
// has forgotten the job — an in-memory restart — fails it over at once.
// It is the "list" half of list+watch (resync runs it over a worker's
// in-flight jobs when its feed is re-established) and the fallback for
// the windows the feed cannot cover. The status is returned for callers
// that proxy it; the error is a transport-level one that implicates the
// worker.
func (r *Router) reconcile(j *job, url, workerJob string) (*server.JobStatus, error) {
	st, found, err := r.client.Status(r.ctx, url, workerJob, j.wkey)
	if err != nil {
		return nil, err
	}
	if !found {
		r.mu.Lock()
		if j.state == jobDispatched && j.worker == url && j.workerJob == workerJob {
			r.failoverLocked(j, fmt.Sprintf("worker %s no longer knows job %s", url, workerJob))
		}
		r.mu.Unlock()
		return nil, nil
	}
	if st.State.Terminal() {
		r.finalize(j, url, &st)
	}
	return &st, nil
}

// failoverLocked re-queues a dispatched job whose worker is gone, arming
// the cached checkpoint (if any) for a resume-style re-dispatch. r.mu held.
func (r *Router) failoverLocked(j *job, why string) {
	j.resumes++
	delete(r.workers[j.worker].inflight, j.wkey)
	j.worker, j.workerJob = "", ""
	j.rounds = 0
	j.resumed = false
	j.useCkpt = len(j.ckpt) > 0
	t := r.tenants[j.tenant]
	t.inflight--
	r.failoverRedispatch.Add(1)
	if j.useCkpt {
		r.opts.Logger.Printf("router: failing over %s (%s), shipping checkpoint at vt=%d", j.id, why, j.ckptVT)
	} else {
		r.opts.Logger.Printf("router: failing over %s (%s), no checkpoint cached, restarting", j.id, why)
	}
	r.enqueueLocked(t, j)
}

// failoverWorkerLocked fails over every job in flight on a worker that
// just went down. r.mu held (called from the health machine's down
// transition).
func (r *Router) failoverWorkerLocked(url string) {
	for _, j := range r.workers[url].inflight {
		r.failoverLocked(j, "worker down")
	}
}

// finalize records a worker-terminal status as the job's final state. It
// is idempotent — the feed delivers at least once, and a resync or a
// proxied status read may race it to the same job — so only the first
// caller moves the counters and journals the finished record.
func (r *Router) finalize(j *job, url string, st *server.JobStatus) {
	now := time.Now()
	r.mu.Lock()
	if j.state != jobDispatched || j.worker != url {
		r.mu.Unlock()
		return
	}
	delete(r.workers[url].inflight, j.wkey)
	if st.State == server.StateDone {
		j.state = jobDone
	} else {
		j.state = jobFailed
		j.errMsg = st.Error
	}
	j.final = st
	j.finishedAt = now
	j.release()
	t := r.tenants[j.tenant]
	t.inflight--
	t.live--
	t.finishes.Note(now)
	if j.state == jobDone {
		t.completed++
	} else {
		t.failed++
	}
	r.mu.Unlock()
	if j.state == jobDone {
		r.completed.Add(1)
	} else {
		r.failed.Add(1)
	}
	if !st.FinishedAt.IsZero() {
		// Clamped: across hosts the worker's clock may run ahead of ours.
		r.finishLag.Observe(max(now.Sub(st.FinishedAt), 0).Seconds())
	}
	r.journalFinish(j)
}

// JobView is the router's wire representation of one job.
type JobView struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     jobState `json:"state"`
	Worker    string   `json:"worker,omitempty"`
	WorkerJob string   `json:"worker_job,omitempty"`
	// Resumes counts failover re-dispatches; Resumed reports whether the
	// current (or final) dispatch continued from a shipped checkpoint.
	Resumes int  `json:"resumes,omitempty"`
	Resumed bool `json:"resumed,omitempty"`
	// CkptVirtualTime is the virtual time of the latest cached checkpoint
	// image (the failover resume point).
	CkptVirtualTime uint64 `json:"ckpt_virtual_time,omitempty"`
	Error           string `json:"error,omitempty"`

	EnqueuedAt   time.Time `json:"enqueued_at"`
	DispatchedAt time.Time `json:"dispatched_at,omitempty"`
	FinishedAt   time.Time `json:"finished_at,omitempty"`

	// Status is the worker's JobStatus: final for terminal jobs, a live
	// proxy snapshot for dispatched ones (absent when the worker cannot be
	// reached).
	Status *server.JobStatus `json:"status,omitempty"`
}

func (r *Router) viewLocked(j *job) JobView {
	return JobView{
		ID: j.id, Tenant: j.tenant, State: j.state,
		Worker: j.worker, WorkerJob: j.workerJob,
		Resumes: j.resumes, Resumed: j.resumed,
		CkptVirtualTime: j.ckptVT, Error: j.errMsg,
		EnqueuedAt: j.enqueuedAt, DispatchedAt: j.dispatchedAt,
		FinishedAt: j.finishedAt, Status: j.final,
	}
}

// Status returns one job's view. For a dispatched job the worker's live
// status is proxied in best-effort — and acted on: a terminal answer
// finalizes the job, so the caller gets the final view, not "dispatched"
// around a finished status.
func (r *Router) Status(id string) (JobView, bool) {
	r.mu.Lock()
	j := r.jobs[id]
	if j == nil {
		r.mu.Unlock()
		return JobView{}, false
	}
	v := r.viewLocked(j)
	var url, workerJob string
	if j.state == jobDispatched {
		url, workerJob = j.worker, j.workerJob
	}
	r.mu.Unlock()
	if url != "" {
		st, err := r.reconcile(j, url, workerJob)
		if err != nil {
			return v, true
		}
		r.mu.Lock()
		v = r.viewLocked(j)
		r.mu.Unlock()
		if v.Status == nil {
			v.Status = st
		}
	}
	return v, true
}

// Jobs lists every job's view (no live proxying), newest id last.
func (r *Router) Jobs() []JobView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobView, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, r.viewLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return jobIDLess(out[i].ID, out[k].ID) })
	return out
}

// jobIDLess orders "fab-N" ids numerically.
func jobIDLess(a, b string) bool {
	pa, _ := strconv.Atoi(strings.TrimPrefix(a, "fab-"))
	pb, _ := strconv.Atoi(strings.TrimPrefix(b, "fab-"))
	if pa != pb {
		return pa < pb
	}
	return a < b
}

// journalFinish appends the job's terminal view to the router journal.
func (r *Router) journalFinish(j *job) {
	r.mu.Lock()
	v := r.viewLocked(j)
	r.mu.Unlock()
	data, err := json.Marshal(v)
	if err != nil {
		r.opts.Logger.Printf("router: encoding final view of %s: %v", j.id, err)
		return
	}
	r.journalAppend(durable.Record{
		Type: durable.TypeFinished, Job: j.id, Key: j.key,
		Status: json.RawMessage(data), UnixMS: v.FinishedAt.UnixMilli(),
	})
}
