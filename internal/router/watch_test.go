package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/server"
)

// awaitCond polls cond (never Router.Status, which would itself finalize a
// finished job and hide a broken feed) until it holds.
func awaitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobSnapshot reads a router job's state under the lock.
func jobSnapshot(r *Router, id string) (state jobState, finishedAt time.Time, final *server.JobStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[id]
	return j.state, j.finishedAt, j.final
}

// countingWorker is a real server.New worker behind a handler that counts
// the per-job status requests it receives (GET /jobs/{id}, not the
// checkpoint or resume sub-resources).
type countingWorker struct {
	srv        *server.Server
	ts         *httptest.Server
	statusGETs atomic.Int64

	// handler is what the listener serves; swapping it for another
	// server.New's handler is "the process behind this address restarted".
	handler atomic.Pointer[http.Handler]
	// holdFeed, while set, parks every new /completions request before it
	// reaches the server; parkedFeeds counts the requests parked right now.
	holdFeed    atomic.Bool
	parkedFeeds atomic.Int64
}

func startCountingWorker(t *testing.T, opts server.Options) *countingWorker {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &countingWorker{srv: srv}
	inner := srv.Handler()
	w.handler.Store(&inner)
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if rest, ok := strings.CutPrefix(req.URL.Path, "/jobs/"); ok && req.Method == http.MethodGet && !strings.Contains(rest, "/") {
			w.statusGETs.Add(1)
		}
		if req.URL.Path == "/completions" && w.holdFeed.Load() {
			w.parkedFeeds.Add(1)
			for w.holdFeed.Load() && req.Context().Err() == nil {
				time.Sleep(time.Millisecond)
			}
			w.parkedFeeds.Add(-1)
		}
		(*w.handler.Load()).ServeHTTP(rw, req)
	}))
	t.Cleanup(func() {
		w.ts.CloseClientConnections()
		w.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("worker drain: %v", err)
		}
	})
	return w
}

// TestFeedFinalizesPromptlyWithoutStatusRequests: with no status sweep
// configured anywhere (there is none to configure), a real worker's jobs
// are finalized by its completion feed within 50ms of the worker's own
// FinishedAt, and a dispatched job costs its worker zero router-originated
// status GETs.
func TestFeedFinalizesPromptlyWithoutStatusRequests(t *testing.T) {
	w := startCountingWorker(t, server.Options{Workers: 2})
	r := newTestRouter(t, fastOptions(w.ts.URL))
	// A healthy feed: first contact made, its (empty) resync done, the
	// watcher parked in the long-poll.
	awaitCond(t, 10*time.Second, "the watcher to settle into its long-poll", func() bool {
		return scrape(t, w.srv.WritePrometheus).Values()["atomemu_completions_waiters"] == 1
	})

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: uint32(20000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	awaitCond(t, 30*time.Second, "every job to be finalized by the feed", func() bool {
		return r.completed.Load() == n
	})
	for i, id := range ids {
		state, finishedAt, final := jobSnapshot(r, id)
		if state != jobDone || final == nil || len(final.Output) != 1 || final.Output[0] != uint32(20000+i) {
			t.Fatalf("job %d: state=%s final=%+v", i, state, final)
		}
		if lag := finishedAt.Sub(final.FinishedAt); lag < 0 || lag > 50*time.Millisecond {
			t.Errorf("job %d: finalized %v after the worker finished it, want within 50ms", i, lag)
		}
	}
	if got := w.statusGETs.Load(); got != 0 {
		t.Errorf("worker served %d router-originated status GETs, want 0", got)
	}
	if h := r.finishLag.Snapshot(); h.Count != n {
		t.Errorf("finish-lag histogram counted %d jobs, want %d", h.Count, n)
	}
	if got := r.watchResyncs[resyncStart].Load(); got != 1 {
		t.Errorf("start resyncs = %d, want 1 (one worker, one first contact)", got)
	}
	if got := r.watchEvents.Load(); got != n {
		t.Errorf("watch events = %d, want %d", got, n)
	}
}

// TestStatusFinalizesTerminalProxy: a status read that finds the worker's
// copy terminal returns the final view — not "dispatched" wrapped around a
// finished status — and is what finalized the job (the stub publishes no
// event for it).
func TestStatusFinalizesTerminalProxy(t *testing.T) {
	stub := newStubWorker(t)
	r := newTestRouter(t, fastOptions(stub.ts.URL))
	id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitCond(t, 10*time.Second, "dispatch", func() bool { s, _, _ := jobSnapshot(r, id); return s == jobDispatched })
	if v, _ := r.Status(id); v.State != jobDispatched || v.Status == nil || v.Status.State != server.StateRunning {
		t.Fatalf("live view = %+v, want dispatched around a running status", v)
	}
	stub.finish("job-1", false) // terminal on the worker, but no feed event
	v, ok := r.Status(id)
	if !ok || v.State != jobDone || v.Status == nil || v.Status.State != server.StateDone || v.FinishedAt.IsZero() {
		t.Fatalf("view after the worker finished = %+v, want the final done view", v)
	}
	if got := r.completed.Load(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}

// stubWorker is a scripted worker: it answers the probes, accepts every
// POST /jobs as job-1, job-2, …, serves their statuses (counting the
// requests), and runs a completion feed the test drives by hand.
type stubWorker struct {
	ts *httptest.Server

	mu         sync.Mutex
	epoch      string
	jobs       map[string]*server.JobStatus
	keys       map[string]string // worker job id → idempotency key
	nextID     int
	events     []string // feed log: worker job ids, event n at events[n-1]
	wake       chan struct{}
	statusGETs int
	feedGETs   int

	// beforeAccept, when set, runs in the POST handler after the job exists
	// and before the 202 is written.
	beforeAccept func(id string)
	// mangle, when set, may take over one feed response (return true).
	mangle func(rw http.ResponseWriter) bool
	// feedGate, when set, holds every feed request until it is closed.
	feedGate chan struct{}
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	s := &stubWorker{epoch: "stub-epoch", jobs: map[string]*server.JobStatus{}, keys: map[string]string{}, wake: make(chan struct{})}
	s.ts = httptest.NewServer(http.HandlerFunc(s.serve))
	t.Cleanup(func() {
		s.ts.CloseClientConnections()
		s.ts.Close()
	})
	return s
}

// awaitSettled waits until the router's watch loop is past first contact
// (a second feed request means the first-contact resync is over). A job
// that finishes before that is picked up by the resync or by the
// dispatch's own status read — correct, but not the feed path.
func (s *stubWorker) awaitSettled(t *testing.T) {
	t.Helper()
	awaitCond(t, 10*time.Second, "the feed to settle", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.feedGETs >= 2
	})
}

// finish turns a job terminal; publish also appends it to the feed.
func (s *stubWorker) finish(id string, publish bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.jobs[id]
	st.State = server.StateDone
	st.FinishedAt = time.Now()
	st.Output = []uint32{7}
	if publish {
		s.publishLocked(id)
	}
}

func (s *stubWorker) publishLocked(id string) {
	s.events = append(s.events, id)
	close(s.wake)
	s.wake = make(chan struct{})
}

func (s *stubWorker) serve(rw http.ResponseWriter, req *http.Request) {
	writeJSON := func(code int, v any) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(code)
		json.NewEncoder(rw).Encode(v)
	}
	switch {
	case req.URL.Path == "/readyz" || req.URL.Path == "/statz":
		writeJSON(http.StatusOK, map[string]any{"status": "ready"})
	case req.URL.Path == "/jobs" && req.Method == http.MethodPost:
		var jr server.JobRequest
		if err := json.NewDecoder(req.Body).Decode(&jr); err != nil {
			writeJSON(http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		s.mu.Lock()
		s.nextID++
		id := "job-" + strconv.Itoa(s.nextID)
		s.jobs[id] = &server.JobStatus{ID: id, State: server.StateRunning, StartedAt: time.Now()}
		s.keys[id] = jr.IdempotencyKey
		hook := s.beforeAccept
		s.mu.Unlock()
		if hook != nil {
			hook(id)
		}
		writeJSON(http.StatusAccepted, map[string]string{"id": id, "state": "queued"})
	case strings.HasPrefix(req.URL.Path, "/jobs/"):
		id := strings.TrimPrefix(req.URL.Path, "/jobs/")
		s.mu.Lock()
		s.statusGETs++
		st, ok := s.jobs[id]
		var cp server.JobStatus
		if ok {
			cp = *st
		}
		key := s.keys[id]
		s.mu.Unlock()
		if !ok {
			writeJSON(http.StatusNotFound, map[string]string{"error": "no such job"})
			return
		}
		rw.Header().Set(server.KeyHeader, key)
		writeJSON(http.StatusOK, cp)
	case req.URL.Path == "/completions":
		s.serveFeed(rw, req, writeJSON)
	default:
		http.NotFound(rw, req)
	}
}

func (s *stubWorker) serveFeed(rw http.ResponseWriter, req *http.Request, writeJSON func(int, any)) {
	if s.feedGate != nil {
		select {
		case <-s.feedGate:
		case <-req.Context().Done():
			return
		}
	}
	q := req.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	for {
		s.mu.Lock()
		s.feedGETs++
		head := uint64(len(s.events))
		resp := server.CompletionsResponse{Epoch: s.epoch, Seq: head}
		wake := s.wake
		switch {
		case q.Get("epoch") != s.epoch || after > head:
			resp.Reset = true
		default:
			for _, id := range s.events[after:] {
				resp.Jobs = append(resp.Jobs, server.Completion{Key: s.keys[id], JobStatus: *s.jobs[id]})
			}
		}
		mangle := s.mangle
		s.mu.Unlock()
		if resp.Reset || len(resp.Jobs) > 0 {
			if mangle != nil && mangle(rw) {
				return
			}
			writeJSON(http.StatusOK, resp)
			return
		}
		select {
		case <-wake:
		case <-time.After(30 * time.Millisecond): // a short "wait" so idle expiry is cheap to observe
			writeJSON(http.StatusOK, resp)
			return
		case <-req.Context().Done():
			return
		}
	}
}

// TestIdleFeedExpiryCountsNoFailure: a feed whose waits keep expiring
// empty is a healthy feed — no failure is counted, the worker stays
// healthy and its watch stays live.
func TestIdleFeedExpiryCountsNoFailure(t *testing.T) {
	stub := newStubWorker(t)
	r := newTestRouter(t, fastOptions(stub.ts.URL))
	awaitCond(t, 10*time.Second, "several idle feed expiries", func() bool {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return stub.feedGETs >= 6
	})
	wv := r.Workers()[0]
	if wv.State != "healthy" || wv.ConsecFails != 0 || !wv.WatchLive || wv.Downs != 0 {
		t.Fatalf("worker after idle expiries = %+v, want healthy, live, no failures", wv)
	}
}

// TestEarlyCompletionIsClaimedAtDispatch: the worker finishes the job and
// its event reaches the router before the 202 that names the worker-side
// id has been processed. The event must be kept on the pending job, not
// dropped, and claimed when tryDispatch records the dispatch — without a
// status GET.
func TestEarlyCompletionIsClaimedAtDispatch(t *testing.T) {
	stub := newStubWorker(t)
	var r *Router
	stub.beforeAccept = func(id string) {
		stub.finish(id, true)
		// Hold the 202 until the watch loop has consumed the early event.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			r.mu.Lock()
			var kept bool
			for _, j := range r.workers[stub.ts.URL].pending {
				kept = j.early != nil
			}
			r.mu.Unlock()
			if kept {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	r = newTestRouter(t, fastOptions(stub.ts.URL))
	stub.awaitSettled(t)
	id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitCond(t, 15*time.Second, "the early completion to finalize the job", func() bool {
		return r.completed.Load() == 1
	})
	state, _, final := jobSnapshot(r, id)
	if state != jobDone || final == nil || final.ID != "job-1" {
		t.Fatalf("state=%s final=%+v, want done from job-1's early event", state, final)
	}
	stub.mu.Lock()
	gets := stub.statusGETs
	stub.mu.Unlock()
	if gets != 0 {
		t.Errorf("early completion cost %d status GETs, want 0 (the event carries the status)", gets)
	}
	r.mu.Lock()
	w := r.workers[stub.ts.URL]
	pending, inflight := len(w.pending), len(w.inflight)
	r.mu.Unlock()
	if pending != 0 || inflight != 0 {
		t.Errorf("after the dispatch: %d pending, %d in flight, want 0 and 0", pending, inflight)
	}
}

// TestDispatchAcrossResyncReconcilesItself: the one window the feed cannot
// cover. The job finishes, and the feed is (re)established — cursor adopted
// past the event, in-flight jobs listed — all while the dispatch's 202 is
// still in flight, so neither the watch nor the list sees the job. The
// dispatcher notices the resync it was left out of and asks once itself.
func TestDispatchAcrossResyncReconcilesItself(t *testing.T) {
	stub := newStubWorker(t)
	stub.feedGate = make(chan struct{})
	var r *Router
	stub.beforeAccept = func(id string) {
		stub.finish(id, true)
		close(stub.feedGate) // first contact happens now, past the event
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			r.mu.Lock()
			listed := r.workers[stub.ts.URL].syncGen > 0
			r.mu.Unlock()
			if listed {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	r = newTestRouter(t, fastOptions(stub.ts.URL))
	id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitCond(t, 15*time.Second, "the dispatcher's own reconcile to finalize the job", func() bool {
		return r.completed.Load() == 1
	})
	if state, _, final := jobSnapshot(r, id); state != jobDone || final == nil || final.ID != "job-1" {
		t.Fatalf("state=%s final=%+v, want done from job-1", state, final)
	}
	stub.mu.Lock()
	gets := stub.statusGETs
	stub.mu.Unlock()
	if gets != 1 {
		t.Errorf("the uncovered window cost %d status GETs, want exactly 1", gets)
	}
	if got := r.watchEvents.Load(); got != 0 {
		t.Errorf("watch events = %d, want 0 (the event was below the adopted cursor)", got)
	}
}

// TestDuplicateDeliveryFinalizesOnce: a feed response cut off mid-body
// must not advance the cursor (the event is asked for again), and an event
// delivered a second time after the job was finalized must move nothing:
// counters, the journal's finished record and the tenant's live/inflight
// gauges each move exactly once.
func TestDuplicateDeliveryFinalizesOnce(t *testing.T) {
	stub := newStubWorker(t)
	var cut atomic.Bool
	stub.mangle = func(rw http.ResponseWriter) bool {
		stub.mu.Lock()
		hasEvent := len(stub.events) > 0
		stub.mu.Unlock()
		if !hasEvent || !cut.CompareAndSwap(false, true) {
			return false
		}
		// The first response that would carry the event dies mid-body.
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusOK)
		fmt.Fprint(rw, `{"epoch":"stub-epoch","seq":1,"jobs":[{"key":"fab:fab-1","id":"job-1","sta`)
		return true
	}
	opts := fastOptions(stub.ts.URL)
	opts.ProbeDownAfter = 1000 // the cut response is one counted failure, never a down transition
	opts.DataDir = t.TempDir()
	opts.JournalSync = durable.SyncAlways
	r := newTestRouter(t, opts)
	stub.awaitSettled(t)

	id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1, Tenant: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	awaitCond(t, 10*time.Second, "dispatch", func() bool { s, _, _ := jobSnapshot(r, id); return s == jobDispatched })
	stub.finish("job-1", true)
	awaitCond(t, 10*time.Second, "finalization after the cut response was retried", func() bool {
		return r.completed.Load() == 1
	})
	if !cut.Load() {
		t.Fatal("the feed response was never cut; the test did not exercise the retry")
	}
	// Deliver the same job again under a new sequence number.
	events := r.watchEvents.Load()
	stub.mu.Lock()
	stub.publishLocked("job-1")
	stub.mu.Unlock()
	awaitCond(t, 10*time.Second, "the duplicate event to be consumed", func() bool {
		return r.watchEvents.Load() > events
	})

	if got := r.completed.Load(); got != 1 {
		t.Errorf("completed = %d after a duplicate delivery, want 1", got)
	}
	tv := r.Tenants()[0]
	if tv.Name != "dup" || tv.Live != 0 || tv.Inflight != 0 || tv.Completed != 1 {
		t.Errorf("tenant after a duplicate delivery = %+v, want live 0, inflight 0, completed 1", tv)
	}
	if h := r.finishLag.Snapshot(); h.Count != 1 {
		t.Errorf("finish-lag histogram counted %d, want 1", h.Count)
	}
	r.Close()
	recs, _, err := durable.Replay(opts.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, rec := range recs {
		if rec.Type == durable.TypeFinished && rec.Job == id {
			finished++
		}
	}
	if finished != 1 {
		t.Errorf("journal holds %d finished records for %s, want 1", finished, id)
	}
	if wv := r.Workers()[0]; wv.Downs != 0 {
		t.Errorf("worker went down %d times over one cut response", wv.Downs)
	}
}

// TestProbeFlagSurvivesOtherFailures: a dispatch or feed failure noted
// while a probe is still blocked must not clear the probing flag — or
// probeLoop launches a second probe alongside it and the pair double-counts
// toward ProbeDownAfter.
func TestProbeFlagSurvivesOtherFailures(t *testing.T) {
	var probes, maxProbes atomic.Int64
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/readyz" {
			http.Error(rw, "not now", http.StatusServiceUnavailable)
			return
		}
		n := probes.Add(1)
		for {
			m := maxProbes.Load()
			if n <= m || maxProbes.CompareAndSwap(m, n) {
				break
			}
		}
		select {
		case <-release:
		case <-req.Context().Done():
		}
		probes.Add(-1)
	}))
	defer stub.Close()
	defer close(release)

	opts := fastOptions(stub.URL)
	opts.ProbeTimeout = 5 * time.Second
	opts.ProbeDownAfter = 1000
	r := newTestRouter(t, opts)
	awaitCond(t, 10*time.Second, "the first probe to block", func() bool { return probes.Load() == 1 })
	r.noteWorkerFailure(stub.URL, "dispatch: connection reset")
	r.mu.Lock()
	probing := r.workers[stub.URL].probing
	r.mu.Unlock()
	if !probing {
		t.Fatal("a non-probe failure cleared the probing flag of a probe still in flight")
	}
	// Several probe-loop ticks past every nextProbe the failures set: nothing
	// may join the blocked probe. (The feed keeps failing meanwhile — 503s —
	// which is the traffic that used to clear the flag.)
	time.Sleep(10 * opts.ProbeInterval)
	if got := maxProbes.Load(); got != 1 {
		t.Fatalf("%d probes ran concurrently against one worker, want 1", got)
	}
}

// TestCloseCancelsLongPolls: Close returns promptly although every watch
// loop is parked in a long-poll the worker would hold for seconds.
func TestCloseCancelsLongPolls(t *testing.T) {
	w1 := startWorker(t, server.Options{})
	w2 := startWorker(t, server.Options{})
	r, err := New(fastOptions(w1.url(), w2.url()))
	if err != nil {
		t.Fatal(err)
	}
	awaitCond(t, 10*time.Second, "both feeds to go live", func() bool {
		for _, wv := range r.Workers() {
			if !wv.WatchLive {
				return false
			}
		}
		return true
	})
	// Live means the first (reset) answer arrived; give the loops a moment
	// to get back into the blocking request.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	r.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with idle long-polls in flight, want well under watchWait (%v)", took, watchWait)
	}
}

// exitGAC is the cheapest job there is: it only has to turn terminal.
const exitGAC = `func main(n) { exit(0); }`

// TestRingOverflowResyncLosesNothing: while the watcher is held off the
// feed, the worker publishes more completions than its ring keeps. The
// lapsed cursor is answered reset, and the one resync that follows
// finalizes every router job — none lost, none finalized twice.
func TestRingOverflowResyncLosesNothing(t *testing.T) {
	w := startCountingWorker(t, server.Options{Workers: 2, QueueDepth: 4096})
	opts := fastOptions(w.ts.URL)
	opts.ProbeDownAfter = 1000 // a held long-poll may time out; that must not evict the worker
	r := newTestRouter(t, opts)
	awaitCond(t, 10*time.Second, "the feed to go live", func() bool { return r.Workers()[0].WatchLive })

	direct := func() {
		t.Helper()
		if _, err := w.srv.Submit(server.JobRequest{Scheme: "pico-cas", GAC: exitGAC, Config: server.JobConfig{MemBytes: 1 << 20}}); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the feed. The long-poll already inside the server returns on the
	// next publish; the request after it parks at the gate.
	w.holdFeed.Store(true)
	direct()
	awaitCond(t, 10*time.Second, "the watcher to be held off the feed", func() bool { return w.parkedFeeds.Load() == 1 })

	const routed = 6
	ids := make([]string, routed)
	for i := range ids {
		id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: uint32(50 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	const lap = 1100 // > the worker's 1024-entry ring
	for i := 0; i < lap; i++ {
		direct()
	}
	awaitCond(t, 120*time.Second, "the worker to finish everything", func() bool {
		return w.srv.Metrics().Completed == routed+lap+1
	})
	if got := r.completed.Load(); got != 0 {
		t.Fatalf("router finalized %d jobs while held off the feed (nothing else may tell it)", got)
	}
	w.holdFeed.Store(false)

	awaitCond(t, 30*time.Second, "the resync to finalize every routed job", func() bool {
		return r.completed.Load() == routed
	})
	for i, id := range ids {
		state, _, final := jobSnapshot(r, id)
		if state != jobDone || final == nil || len(final.Output) != 1 || final.Output[0] != uint32(50+i) {
			t.Errorf("job %d: state=%s final=%+v", i, state, final)
		}
	}
	if got := r.watchResyncs[resyncReset].Load(); got != 1 {
		t.Errorf("reset resyncs = %d, want exactly 1", got)
	}
	if tv := r.Tenants()[0]; tv.Live != 0 || tv.Inflight != 0 || tv.Completed != routed {
		t.Errorf("tenant after the resync = %+v, want live 0, inflight 0, completed %d", tv, routed)
	}
}

// TestNewEpochFailsJobsOverWithoutATimer: the process behind a worker's
// address is replaced by a fresh in-memory server. Nothing sweeps job
// statuses any more; it is the feed's epoch change that triggers the
// resync, whose 404s fail the lost jobs over — with the worker never
// going down.
func TestNewEpochFailsJobsOverWithoutATimer(t *testing.T) {
	a := startCountingWorker(t, server.Options{Workers: 2})
	b := startWorker(t, server.Options{Workers: 2})
	opts := fastOptions(a.ts.URL, b.url())
	opts.ProbeDownAfter = 1000 // failover must come from the resync, not the health machine
	r := newTestRouter(t, opts)

	fresh, err := server.New(server.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := fresh.Drain(ctx); err != nil {
			t.Errorf("fresh worker drain: %v", err)
		}
	})
	freshHandler := fresh.Handler()

	// Hold A's feed once the router has its epoch. The long-poll already
	// inside A returns on the next publish (a job the router does not know),
	// and the request after it parks at the gate. From then on A's old
	// process cannot deliver a completion before it dies, so every job the
	// router places on A is still in flight on it at the swap, however fast
	// it runs.
	awaitCond(t, 10*time.Second, "A's feed to go live", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.workers[a.ts.URL].watchLive
	})
	a.holdFeed.Store(true)
	if _, err := a.srv.Submit(server.JobRequest{Scheme: "pico-cas", GAC: exitGAC, Config: server.JobConfig{MemBytes: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	awaitCond(t, 10*time.Second, "the watcher to be held off A's feed", func() bool { return a.parkedFeeds.Load() == 1 })

	// Image content places a job, so vary it until both workers hold one.
	ref := referenceOutput(t, milestoneGAC, 200)
	var ids []string
	placed := map[string]bool{}
	for i := 0; len(placed) < 2; i++ {
		if i == 16 {
			t.Fatal("16 distinct images all hashed to one worker")
		}
		id, err := r.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: milestoneGAC + strings.Repeat("\n", i), Arg: 200, DeadlineMS: 120_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		awaitCond(t, 15*time.Second, "dispatch", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			if j := r.jobs[id]; j.state == jobDispatched {
				placed[j.worker] = true
				return true
			}
			return false
		})
	}
	jobs := uint64(len(ids))
	r.mu.Lock()
	onA := len(r.workers[a.ts.URL].inflight)
	r.mu.Unlock()
	// The old process dies: a fresh server answers on the same address and
	// every connection to the old one breaks. (The old server keeps running
	// its copies — zombies the exactly-once argument tolerates.)
	a.handler.Store(&freshHandler)
	a.ts.CloseClientConnections()
	a.holdFeed.Store(false)

	awaitCond(t, 120*time.Second, "every job to finish after the failover", func() bool {
		return r.completed.Load() == jobs
	})
	for i, id := range ids {
		state, _, final := jobSnapshot(r, id)
		if state != jobDone || final == nil || !equalOutputs(final.Output, ref) {
			t.Errorf("job %d: state=%s output diverged from the uninterrupted reference", i, state)
		}
	}
	if got := r.watchResyncs[resyncEpoch].Load(); got < 1 {
		t.Errorf("epoch resyncs = %d, want >= 1", got)
	}
	if got := r.failoverRedispatch.Load(); got != uint64(onA) {
		t.Errorf("failover redispatches = %d, want %d (the jobs the replaced worker held)", got, onA)
	}
	for _, wv := range r.Workers() {
		if wv.Downs != 0 {
			t.Errorf("worker %s went down %d times; the failover must not have needed the health machine", wv.URL, wv.Downs)
		}
	}
}
