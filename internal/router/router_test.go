package router

import (
	"context"
	"log"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"atomemu/internal/engine"
	"atomemu/internal/gac"
	"atomemu/internal/server"
)

// counterGAC is the quick healthy job: n atomic increments, print, exit.
const counterGAC = `
var counter;
func main(n) {
    var i = 0;
    while (i < n) {
        atomic_add(&counter, 1);
        i = i + 1;
    }
    print(counter);
    exit(0);
}
`

// milestoneGAC prints a running total after every outer loop of 1000
// atomic increments, so a failover that lost or repeated work corrupts
// the output *sequence*, not just the final value. Arg is the outer loop
// count.
const milestoneGAC = `
var total;
func main(n) {
    var outer = 0;
    var i = 0;
    while (outer < n) {
        i = 0;
        while (i < 1000) {
            atomic_add(&total, 1);
            i = i + 1;
        }
        outer = outer + 1;
        print(total);
    }
    exit(0);
}
`

// testWorker is one in-process atomemud behind a real listener, killable
// mid-burst.
type testWorker struct {
	srv    *server.Server
	ts     *httptest.Server
	reborn net.Listener // second listener after a test revives the worker
	killed bool
}

func (w *testWorker) url() string { return w.ts.URL }

// kill is the SIGKILL-equivalent for an in-process worker: the listener
// closes and every established connection is torn down, so probes, polls
// and dispatches all fail from this instant. The server.Server itself
// keeps running its jobs — exactly the partitioned-zombie scenario the
// exactly-once argument must survive.
func (w *testWorker) kill() {
	if w.killed {
		return
	}
	w.killed = true
	w.ts.Listener.Close()
	if w.reborn != nil {
		w.reborn.Close()
	}
	w.ts.CloseClientConnections()
}

func startWorker(t *testing.T, opts server.Options) *testWorker {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	w := &testWorker{srv: s, ts: ts}
	t.Cleanup(func() {
		w.kill()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("worker drain: %v", err)
		}
	})
	return w
}

// fastOptions are router timings tuned for tests: sub-second down
// detection, frequent checkpoint fetches.
func fastOptions(urls ...string) Options {
	return Options{
		Workers:                 urls,
		ProbeInterval:           20 * time.Millisecond,
		ProbeTimeout:            500 * time.Millisecond,
		ProbeSuspectAfter:       1,
		ProbeDownAfter:          2,
		ProbeBackoffMax:         200 * time.Millisecond,
		CheckpointFetchInterval: 100 * time.Millisecond,
	}
}

func newTestRouter(t *testing.T, opts Options) *Router {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func awaitRouterTerminal(t *testing.T, r *Router, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v, ok := r.Status(id)
		if !ok {
			t.Fatalf("job %s vanished from the router", id)
		}
		if v.State.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, _ := r.Status(id)
	t.Fatalf("job %s never reached a terminal state (state=%s worker=%s)", id, v.State, v.Worker)
	return JobView{}
}

// referenceOutput runs the program uninterrupted on a bare engine — the
// ground truth routed results must be byte-identical to.
func referenceOutput(t *testing.T, src string, arg uint32) []uint32 {
	t.Helper()
	im, err := gac.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.NewMachine(engine.DefaultConfig("pico-cas"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnThread(im.Entry, arg); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Output()
}

func equalOutputs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterRoutesAndProxies: jobs submitted to the router run on the
// fleet, terminal views carry the worker's status, idempotency keys map
// to one router id forever, and each job is admitted exactly once across
// the fleet.
func TestRouterRoutesAndProxies(t *testing.T) {
	w1 := startWorker(t, server.Options{})
	w2 := startWorker(t, server.Options{})
	r := newTestRouter(t, fastOptions(w1.url(), w2.url()))

	const n = 6
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id, err := r.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: counterGAC, Arg: 300,
			IdempotencyKey: "route-" + string(rune('a'+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		v := awaitRouterTerminal(t, r, id, 30*time.Second)
		if v.State != jobDone {
			t.Fatalf("job %d: state=%s err=%q", i, v.State, v.Error)
		}
		if v.Status == nil || len(v.Status.Output) != 1 || v.Status.Output[0] != 300 {
			t.Fatalf("job %d: missing or wrong proxied status: %+v", i, v.Status)
		}
		if v.Worker != w1.url() && v.Worker != w2.url() {
			t.Fatalf("job %d: unknown worker %q", i, v.Worker)
		}
	}
	// Keys keep answering with the same router id after completion.
	for i, want := range ids {
		id, err := r.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: counterGAC, Arg: 300,
			IdempotencyKey: "route-" + string(rune('a'+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("key re-submit %d: got %s, want %s", i, id, want)
		}
	}
	if got := r.completed.Load(); got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
	// Exactly-once admission across the fleet: the workers together
	// admitted each job once, none twice.
	total := w1.srv.Metrics().Accepted + w2.srv.Metrics().Accepted
	if total != n {
		t.Fatalf("fleet accepted %d jobs, want %d", total, n)
	}
}

// TestRouterQuotaShedsWith429: a tenant at its quota is shed with a
// Retry-After, and the quota frees as its jobs finish.
func TestRouterQuotaShedsWith429(t *testing.T) {
	w := startWorker(t, server.Options{Workers: 2, QueueDepth: 32})
	opts := fastOptions(w.url())
	opts.QuotaPerWeight = 2
	r := newTestRouter(t, opts)

	mk := func() (string, error) {
		return r.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: milestoneGAC, Arg: 200, Tenant: "q",
			Config: server.JobConfig{CheckpointEvery: 50000},
		})
	}
	id1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	_, err = mk()
	se, ok := err.(*server.SubmitError)
	if !ok || se.Status != 429 {
		t.Fatalf("third submit: got %v, want a 429 SubmitError", err)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("429 carried Retry-After %d, want >= 1", se.RetryAfter)
	}
	awaitRouterTerminal(t, r, id1, 60*time.Second)
	awaitRouterTerminal(t, r, id2, 60*time.Second)
	// Quota slots freed: the tenant admits again.
	if _, err := mk(); err != nil {
		t.Fatalf("post-completion submit still shed: %v", err)
	}
	r.mu.Lock()
	shed := r.tenants["q"].shedQuota
	r.mu.Unlock()
	if shed != 1 {
		t.Fatalf("tenant shedQuota = %d, want 1", shed)
	}
}

// heldRequest reports how many bytes of its request the router's record of
// id still holds, and the record's worker-side key.
func heldRequest(r *Router, id string) (int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[id]
	return len(j.raw) + len(j.ckpt), j.wkey
}

// TestRouterJournalRecovery: a router restarted on its DataDir keeps its
// idempotency table and re-adopts a job that was in flight on a worker,
// finalizing it without re-running anything. Along the way the job record
// stays lean: the program is held once while the job is live and not at
// all once it is terminal, whether the record was admitted or replayed.
func TestRouterJournalRecovery(t *testing.T) {
	w := startWorker(t, server.Options{})
	dir := t.TempDir()

	opts := fastOptions(w.url())
	opts.DataDir = dir
	r1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	doneID, err := r1.Submit(server.JobRequest{
		Scheme: "pico-cas", GAC: counterGAC, Arg: 100, IdempotencyKey: "jr-done",
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitRouterTerminal(t, r1, doneID, 30*time.Second)
	if n, _ := heldRequest(r1, doneID); n != 0 {
		t.Fatalf("terminal job still holds %d bytes of its request", n)
	}

	liveID, err := r1.Submit(server.JobRequest{
		Scheme: "pico-cas", GAC: milestoneGAC, Arg: 600, IdempotencyKey: "jr-live",
		DeadlineMS: 120_000, // the default 30s is too tight under -race on two cores
		Config:     server.JobConfig{CheckpointEvery: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the hand-off so the dispatched record is on disk, then stop
	// the router cold. The job keeps running on the worker.
	deadline := time.Now().Add(15 * time.Second)
	for {
		r1.mu.Lock()
		st := r1.jobs[liveID].state
		r1.mu.Unlock()
		if st == jobDispatched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never dispatched", liveID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	r1.Close()

	r2 := newTestRouter(t, opts)
	if n, _ := heldRequest(r2, doneID); n != 0 {
		t.Fatalf("replayed terminal job holds %d bytes of its request", n)
	}
	if n, wkey := heldRequest(r2, liveID); n == 0 || n > 2*len(milestoneGAC)+512 || wkey != "jr-live" {
		t.Fatalf("replayed live job holds %d bytes (program is %d) under worker key %q; want the request once, key jr-live",
			n, len(milestoneGAC), wkey)
	}
	// The restarted router re-adopts: same ids for both keys, and the
	// in-flight job reaches done through reconciliation with the worker.
	for key, want := range map[string]string{"jr-done": doneID, "jr-live": liveID} {
		id, err := r2.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: counterGAC, Arg: 100, IdempotencyKey: key,
		})
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("key %s: got %s after restart, want %s", key, id, want)
		}
	}
	v := awaitRouterTerminal(t, r2, liveID, 60*time.Second)
	if v.State != jobDone {
		t.Fatalf("re-adopted job: state=%s err=%q", v.State, v.Error)
	}
	if !equalOutputs(v.Status.Output, referenceOutput(t, milestoneGAC, 600)) {
		t.Fatalf("re-adopted job output diverged: %v", v.Status.Output)
	}
	if n, _ := heldRequest(r2, liveID); n != 0 {
		t.Fatalf("re-adopted job still holds %d bytes of its request after finishing", n)
	}
	done, _ := r2.Status(doneID)
	if done.State != jobDone || done.Status == nil {
		t.Fatalf("terminal job lost its final status across restart: %+v", done)
	}
}
