package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atomemu/internal/asm"
	"atomemu/internal/engine"
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

// wedgedGAC can never succeed an SC (the store-exclusive targets a
// different address than the load-exclusive), so the progress watchdog
// trips — the canonical scheme-implicating failure for breaker tests.
const wedgedGAC = `
var x;
var y;
func main(n) {
    while (1) {
        ll(&x);
        sc(&y, 1);
    }
}
`

// spinGAC burns cycles until a deadline or cancellation stops it.
const spinGAC = `
var sink;
func main(n) {
    while (1) {
        sink = sink + 1;
    }
}
`

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func awaitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func TestGACJobCompletes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Threads: 2, Arg: 500})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateDone || st.Class != "ok" || st.ExitCode != 0 {
		t.Fatalf("state=%s class=%s exit=%d err=%q", st.State, st.Class, st.ExitCode, st.Error)
	}
	if len(st.Output) != 2 {
		t.Fatalf("output = %v, want two printed counters", st.Output)
	}
	if st.SCs == 0 || st.GuestInstrs == 0 || st.VirtualTime == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if got := s.Metrics().Completed; got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}

func TestImageJobCompletes(t *testing.T) {
	im, err := asm.Assemble(`
.org 0x10000
.entry main
main:
    movi r0, #41
    addi r0, r0, #1
    svc #6
    movi r0, #0
    svc #1
`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := im.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1})
	id, err := s.Submit(JobRequest{Scheme: "hst", ImageB64: base64.StdEncoding.EncodeToString(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateDone || len(st.Output) != 1 || st.Output[0] != 42 {
		t.Fatalf("state=%s output=%v err=%q", st.State, st.Output, st.Error)
	}
}

func TestAdmissionRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"unknown scheme", JobRequest{Scheme: "qemu", GAC: counterGAC}, "unknown scheme"},
		{"no program", JobRequest{Scheme: "hst"}, "exactly one"},
		{"both programs", JobRequest{Scheme: "hst", GAC: counterGAC, ImageB64: "AA=="}, "exactly one"},
		{"bad gac", JobRequest{Scheme: "hst", GAC: "func main( {"}, "gac"},
		{"bad image", JobRequest{Scheme: "hst", ImageB64: "!!!"}, "image_b64"},
		{"too many threads", JobRequest{Scheme: "hst", GAC: counterGAC, Threads: 10_000}, "threads"},
		{"bad config", JobRequest{Scheme: "hst", GAC: counterGAC, Config: JobConfig{HashBits: 31}}, "HashBits"},
		{"fault rules not allowed", JobRequest{Scheme: "hst", GAC: counterGAC,
			Fault: []FaultRule{{Op: "mem-store", Action: "fault"}}}, "fault injection"},
	}
	for _, tc := range cases {
		_, err := s.Submit(tc.req)
		se, ok := err.(*SubmitError)
		if !ok || se.Status != http.StatusBadRequest || !strings.Contains(se.Msg, tc.want) {
			t.Errorf("%s: err = %v, want 400 containing %q", tc.name, err, tc.want)
		}
	}
}

func TestAdmissionRejectsBadFaultRules(t *testing.T) {
	// Every malformed fault-rule kind must be rejected at admission (400)
	// with an error naming the offending field, before the job is queued.
	s := newTestServer(t, Options{Workers: 1, AllowFaultInjection: true})
	cases := []struct {
		name string
		rule FaultRule
		want string
	}{
		{"unknown op", FaultRule{Op: "txn-retire", Action: "abort"}, "fault[0].op"},
		{"unknown action", FaultRule{Op: "txn-commit", Action: "explode"}, "fault[0].action"},
		{"empty op", FaultRule{Action: "abort"}, "fault[0].op"},
		{"action none spelled out", FaultRule{Op: "txn-commit", Action: "none"}, "fault[0].action"},
		{"incompatible pair", FaultRule{Op: "hash-unlock", Action: "abort"}, "fault[0]"},
		{"mmu site with tid", FaultRule{Op: "mem-load", Action: "fault", TID: 3}, "fault[0].tid"},
	}
	for _, tc := range cases {
		_, err := s.Submit(JobRequest{Scheme: "hst", GAC: counterGAC, Fault: []FaultRule{tc.rule}})
		se, ok := err.(*SubmitError)
		if !ok || se.Status != http.StatusBadRequest || !strings.Contains(se.Msg, tc.want) {
			t.Errorf("%s: err = %v, want 400 naming %q", tc.name, err, tc.want)
		}
	}

	// The index in the error tracks the offending rule, not just rule 0.
	_, err := s.Submit(JobRequest{Scheme: "hst", GAC: counterGAC, Fault: []FaultRule{
		{Op: "txn-commit", Action: "abort"},
		{Op: "bogus", Action: "abort"},
	}})
	se, ok := err.(*SubmitError)
	if !ok || se.Status != http.StatusBadRequest || !strings.Contains(se.Msg, "fault[1].op") {
		t.Errorf("second-rule error = %v, want 400 naming fault[1].op", err)
	}

	// A well-formed rule still passes admission.
	if _, err := s.Submit(JobRequest{Scheme: "hst", GAC: counterGAC, Fault: []FaultRule{
		{Op: "txn-commit", Action: "poison", After: 10, Count: 2},
	}}); err != nil {
		t.Errorf("valid fault rule rejected: %v", err)
	}
}

func TestQueueOverflowSheds(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1, DrainGrace: 50 * time.Millisecond})
	var accepted, shed int
	for i := 0; i < 6; i++ {
		_, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 300})
		switch {
		case err == nil:
			accepted++
		default:
			se, ok := err.(*SubmitError)
			if !ok || se.Status != http.StatusTooManyRequests {
				t.Fatalf("unexpected submit error: %v", err)
			}
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("six submissions into a 1-worker/1-slot server shed nothing")
	}
	if got := s.Metrics().Shed; got != uint64(shed) {
		t.Fatalf("shed metric = %d, want %d", got, shed)
	}
	// Every accepted job still reaches a terminal state (drain in cleanup
	// would also catch a stuck one).
	for _, st := range s.Jobs() {
		awaitTerminal(t, s, st.ID)
	}
}

func TestWallDeadlineCancelsJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateCanceled {
		t.Fatalf("state = %s (err %q), want canceled", st.State, st.Error)
	}
	if s.Metrics().Canceled != 1 {
		t.Fatalf("canceled metric = %d, want 1", s.Metrics().Canceled)
	}
}

func TestVirtualDeadlineFailsJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: spinGAC,
		Config: JobConfig{VirtualDeadline: 100_000}})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "virtual deadline") {
		t.Fatalf("state=%s err=%q, want failed on the virtual deadline", st.State, st.Error)
	}
}

func TestBreakerDemotesToHSTAndProbes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	wedged := JobRequest{Scheme: "pico-cas", GAC: wedgedGAC,
		Config: JobConfig{WatchdogSCFails: 200}}
	for i := 0; i < 2; i++ {
		id, err := s.Submit(wedged)
		if err != nil {
			t.Fatal(err)
		}
		st := awaitTerminal(t, s, id)
		if st.State != StateFailed || st.Class != "fault" {
			t.Fatalf("wedged job %d: state=%s class=%s err=%q", i, st.State, st.Class, st.Error)
		}
	}
	if got := s.Metrics().BreakerTrips; got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}
	// While open, a healthy pico-cas job runs demoted on portable HST.
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateDone || st.SchemeEffective != "hst" || !st.Demoted {
		t.Fatalf("demoted run: state=%s effective=%s demoted=%v", st.State, st.SchemeEffective, st.Demoted)
	}
	if s.Metrics().Demoted == 0 {
		t.Fatal("demoted metric not incremented")
	}

	// With the cooldown elapsed, the next job is the half-open probe: it
	// runs natively and its success closes the breaker.
	s.breakers.mu.Lock()
	s.breakers.get("pico-cas").openedAt = time.Now().Add(-2 * time.Hour)
	s.breakers.mu.Unlock()
	id, err = s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 100})
	if err != nil {
		t.Fatal(err)
	}
	st = awaitTerminal(t, s, id)
	if st.State != StateDone || st.SchemeEffective != "pico-cas" || st.Demoted {
		t.Fatalf("probe run: state=%s effective=%s demoted=%v", st.State, st.SchemeEffective, st.Demoted)
	}
	for _, b := range s.Breakers() {
		if b.Scheme == "pico-cas" && b.State != "closed" {
			t.Fatalf("breaker should close after a passing probe, is %s", b.State)
		}
	}
}

func TestDrainFinishesAcceptedJobsAndRefusesNew(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueDepth: 8, DrainGrace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A job that only cancellation can stop: drain's grace-period cancel
	// is its checkpoint-abort path.
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: spinGAC, DeadlineMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(JobRequest{Scheme: "hst", GAC: counterGAC}); err == nil {
		t.Fatal("submit after drain should be refused")
	} else if se, ok := err.(*SubmitError); !ok || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %v, want 503", err)
	}
	for _, id := range ids {
		st, _ := s.Status(id)
		if !st.State.Terminal() {
			t.Errorf("job %s not terminal after drain: %s", id, st.State)
		}
	}
}

// TestWorkerPanicIsContained drives the containment path directly: a job
// with no image panics inside run (nil dereference in LoadImage); the
// worker must record a failed job, count the panic, and keep the process
// alive.
func TestWorkerPanicIsContained(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	j := &job{
		id:      "job-panic",
		cfg:     engine.DefaultConfig("pico-cas"),
		threads: 1,
		wallcap: time.Second,
		status:  JobStatus{ID: "job-panic", State: StateQueued, SchemeRequested: "pico-cas", ExitCode: -1},
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.jobWG.Add(1)
	s.run(j)
	st, _ := s.Status(j.id)
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("state=%s err=%q, want contained panic", st.State, st.Error)
	}
	if s.Metrics().Panics != 1 {
		t.Fatalf("panics metric = %d, want 1", s.Metrics().Panics)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(JobRequest{Scheme: "hst", GAC: counterGAC, Arg: 50})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	awaitTerminal(t, s, sub.ID)

	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateDone || len(st.Output) != 1 || st.Output[0] != 50 {
		t.Fatalf("GET /jobs/%s: %+v", sub.ID, st)
	}

	for _, path := range []string{"/healthz", "/readyz", "/statz", "/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	if resp, _ := http.Get(ts.URL + "/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/nope = %d, want 404", resp.StatusCode)
	}
}

// TestAdmitRegistersBeforeHandOff pins the submitter right after its job
// won a queue slot until a worker has finished that job — the interleaving
// a fast-failing job meets when the submitter loses the CPU. The job must
// already be accounted for by then: jobWG.Done may never precede its Add
// (a negative WaitGroup counter panics the daemon), and the finished job
// must be visible to Status.
func TestAdmitRegistersBeforeHandOff(t *testing.T) {
	var s *Server
	s = newTestServer(t, Options{Workers: 1, testAdmitHold: func() {
		deadline := time.Now().Add(30 * time.Second)
		for s.completed.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		// finish has counted the job; give run's deferred jobWG.Done its turn.
		time.Sleep(20 * time.Millisecond)
	}})
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Status(id)
	if !ok || st.State != StateDone {
		t.Fatalf("job finished while its submitter was held: status found=%v state=%s, want done", ok, st.State)
	}
	if got := s.Metrics().Accepted; got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
}
