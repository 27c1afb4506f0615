package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"atomemu/internal/engine"
	"atomemu/internal/gac"
)

func b64(p []byte) string { return base64.StdEncoding.EncodeToString(p) }

// The fabric-facing contract of one worker: readyz honesty during replay,
// Retry-After on sheds, and the checkpoint → resume hand-off a router
// uses to move a job between workers.

// milestoneSrc prints a running total after every outer loop of 1000
// atomic increments; a resume that lost or repeated work corrupts the
// printed sequence, not just the final value.
const milestoneSrc = `
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

// uninterruptedOutput runs the program on a bare engine — the ground truth
// a resumed run must reproduce byte-identically.
func uninterruptedOutput(t *testing.T, src string, arg uint32) []uint32 {
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

// TestReadyzDuringBackgroundReplay: while the journal replay runs, /readyz
// answers 503 with a Retry-After and submissions are refused with 503 —
// exactly what a router needs to keep the worker out of rotation — and
// both flip as soon as replay finishes.
func TestReadyzDuringBackgroundReplay(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Options{
		Workers:          1,
		DataDir:          t.TempDir(),
		BackgroundReplay: true,
		testReplayHold:   hold,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during replay: HTTP %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("replay-window 503 carried no Retry-After header")
	}
	if !bytes.Contains(body, []byte("replay")) {
		t.Fatalf("readyz 503 body %q does not name the replay window", body)
	}
	if _, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 1}); err == nil {
		t.Fatal("submission during replay was admitted, want 503")
	} else if se, ok := err.(*SubmitError); !ok || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("submission during replay: %v, want a 503 SubmitError", err)
	}

	close(hold)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d after replay finished", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 10})
	if err != nil {
		t.Fatalf("post-replay submit: %v", err)
	}
	awaitTerminal(t, s, id)
}

// TestShedCarriesRetryAfterHeader: a 429 shed over HTTP carries a
// Retry-After header derived from the backlog, so clients back off
// instead of hammering a full queue.
func TestShedCarriesRetryAfterHeader(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Fill the worker and the queue with slow jobs, then keep submitting
	// until one bounces. The wall deadline keeps cleanup bounded.
	var got *http.Response
	for i := 0; i < 10 && got == nil; i++ {
		body, _ := json.Marshal(JobRequest{
			Scheme: "pico-cas", GAC: spinGAC, Arg: 1, DeadlineMS: 3000,
		})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			resp.Body.Close()
		case http.StatusTooManyRequests:
			got = resp
		default:
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("submit %d: HTTP %d (%s)", i, resp.StatusCode, b)
		}
	}
	if got == nil {
		t.Fatal("queue never filled: no 429 in 10 submissions")
	}
	defer got.Body.Close()
	ra := got.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", ra)
	}
}

// TestCheckpointResumeAcrossWorkers is the hand-off a router performs on
// failover, driven over plain HTTP: export a running job's checkpoint
// from worker A, ship it to worker B via POST /jobs/{id}/resume, and
// observe B finish with output byte-identical to an uninterrupted run.
func TestCheckpointResumeAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second hand-off soak")
	}
	const arg = 400
	ref := uninterruptedOutput(t, milestoneSrc, arg)

	a := newTestServer(t, Options{Workers: 2})
	b := newTestServer(t, Options{Workers: 2})
	tsA := httptest.NewServer(a.Handler())
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)

	req := JobRequest{
		Scheme: "pico-cas", GAC: milestoneSrc, Arg: arg,
		DeadlineMS: 120_000, // the default 30s is too tight under -race on two cores
		Config:     JobConfig{CheckpointEvery: 5000},
	}
	id, err := a.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Poll the checkpoint endpoint until the job has one to export.
	var snap []byte
	var vt string
	deadline := time.Now().Add(30 * time.Second)
	for snap == nil {
		if time.Now().After(deadline) {
			t.Fatal("worker A never exported a checkpoint")
		}
		resp, err := http.Get(tsA.URL + "/jobs/" + id + "/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			snap, err = io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			vt = resp.Header.Get("X-Atomemu-Virtual-Time")
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if vt == "" || vt == "0" {
		t.Fatalf("checkpoint export carried virtual time %q, want > 0", vt)
	}

	// Ship it to worker B under the router-style alias.
	rr := ResumeRequest{Request: req, SnapshotB64: b64(snap), Resumes: 1}
	body, _ := json.Marshal(rr)
	resp, err := http.Post(tsB.URL+"/jobs/fab-x/resume", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ans struct {
		ID      string `json:"id"`
		Resumed bool   `json:"resumed"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: HTTP %d (%s)", resp.StatusCode, ans.Error)
	}
	if !ans.Resumed {
		t.Fatal("worker B did not adopt the snapshot (resumed=false)")
	}

	st := awaitTerminal(t, b, ans.ID)
	if st.State != StateDone {
		t.Fatalf("resumed job on B: state=%s err=%q", st.State, st.Error)
	}
	if st.RestartResumes != 1 {
		t.Fatalf("resumed job reports %d resumes, want 1", st.RestartResumes)
	}
	if len(st.Output) != len(ref) {
		t.Fatalf("resumed output has %d entries, reference %d", len(st.Output), len(ref))
	}
	for i := range ref {
		if st.Output[i] != ref[i] {
			t.Fatalf("resumed output diverges at %d: got %d, want %d", i, st.Output[i], ref[i])
		}
	}

	// A re-shipped resume (same alias) is absorbed by the idempotency key:
	// same id, nothing admitted twice.
	resp2, err := http.Post(tsB.URL+"/jobs/fab-x/resume", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var again struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if again.ID != ans.ID {
		t.Fatalf("re-shipped resume admitted a second job %s, want %s", again.ID, ans.ID)
	}
}
