package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"atomemu/internal/durable"
)

// fetchCompletions performs one feed request and decodes a 200 answer.
func fetchCompletions(base, epoch string, after uint64, wait float64) (CompletionsResponse, int, error) {
	var out CompletionsResponse
	resp, err := http.Get(fmt.Sprintf("%s/completions?epoch=%s&after=%d&wait=%g", base, epoch, after, wait))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out, resp.StatusCode, nil
	}
	return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
}

// getCompletions is fetchCompletions for the test's own goroutine.
func getCompletions(t *testing.T, base, epoch string, after uint64, wait float64) (CompletionsResponse, int) {
	t.Helper()
	out, code, err := fetchCompletions(base, epoch, after, wait)
	if err != nil {
		t.Fatal(err)
	}
	return out, code
}

// TestCompletionFeedDeliversAfterDurableRecord: a watcher that adopts the
// feed head and long-polls from it gets every later completion, in order,
// as a full terminal status — and by the time an event is visible the
// job's finished record is already in the journal on disk (publish after
// fsync), so the feed never announces a result a crash could take back.
func TestCompletionFeedDeliversAfterDurableRecord(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First contact: no epoch yet, so the answer is a reset carrying the
	// cursor to adopt.
	head, code := getCompletions(t, ts.URL, "", 0, 0)
	if code != http.StatusOK || !head.Reset || head.Epoch == "" || head.Seq != 0 || len(head.Jobs) != 0 {
		t.Fatalf("first contact = %d %+v, want 200 reset with an epoch at seq 0", code, head)
	}

	const n = 3
	got := make(chan CompletionsResponse, 1)
	go func() {
		resp, _, err := fetchCompletions(ts.URL, head.Epoch, head.Seq, 30)
		if err != nil {
			t.Error(err)
		}
		got <- resp
	}()
	ids := make([]string, n)
	for i := range ids {
		id, err := s.Submit(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: uint32(10 + i), IdempotencyKey: fmt.Sprintf("feed-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var events []Completion
	resp := <-got // the blocked long-poll wakes on the first publish
	for {
		if resp.Reset || resp.Epoch != head.Epoch {
			t.Fatalf("unexpected reset/epoch change mid-feed: %+v", resp)
		}
		if len(resp.Jobs) > 0 {
			// The event is out, so the terminal record must be on disk now.
			recs, _, err := durable.Replay(filepath.Join(dir, "journal"))
			if err != nil {
				t.Fatal(err)
			}
			finished := map[string]bool{}
			for _, r := range recs {
				if r.Type == durable.TypeFinished {
					finished[r.Job] = true
				}
			}
			for _, st := range resp.Jobs {
				if !finished[st.ID] {
					t.Fatalf("event for %s delivered before its finished record was durable", st.ID)
				}
			}
		}
		events = append(events, resp.Jobs...)
		if len(events) >= n {
			break
		}
		resp, _ = getCompletions(t, ts.URL, head.Epoch, resp.Seq, 30)
	}
	if len(events) != n {
		t.Fatalf("got %d events, want %d", len(events), n)
	}
	for i, st := range events {
		if st.ID != ids[i] || st.Key != fmt.Sprintf("feed-%d", i) || st.State != StateDone || len(st.Output) != 1 || st.Output[0] != uint32(10+i) {
			t.Fatalf("event %d = %+v, want %s (key feed-%d) done with output [%d]", i, st, ids[i], i, 10+i)
		}
	}
	// Re-asking from the old cursor redelivers (at-least-once by cursor).
	again, _ := getCompletions(t, ts.URL, head.Epoch, head.Seq, 0)
	if len(again.Jobs) != n || again.Seq != uint64(n) {
		t.Fatalf("replay from cursor 0 = %d jobs at seq %d, want %d at %d", len(again.Jobs), again.Seq, n, n)
	}
	// The id-addressed reads name the key too, so a caller holding an id
	// from before a worker restart can tell whose job answered.
	r, err := http.Get(ts.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if got := r.Header.Get(KeyHeader); got != "feed-0" {
		t.Fatalf("GET /jobs/%s carried key header %q, want feed-0", ids[0], got)
	}
	samples := checkExposition(t, scrape(t, s))
	if samples["atomemu_completions_seq"] != n || samples["atomemu_completions_waiters"] != 0 {
		t.Fatalf("completions_seq=%v waiters=%v, want %d and 0",
			samples["atomemu_completions_seq"], samples["atomemu_completions_waiters"], n)
	}
}

// TestCompletionFeedIdleExpiry: a wait that expires with nothing to report
// is a 200 with no jobs and an unchanged cursor — not an error.
func TestCompletionFeedIdleExpiry(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	head, _ := getCompletions(t, ts.URL, "", 0, 0)
	start := time.Now()
	resp, code := getCompletions(t, ts.URL, head.Epoch, head.Seq, 0.05)
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("idle long-poll returned after %v, want the full 50ms wait", took)
	}
	if code != http.StatusOK || resp.Reset || len(resp.Jobs) != 0 || resp.Seq != head.Seq || resp.Epoch != head.Epoch {
		t.Fatalf("idle expiry = %d %+v, want an empty 200 at the same cursor", code, resp)
	}
	for _, q := range []string{"after=x", "wait=-1", "wait=NaN", "wait=soon"} {
		r, err := http.Get(ts.URL + "/completions?" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /completions?%s = %d, want 400", q, r.StatusCode)
		}
	}
}

// TestCompletionFeedResetsLappedCursor: a cursor the ring has lapped, one
// from the future and one from another epoch are all answered reset at the
// current head; a cursor exactly one ring behind is still served in full.
func TestCompletionFeedResetsLappedCursor(t *testing.T) {
	c := newCompletions()
	for i := 1; i <= completionRing+1; i++ {
		c.publish(fmt.Sprintf("job-%d", i))
	}
	head := uint64(completionRing + 1)
	if v := c.since(c.epoch, 0); !v.reset || v.seq != head || len(v.ids) != 0 {
		t.Fatalf("lapped cursor: %+v, want an empty reset at %d", v, head)
	}
	if v := c.since(c.epoch, head+1); !v.reset {
		t.Fatal("cursor ahead of the feed was not reset")
	}
	if v := c.since("another-epoch", head); !v.reset {
		t.Fatal("cursor from another epoch was not reset")
	}
	v := c.since(c.epoch, 1)
	if v.reset || v.seq != head || len(v.ids) != completionRing || v.ids[0] != "job-2" || v.ids[len(v.ids)-1] != fmt.Sprintf("job-%d", head) {
		t.Fatalf("cursor one ring behind: reset=%v seq=%d n=%d", v.reset, v.seq, len(v.ids))
	}
}

// TestDrainReleasesCompletionWaiters: a watcher blocked in the long-poll
// is answered (503, like /readyz) when Drain completes, so the HTTP server
// behind a drained worker can shut down without waiting out the poll.
func TestDrainReleasesCompletionWaiters(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	head, _ := getCompletions(t, ts.URL, "", 0, 0)
	code := make(chan int, 1)
	go func() {
		_, c, err := fetchCompletions(ts.URL, head.Epoch, head.Seq, 30)
		if err != nil {
			t.Error(err)
		}
		code <- c
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.completions.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the long-poll never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := <-code; c != http.StatusServiceUnavailable {
		t.Fatalf("blocked long-poll answered %d at drain, want 503", c)
	}
	ts.Close() // would block on the handler if the drain had not released it
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("drain + server close took %v with a watcher attached", took)
	}
}
