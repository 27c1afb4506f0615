package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"atomemu/internal/server"
)

// TestTenantFairnessUnderFlood: one tenant floods the router far past its
// quota while a background tenant trickles jobs in. The flooder must eat
// 429s (with Retry-After) at its quota ceiling; the background tenant
// must see zero sheds and bounded admission-to-dispatch latency — the
// flood cannot starve it, because admission quotas bound the flooder's
// share of the fleet and deficit round-robin interleaves dispatch.
func TestTenantFairnessUnderFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fairness soak")
	}
	w := startCountingWorker(t, server.Options{Workers: 2, QueueDepth: 64})
	opts := fastOptions(w.ts.URL)
	opts.QuotaPerWeight = 8 // each tenant caps at 8 live jobs
	opts.TenantWeights = map[string]int{"flood": 1, "bg": 1}
	r := newTestRouter(t, opts)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)

	submit := func(tenant, key string, arg uint32) (int, string, string) {
		t.Helper()
		body, err := json.Marshal(server.JobRequest{
			Scheme: "pico-cas", GAC: milestoneGAC, Arg: arg,
			Tenant: tenant, IdempotencyKey: key,
			Config: server.JobConfig{CheckpointEvery: 50000},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ans struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&ans)
		if ans.ID == "" {
			ans.ID = ans.Error
		}
		return resp.StatusCode, ans.ID, resp.Header.Get("Retry-After")
	}

	// Flood: far more submissions than the quota admits, as fast as the
	// transport allows. The worker may finish jobs as fast as they are
	// posted (on one P it does), so its completion feed is held until the
	// submissions are done: the router then sees every admitted flood job
	// live, and the quota has something to bite on.
	w.holdFeed.Store(true)
	const floodTries = 40
	var floodAdmitted, flood429 int
	floodIDs := make([]string, 0, floodTries)
	sawRetryAfter := false
	for i := 0; i < floodTries; i++ {
		code, id, retry := submit("flood", fmt.Sprintf("flood-%d", i), 50)
		switch code {
		case http.StatusAccepted:
			floodAdmitted++
			floodIDs = append(floodIDs, id)
		case http.StatusTooManyRequests:
			flood429++
			if retry != "" {
				sawRetryAfter = true
			}
		default:
			t.Fatalf("flood submit %d: HTTP %d (%s)", i, code, id)
		}
	}
	w.holdFeed.Store(false)
	if flood429 == 0 {
		t.Fatalf("flooder was never shed (%d/%d admitted); the quota is not biting", floodAdmitted, floodTries)
	}
	if !sawRetryAfter {
		t.Fatal("429 responses never carried a Retry-After header")
	}

	// Background tenant trickles 8 jobs while the flood backlog drains.
	// Every one must be admitted and finish promptly.
	const bgJobs = 8
	bgIDs := make([]string, 0, bgJobs)
	for i := 0; i < bgJobs; i++ {
		code, id, _ := submit("bg", fmt.Sprintf("bg-%d", i), 25)
		if code != http.StatusAccepted {
			t.Fatalf("background submit %d shed with HTTP %d — the flood starved it", i, code)
		}
		bgIDs = append(bgIDs, id)
		time.Sleep(20 * time.Millisecond)
	}
	for i, id := range bgIDs {
		v := awaitRouterTerminal(t, r, id, 60*time.Second)
		if v.State != jobDone {
			t.Fatalf("background job %d: state=%s err=%q", i, v.State, v.Error)
		}
	}

	// Fairness in the numbers: the background tenant shed nothing, and its
	// p99 dispatch wait stayed bounded while the flooder queued behind its
	// quota. The bound is generous — it guards against starvation (waiting
	// behind the whole flood backlog), not scheduler jitter.
	r.mu.Lock()
	bg := r.tenants["bg"]
	bgShed := bg.shedQuota + bg.shedDispatch
	bgWait := bg.waitHist.Snapshot()
	r.mu.Unlock()
	if bgShed != 0 {
		t.Fatalf("background tenant shed %d jobs, want 0", bgShed)
	}
	if bgWait.Count != bgJobs {
		t.Fatalf("background dispatch-wait histogram has %d observations, want %d", bgWait.Count, bgJobs)
	}
	const p99Bound = 5.0 // seconds
	if p99 := histQuantile(bgWait.Bounds, bgWait.Buckets, 0.99); p99 > p99Bound {
		t.Fatalf("background p99 dispatch wait %.3fs exceeds %.0fs — flooded out of the schedule", p99, p99Bound)
	}

	// Let the admitted flood jobs finish so worker drain stays clean.
	for _, id := range floodIDs {
		awaitRouterTerminal(t, r, id, 120*time.Second)
	}
}

// histQuantile reads quantile q from cumulative histogram buckets,
// returning the upper bound of the bucket the quantile falls in (+Inf
// collapses to the last finite bound doubled).
func histQuantile(bounds []float64, cum []uint64, q float64) float64 {
	if len(cum) == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	for i, c := range cum {
		if c > target {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1] * 2
		}
	}
	return bounds[len(bounds)-1] * 2
}
