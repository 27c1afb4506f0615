package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"atomemu/internal/server"
)

// TestRingKeyDerivation: placement hashes by image content when the request
// carries one, so repeat submissions of one program share a hash arc (and
// its worker's warm state), falling back to the idempotency key, then the
// router job id.
func TestRingKeyDerivation(t *testing.T) {
	gacReq := server.JobRequest{GAC: counterGAC}
	if a, b := ringKey(gacReq, "", "fab-1"), ringKey(gacReq, "other-key", "fab-2"); a != b {
		t.Errorf("same GAC must hash to one arc regardless of key/id: %q vs %q", a, b)
	}
	if a, b := ringKey(gacReq, "", "fab-1"), ringKey(server.JobRequest{GAC: milestoneGAC}, "", "fab-1"); a == b {
		t.Error("different programs must not share an image arc")
	}
	imgReq := server.JobRequest{ImageB64: "AAAA"}
	if a, b := ringKey(imgReq, "k", "fab-1"), ringKey(server.JobRequest{ImageB64: "BBBB"}, "k", "fab-1"); a == b {
		t.Error("different images must not share an image arc")
	}
	if a, b := ringKey(gacReq, "", ""), ringKey(imgReq, "", ""); a == b {
		t.Error("GAC and image namespaces must not collide")
	}
	if got := ringKey(server.JobRequest{}, "client-key", "fab-3"); got != "client-key" {
		t.Errorf("imageless request should fall back to the client key, got %q", got)
	}
	if got := ringKey(server.JobRequest{}, "", "fab-3"); got != "fab-3" {
		t.Errorf("keyless request should fall back to the job id, got %q", got)
	}
}

// TestImageAffinityRoutesToOneWorker: across a healthy fleet, every repeat
// submission of the same program lands on the same worker, so cross-job
// translation reuse actually triggers fleet-wide.
func TestImageAffinityRoutesToOneWorker(t *testing.T) {
	w1 := startWorker(t, server.Options{})
	w2 := startWorker(t, server.Options{})
	w3 := startWorker(t, server.Options{})
	r := newTestRouter(t, fastOptions(w1.url(), w2.url(), w3.url()))

	owner := ""
	for i := 0; i < 6; i++ {
		id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 50})
		if err != nil {
			t.Fatal(err)
		}
		v := awaitRouterTerminal(t, r, id, 30*time.Second)
		if v.State != jobDone {
			t.Fatalf("job %d: state=%s err=%q", i, v.State, v.Error)
		}
		if owner == "" {
			owner = v.Worker
		} else if v.Worker != owner {
			t.Fatalf("job %d dispatched to %s, earlier jobs to %s — image affinity broken", i, v.Worker, owner)
		}
	}
	// A different program may (and with three workers, usually does) own a
	// different arc; at minimum its placement must be deterministic too.
	other := ""
	for i := 0; i < 3; i++ {
		id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: milestoneGAC, Arg: 2})
		if err != nil {
			t.Fatal(err)
		}
		v := awaitRouterTerminal(t, r, id, 30*time.Second)
		if v.State != jobDone {
			t.Fatalf("milestone job %d: state=%s err=%q", i, v.State, v.Error)
		}
		if other == "" {
			other = v.Worker
		} else if v.Worker != other {
			t.Fatalf("milestone job %d dispatched to %s, earlier to %s", i, v.Worker, other)
		}
	}
}

// TestProbeStatzParsesWarmth: the health probe reads the worker's shared
// TB block count as its placement score. In a mixed-version fleet it
// ignores the extra hint key an older worker still sends, and tolerates
// workers that predate the hint.
func TestProbeStatzParsesWarmth(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"metrics": map[string]uint64{"accepted": 7, "completed": 5, "shed": 1},
			"warmth":  map[string]int{"tbstore_blocks": 100, "tbstore_segments": 2, "warm_templates": 3},
		})
	}))
	defer stub.Close()
	r := newTestRouter(t, fastOptions(stub.URL))
	sz, err := r.probeClient.Statz(context.Background(), stub.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m := sz.Metrics; m.Accepted != 7 || m.Completed != 5 || m.Shed != 1 {
		t.Errorf("counters = %+v", m)
	}
	if sz.Warmth.TBStoreBlocks != 100 {
		t.Errorf("warmth = %d, want tbstore_blocks (100) alone", sz.Warmth.TBStoreBlocks)
	}

	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"metrics": map[string]uint64{"accepted": 1}})
	}))
	defer old.Close()
	if sz, _ := r.probeClient.Statz(context.Background(), old.URL); sz.Warmth.TBStoreBlocks != 0 {
		t.Errorf("hint-less worker should score 0 warmth, got %d", sz.Warmth.TBStoreBlocks)
	}
}

// TestProbePublishesWarmthGauge: a worker as shipped that ran one image
// twice shows up with nonzero warmth in the router's worker view (the gauge
// the spill-candidate ordering reads).
func TestProbePublishesWarmthGauge(t *testing.T) {
	w := startWorker(t, server.Options{})
	r := newTestRouter(t, fastOptions(w.url()))
	// The worker caches from an image's second sight: two jobs warm it.
	for i := 0; i < 2; i++ {
		id, err := r.Submit(server.JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 4000})
		if err != nil {
			t.Fatal(err)
		}
		awaitRouterTerminal(t, r, id, 30*time.Second)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		views := r.Workers()
		if len(views) == 1 && views[0].Warmth > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker warmth never surfaced: %+v", views)
		}
		time.Sleep(10 * time.Millisecond)
	}
	series := fmt.Sprintf("atomemu_router_worker_warmth{worker=%q}", w.url())
	if v := scrape(t, r.WritePrometheus).Values()[series]; v == 0 {
		t.Fatalf("/metrics does not carry the worker's warmth: %s = %v", series, v)
	}
}
