package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"atomemu/internal/core"
	"atomemu/internal/durable"
	"atomemu/internal/faultinject"
	"atomemu/internal/stats"
)

// straightGAC is a translation-heavy program whose content follows seed:
// stmts straight-line statements (every block runs once), then the sums.
func straightGAC(seed, stmts int) string {
	var b strings.Builder
	b.WriteString("var x;\nvar y;\nfunc main(n) {\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&b, "    x = x + %d;\n    y = y + x;\n", (seed+i)%7+1)
	}
	fmt.Fprintf(&b, "    print(x + %d);\n    print(y);\n    exit(0);\n}\n", seed)
	return b.String()
}

// awaitSubmitted submits req and returns its terminal status.
func awaitSubmitted(t *testing.T, s *Server, req JobRequest) JobStatus {
	t.Helper()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return awaitTerminal(t, s, id)
}

// runDone is awaitSubmitted for a job that must succeed.
func runDone(t *testing.T, s *Server, req JobRequest) JobStatus {
	t.Helper()
	st := awaitSubmitted(t, s, req)
	if st.State != StateDone || st.ExitCode != 0 {
		t.Fatalf("job %s: state=%s exit=%d err=%q", st.ID, st.State, st.ExitCode, st.Error)
	}
	return st
}

// engineTotals reads the engine counters summed over finished jobs.
func engineTotals(s *Server) stats.CPU {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.engineAgg
}

// TestUniqueStreamRetainsNothing is the miss-path half of the default flip:
// a stream of images that never repeats leaves both caches empty (each job
// costs one remembered key), and the job that repeats an image publishes
// exactly the blocks it translated from clean pages — which the next one
// then adopts, every one.
func TestUniqueStreamRetainsNothing(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	for i := 0; i < 12; i++ {
		runDone(t, s, JobRequest{Scheme: "hst", GAC: straightGAC(i, 40)})
	}
	m := s.Metrics()
	if m.TBStoreBlocks != 0 || m.TBStoreSegments != 0 || m.TBStorePublishes != 0 || m.TBStoreMisses != 0 {
		t.Fatalf("a never-repeated stream reached the translation store: %+v", m)
	}
	if m.CompileCacheEntries != 0 || m.CompileCacheBytes != 0 || m.CompileCacheHits != 0 || m.CompileCacheMisses != 12 {
		t.Fatalf("a never-repeated stream left the compile cache non-empty: %+v", m)
	}

	before := engineTotals(s)
	repeat := JobRequest{Scheme: "hst", GAC: straightGAC(3, 40)}
	runDone(t, s, repeat) // second sight: compiles, translates, publishes
	pub := engineTotals(s)
	m = s.Metrics()
	published := pub.TBStorePublishes - before.TBStorePublishes
	if published == 0 || published > pub.TBTranslations-before.TBTranslations {
		t.Fatalf("second-sight job published %d of %d translated blocks", published, pub.TBTranslations-before.TBTranslations)
	}
	if m.TBStorePublishes != published || uint64(m.TBStoreBlocks) != published || m.TBStoreSegments != 1 {
		t.Fatalf("store holds something other than the job's %d clean blocks: %+v", published, m)
	}
	if m.CompileCacheEntries != 1 || m.CompileCacheHits != 0 {
		t.Fatalf("second-sight job should have published its image: %+v", m)
	}

	runDone(t, s, repeat) // third sight: hits
	hit := engineTotals(s)
	m = s.Metrics()
	if got := hit.TBStoreHits - pub.TBStoreHits; got != published {
		t.Fatalf("hit job adopted %d blocks, %d were published", got, published)
	}
	if uint64(m.TBStoreBlocks) != published || m.CompileCacheHits != 1 {
		t.Fatalf("hit job changed what is cached: %+v", m)
	}
}

// TestConcurrentJobsShareCachedImage: two jobs of one cached source run at
// once over the same *asm.Image. Under -race this fails if anything on the
// load or run path writes the shared image.
func TestConcurrentJobsShareCachedImage(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	req := JobRequest{Scheme: "hst", GAC: straightGAC(1, 400)}
	want := runDone(t, s, req)
	runDone(t, s, req)
	if m := s.Metrics(); m.CompileCacheEntries != 1 {
		t.Fatalf("setup: image not cached after its second job: %+v", m)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := awaitTerminal(t, s, id)
		if st.State != StateDone || !equalU32(st.Output, want.Output) {
			t.Fatalf("job %s: state=%s output %v, want %v (err %q)", id, st.State, st.Output, want.Output, st.Error)
		}
	}
	if m := s.Metrics(); m.CompileCacheHits != 4 {
		t.Fatalf("the four concurrent jobs should each have hit the compile cache: %+v", m)
	}
}

// TestReuseCapsHold: four times the capacity of repeated, distinct images
// leaves the translation store at or under its block cap and the compile
// cache under its byte cap, and the most recent image still hits both.
func TestReuseCapsHold(t *testing.T) {
	probe := newTestServer(t, Options{Workers: 1})
	src := func(i int) string { return straightGAC(i, 60) }
	runDone(t, probe, JobRequest{Scheme: "hst", GAC: src(0)})
	runDone(t, probe, JobRequest{Scheme: "hst", GAC: src(0)})
	pm := probe.Metrics()
	perImageBlocks, perImageBytes := pm.TBStoreBlocks, pm.CompileCacheBytes
	if perImageBlocks == 0 || perImageBytes == 0 {
		t.Fatalf("setup: probe image cached nothing: %+v", pm)
	}

	const room = 3 // images either cache has room for
	s := newTestServer(t, Options{Workers: 1, SharedTBCacheBlocks: room*perImageBlocks + perImageBlocks/2})
	s.compiled = newCompileCache(room*perImageBytes + perImageBytes/2)
	const images = 4 * room
	for i := 1; i <= images; i++ {
		for sight := 0; sight < 3; sight++ {
			runDone(t, s, JobRequest{Scheme: "hst", GAC: src(i)})
		}
		m := s.Metrics()
		if m.TBStoreBlocks > s.opts.SharedTBCacheBlocks {
			t.Fatalf("after image %d the store holds %d blocks, cap %d", i, m.TBStoreBlocks, s.opts.SharedTBCacheBlocks)
		}
		if m.CompileCacheBytes > s.compiled.maxBytes {
			t.Fatalf("after image %d the compile cache holds %d bytes, cap %d", i, m.CompileCacheBytes, s.compiled.maxBytes)
		}
	}
	m := s.Metrics()
	if m.TBStoreEvictions == 0 || m.CompileCacheEntries != room || m.TBStoreSegments > room {
		t.Fatalf("expected both caches full and evicting: %+v", m)
	}
	runDone(t, s, JobRequest{Scheme: "hst", GAC: src(images)})
	after := s.Metrics()
	if after.CompileCacheHits != m.CompileCacheHits+1 || after.TBStoreHits == m.TBStoreHits || after.TBStoreMisses != m.TBStoreMisses {
		t.Fatalf("the most recent image no longer hits:\n before %+v\n after  %+v", m, after)
	}
}

// TestReplayGoesThroughCompileCache: a restarted worker decodes its
// journaled jobs through the same compile cache as fresh submissions, so
// replaying a backlog of one program compiles it twice, not once per job.
func TestReplayGoesThroughCompileCache(t *testing.T) {
	dir := t.TempDir()
	var recs []durable.Record
	for i := 1; i <= 4; i++ {
		raw, err := json.Marshal(JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 100, IdempotencyKey: fmt.Sprintf("k%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("job-%d", i)
		recs = append(recs, durable.Record{Type: durable.TypeSubmitted, Job: id, Key: fmt.Sprintf("k%d", i), Request: raw})
	}
	crashedJobJournal(t, dir, recs)

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	for i := 1; i <= 4; i++ {
		if st := awaitTerminal(t, s, fmt.Sprintf("job-%d", i)); st.State != StateDone {
			t.Fatalf("replayed job-%d: state=%s err=%q", i, st.State, st.Error)
		}
	}
	m := s.Metrics()
	if m.RestartRequeued != 4 {
		t.Fatalf("setup: %d jobs requeued from the journal, want 4", m.RestartRequeued)
	}
	if m.CompileCacheMisses != 2 || m.CompileCacheHits != 2 || m.CompileCacheEntries != 1 {
		t.Fatalf("replay of four jobs of one program: %d compiles, %d hits, %d cached; want 2, 2, 1",
			m.CompileCacheMisses, m.CompileCacheHits, m.CompileCacheEntries)
	}
}

// splitWindowGAC keeps a branch between each LL and its SC, so the window
// spans translation blocks: the first pass through translates — or adopts —
// a block inside the open window, which under pico-htm aborts the
// transaction and fails that SC.
const splitWindowGAC = `
var x;
func main(n) {
    var i = 0;
    while (i < n) {
        var v = ll(&x);
        if ((v & 1) == 0) { v = v + 1; } else { v = v + 3; }
        if (sc(&x, v) == 0) { i = i + 1; }
    }
    print(x);
    exit(0);
}
`

// comparable strips what legitimately differs between two runs of one
// request: the id and the wall-clock timestamps.
func comparable(st JobStatus) JobStatus {
	st.ID = ""
	st.EnqueuedAt, st.StartedAt, st.FinishedAt = time.Time{}, time.Time{}, time.Time{}
	return st
}

// TestColdPublishHitEquivalence: a job's result must not depend on what
// other tenants ran before it. The same request run cold (store off), on
// its image's first sight, publishing and hitting yields one JobStatus —
// virtual time, checkpoint count, everything but id and timestamps — under
// every scheme; and a virtual deadline that only an uncharged hit would
// meet fails the hit exactly as it fails the cold run.
func TestColdPublishHitEquivalence(t *testing.T) {
	for _, scheme := range core.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			req := JobRequest{
				Scheme: scheme, GAC: splitWindowGAC, Arg: 300,
				Config: JobConfig{CheckpointEvery: 3000},
			}
			ref := newTestServer(t, Options{Workers: 1, SharedTBCacheBlocks: -1})
			want := runDone(t, ref, req)
			if want.Checkpoints == 0 {
				t.Fatal("setup: the job took no checkpoints, so cadence is not compared")
			}
			translate := engineTotals(ref).Cycles[stats.CompTBTranslate]
			if translate == 0 || translate >= want.VirtualTime {
				t.Fatalf("setup: translation charged %d of %d virtual cycles", translate, want.VirtualTime)
			}

			s := newTestServer(t, Options{Workers: 1})
			for _, stage := range []string{"first sight", "publishing", "hit"} {
				got := runDone(t, s, req)
				if !reflect.DeepEqual(comparable(got), comparable(want)) {
					t.Errorf("%s run differs from the cold run:\n got  %+v\n want %+v", stage, comparable(got), comparable(want))
				}
			}
			hot := s.Metrics()
			if hot.TBStorePublishes == 0 || hot.TBStoreHits == 0 {
				t.Fatalf("setup: the three runs did not publish and hit: %+v", hot)
			}

			// Halfway into what translation was charged: the cold run is over
			// budget, a hit that skipped the charge would come in under it.
			tight := req
			tight.Config.VirtualDeadline = want.VirtualTime - translate/2
			wantTight := awaitSubmitted(t, ref, tight)
			if wantTight.State != StateFailed || !strings.Contains(wantTight.Error, "virtual deadline") {
				t.Fatalf("setup: cold run under the tight deadline: state=%s class=%s err=%q", wantTight.State, wantTight.Class, wantTight.Error)
			}
			gotTight := awaitSubmitted(t, s, tight)
			if !reflect.DeepEqual(comparable(gotTight), comparable(wantTight)) {
				t.Errorf("hit run under the tight deadline differs from the cold run:\n got  %+v\n want %+v", comparable(gotTight), comparable(wantTight))
			}
			if after := s.Metrics(); after.TBStoreHits == hot.TBStoreHits {
				t.Fatal("the tight-deadline job did not hit the store; the comparison proved nothing")
			}
		})
	}
}

// TestFaultInjectedJobsStayCold: fault-injected jobs must neither consume
// nor feed the compile cache or the shared store — not on their own
// repeats, and not once clean jobs have made both hot.
func TestFaultInjectedJobsStayCold(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, SharedTBCacheBlocks: 4096, AllowFaultInjection: true})
	clean := JobRequest{
		Scheme: "pico-cas", GAC: counterGAC, Arg: 2000,
		Config: JobConfig{CheckpointEvery: 1000},
	}
	faulty := clean
	faulty.Fault = []faultinject.Spec{{Op: "mem-store", Action: "fault", After: 100000000, Count: 1}}

	// Three repeats would publish and then hit, were they clean.
	for i := 0; i < 3; i++ {
		runDone(t, s, faulty)
	}
	m := s.Metrics()
	if m.TBStorePublishes != 0 || m.TBStoreSegments != 0 {
		t.Fatalf("fault-injected jobs fed the shared store: %+v", m)
	}
	if m.CompileCacheHits != 0 || m.CompileCacheMisses != 0 || m.CompileCacheEntries != 0 {
		t.Fatalf("fault-injected jobs went through the compile cache: %+v", m)
	}

	// Nor did they count as sightings: the clean jobs start from nothing.
	for i := 0; i < 3; i++ {
		runDone(t, s, clean)
	}
	hot := s.Metrics()
	if hot.CompileCacheHits != 1 || hot.TBStoreHits == 0 {
		t.Fatalf("setup: three clean jobs should end hot (one compile hit, store hits): %+v", hot)
	}
	runDone(t, s, faulty)
	after := s.Metrics()
	if after.CompileCacheHits != hot.CompileCacheHits || after.CompileCacheMisses != hot.CompileCacheMisses ||
		after.TBStoreHits != hot.TBStoreHits || after.TBStoreMisses != hot.TBStoreMisses ||
		after.TBStorePublishes != hot.TBStorePublishes {
		t.Fatalf("fault-injected job touched a hot cache:\n before %+v\n after  %+v", hot, after)
	}
}

// TestStatzReportsWarmth: the /statz warmth hint the router's placement
// probe parses must always be present, and must move once state is warm.
func TestStatzReportsWarmth(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readWarmth := func() map[string]int {
		resp, err := ts.Client().Get(ts.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Warmth map[string]int `json:"warmth"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"tbstore_blocks", "tbstore_segments"} {
			if _, ok := body.Warmth[k]; !ok {
				t.Fatalf("/statz warmth hint lacks %s: %v", k, body.Warmth)
			}
		}
		return body.Warmth
	}
	w := readWarmth()
	if w["tbstore_blocks"] != 0 || w["tbstore_segments"] != 0 {
		t.Fatalf("fresh server should be cold: %v", w)
	}

	run := func() { runDone(t, s, JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 4000}) }
	run() // cold: the first sight of an image leaves the worker as it was
	if w = readWarmth(); w["tbstore_blocks"] != 0 || w["tbstore_segments"] != 0 {
		t.Fatalf("one job of an image must not warm the worker: %v", w)
	}
	run() // publish
	if w = readWarmth(); w["tbstore_blocks"] == 0 || w["tbstore_segments"] != 1 {
		t.Fatalf("warmth hint did not move after the image's second job: %v", w)
	}
	blocks := w["tbstore_blocks"]
	run() // hit
	if w = readWarmth(); w["tbstore_blocks"] != blocks || w["tbstore_segments"] != 1 {
		t.Fatalf("a hit must not grow the warmth hint: %v (was %d blocks)", w, blocks)
	}
	if m := s.Metrics(); m.TBStoreHits == 0 {
		t.Fatalf("third job did not hit the store: %+v", m)
	}
}
