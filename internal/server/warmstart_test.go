package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atomemu/internal/checkpoint"
	"atomemu/internal/engine"
)

// warmOptions is the warm-start-enabled server shape the daemon flags
// (-tbstore-blocks, -warm-pool, -warm-checkpoint-every) produce.
func warmOptions(workers int) Options {
	return Options{
		Workers:             workers,
		SharedTBCacheBlocks: 4096,
		WarmPoolSize:        4,
		WarmCheckpointEvery: 2000,
	}
}

// TestWarmPoolForkReuse is the end-to-end warm-start path. The first job for
// an image only marks it seen; the second attaches to the shared store,
// publishes its translations and its first checkpoint as a template; the
// third forks from the template (warm_forked), adopts shared translations,
// and still produces the identical output and guest instruction count.
func TestWarmPoolForkReuse(t *testing.T) {
	s := newTestServer(t, warmOptions(1))
	req := JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 4000}
	st1 := runDone(t, s, req) // first sight
	if m := s.Metrics(); m.WarmPublishes != 0 || m.TBStorePublishes != 0 || m.TBStoreSegments != 0 {
		t.Fatalf("the first sight of an image must leave nothing behind: %+v", m)
	}

	st2 := runDone(t, s, req) // publishing
	if st2.WarmForked {
		t.Fatal("no template exists yet: the publishing job cannot be warm-forked")
	}
	m := s.Metrics()
	if m.WarmPublishes != 1 || m.WarmTemplates != 1 {
		t.Fatalf("publishing job should leave one template: publishes=%d templates=%d",
			m.WarmPublishes, m.WarmTemplates)
	}
	if m.TBStorePublishes == 0 {
		t.Fatalf("publishing job published no translations: %+v", m)
	}

	st3 := runDone(t, s, req) // repeat
	if !st3.WarmForked {
		t.Fatal("repeat job for the same image should fork from the warm template")
	}
	for _, st := range []JobStatus{st2, st3} {
		if !equalU32(st.Output, st1.Output) {
			t.Fatalf("output %v, first job %v — reuse must not change results", st.Output, st1.Output)
		}
		if st.GuestInstrs != st1.GuestInstrs {
			t.Fatalf("guest instrs %d, first job %d", st.GuestInstrs, st1.GuestInstrs)
		}
	}
	m = s.Metrics()
	if m.WarmForks != 1 {
		t.Fatalf("warm forks = %d, want 1", m.WarmForks)
	}
	if m.TBStoreHits == 0 {
		t.Fatal("warm fork adopted nothing from the shared translation store")
	}
}

// TestWarmForkDeterminismAcrossSchemes: cold run, shared-store-hit run and
// warm fork must agree on output and guest instruction count per scheme.
func TestWarmForkDeterminismAcrossSchemes(t *testing.T) {
	for _, scheme := range []string{"pico-cas", "hst"} {
		t.Run(scheme, func(t *testing.T) {
			// Cold reference on a server with no warm-start state at all.
			ref := newTestServer(t, Options{Workers: 1, SharedTBCacheBlocks: -1})
			req := JobRequest{Scheme: scheme, GAC: counterGAC, Arg: 3000}
			rid, err := ref.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			want := awaitTerminal(t, ref, rid)

			s := newTestServer(t, warmOptions(1))
			var got []JobStatus
			for i := 0; i < 4; i++ { // first sight, publishing, fork, fork
				id, err := s.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, awaitTerminal(t, s, id))
			}
			if !got[2].WarmForked || !got[3].WarmForked {
				t.Fatal("third and fourth submissions should be warm forks")
			}
			for i, st := range got {
				if st.State != StateDone {
					t.Fatalf("job %d: state=%s err=%q", i, st.State, st.Error)
				}
				if !equalU32(st.Output, want.Output) {
					t.Fatalf("job %d output %v, cold reference %v", i, st.Output, want.Output)
				}
				if st.GuestInstrs != want.GuestInstrs {
					t.Fatalf("job %d guest instrs %d, cold reference %d", i, st.GuestInstrs, want.GuestInstrs)
				}
			}
		})
	}
}

// TestFaultInjectedJobsStayCold: fault-injected jobs must neither consume
// nor feed the compile cache, the shared store or the warm pool — not on
// their own repeats, and not once clean jobs have made all three hot.
func TestFaultInjectedJobsStayCold(t *testing.T) {
	opts := warmOptions(1)
	opts.AllowFaultInjection = true
	s := newTestServer(t, opts)
	clean := JobRequest{
		Scheme: "pico-cas", GAC: counterGAC, Arg: 2000,
		Config: JobConfig{CheckpointEvery: 1000},
	}
	faulty := clean
	faulty.Fault = []FaultRule{{Op: "mem-store", Action: "fault", After: 100000000, Count: 1}}
	run := func(req JobRequest) JobStatus { return runDone(t, s, req) }

	// Three repeats would publish and then hit, were they clean.
	for i := 0; i < 3; i++ {
		run(faulty)
	}
	m := s.Metrics()
	if m.WarmPublishes != 0 || m.WarmTemplates != 0 {
		t.Fatalf("fault-injected jobs fed the warm pool: %+v", m)
	}
	if m.TBStorePublishes != 0 || m.TBStoreSegments != 0 {
		t.Fatalf("fault-injected jobs fed the shared store: %+v", m)
	}
	if m.CompileCacheHits != 0 || m.CompileCacheMisses != 0 || m.CompileCacheEntries != 0 {
		t.Fatalf("fault-injected jobs went through the compile cache: %+v", m)
	}

	// Nor did they count as sightings: the clean jobs start from nothing.
	for i := 0; i < 3; i++ {
		run(clean)
	}
	hot := s.Metrics()
	if hot.CompileCacheHits != 1 || hot.TBStoreHits == 0 || hot.WarmForks != 1 {
		t.Fatalf("setup: three clean jobs should end hot (one compile hit, store hits, one fork): %+v", hot)
	}
	if st := run(faulty); st.WarmForked {
		t.Fatal("fault-injected job forked from a warm template")
	}
	after := s.Metrics()
	if after.CompileCacheHits != hot.CompileCacheHits || after.CompileCacheMisses != hot.CompileCacheMisses ||
		after.TBStoreHits != hot.TBStoreHits || after.TBStoreMisses != hot.TBStoreMisses ||
		after.TBStorePublishes != hot.TBStorePublishes || after.WarmForks != hot.WarmForks {
		t.Fatalf("fault-injected job touched a hot cache:\n before %+v\n after  %+v", hot, after)
	}
}

// TestStatzReportsWarmth: the /statz warmth hint the router's placement
// probe parses must always be present, and must move once state is warm.
func TestStatzReportsWarmth(t *testing.T) {
	s := newTestServer(t, warmOptions(1))
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
		if body.Warmth == nil {
			t.Fatal("/statz warmth hint missing")
		}
		return body.Warmth
	}
	w := readWarmth()
	if w["tbstore_blocks"] != 0 || w["warm_templates"] != 0 {
		t.Fatalf("fresh server should be cold: %v", w)
	}

	run := func() { runDone(t, s, JobRequest{Scheme: "pico-cas", GAC: counterGAC, Arg: 4000}) }
	run() // cold: the first sight of an image leaves the worker as it was
	if w = readWarmth(); w["tbstore_blocks"] != 0 || w["tbstore_segments"] != 0 || w["warm_templates"] != 0 {
		t.Fatalf("one job of an image must not warm the worker: %v", w)
	}
	run() // publish
	if w = readWarmth(); w["tbstore_blocks"] == 0 || w["tbstore_segments"] != 1 || w["warm_templates"] != 1 {
		t.Fatalf("warmth hint did not move after the image's second job: %v", w)
	}
	blocks := w["tbstore_blocks"]
	run() // hit
	if w = readWarmth(); w["tbstore_blocks"] != blocks || w["warm_templates"] != 1 {
		t.Fatalf("a hit must not grow the warmth hint: %v (was %d blocks)", w, blocks)
	}
	if m := s.Metrics(); m.TBStoreHits == 0 || m.WarmForks != 1 {
		t.Fatalf("third job neither hit the store nor forked: %+v", m)
	}
}

// TestRestartSweepsStaleCheckpointTemps: a crash between CreateTemp and the
// rename leaves <datadir>/ckpt/<job>.tmp-* orphans; startup must remove
// them — and only them, never a completed spill.
func TestRestartSweepsStaleCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := []string{"job-1.tmp-123456", "job-7.tmp-9"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(ckptDir, name), []byte("torn spill"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(ckptDir, "job-2"), []byte("completed spill"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(ckptDir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived the startup sweep (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(ckptDir, "job-2")); err != nil {
		t.Errorf("completed spill removed by the sweep: %v", err)
	}
	if got := s.Metrics().CkptTempsSwept; got != uint64(len(stale)) {
		t.Errorf("ckpt temps swept = %d, want %d", got, len(stale))
	}

	// The sweep is startup-only hygiene: a live spiller's temps (written and
	// renamed while running) must be unaffected — exercise a real durable
	// checkpointing job on the same server to be sure nothing regressed.
	id, err := s.Submit(JobRequest{
		Scheme: "pico-cas", GAC: counterGAC, Arg: 4000,
		Config: JobConfig{CheckpointEvery: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("state=%s err=%q", st.State, st.Error)
	}
	if st.Checkpoints == 0 {
		t.Fatal("job took no checkpoints; the spiller never ran")
	}
	// Terminal jobs have their spill removed; what must never accumulate
	// is half-written temps.
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind after a clean spill", e.Name())
		}
	}
}

// TestWarmPoolEvictsLRU: the pool holds at most WarmPoolSize templates and
// drops the least-recently-used one past the cap.
func TestWarmPoolEvictsLRU(t *testing.T) {
	p := newWarmPool(2)
	p.publish("a", &warmTemplate{snap: &checkpoint.Snapshot{}})
	p.publish("b", &warmTemplate{snap: &checkpoint.Snapshot{}})
	if p.lookup("a") == nil { // refresh a; b is now LRU
		t.Fatal("template a missing")
	}
	p.publish("c", &warmTemplate{snap: &checkpoint.Snapshot{}})
	if p.size() != 2 {
		t.Fatalf("pool size = %d, want 2", p.size())
	}
	if p.lookup("b") != nil {
		t.Fatal("LRU template b should have been evicted")
	}
	if p.lookup("a") == nil || p.lookup("c") == nil {
		t.Fatal("wrong template evicted")
	}
	if p.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", p.evictions.Load())
	}
	// First-wins: a re-publish must not replace an existing template.
	tmpl := p.lookup("a")
	p.publish("a", &warmTemplate{snap: &checkpoint.Snapshot{}})
	if p.lookup("a") != tmpl {
		t.Fatal("re-publish replaced an existing template")
	}
}

// warmKeyRendered perturbs, one field at a time, every engine.Config field
// a job request can set; warmJobKey must render each, or a template built
// under one value forks a job that asked for another.
var warmKeyRendered = map[string]func(*engine.Config){
	"Scheme":           func(c *engine.Config) { c.Scheme = "pico-st" },
	"MemBytes":         func(c *engine.Config) { c.MemBytes = 32 << 20 },
	"HashBits":         func(c *engine.Config) { c.HashBits = 10 },
	"MaxGuestInstrs":   func(c *engine.Config) { c.MaxGuestInstrs = 12345 },
	"FuseAtomics":      func(c *engine.Config) { c.FuseAtomics = true },
	"CheckpointEvery":  func(c *engine.Config) { c.CheckpointEvery = 777 },
	"RecoveryAttempts": func(c *engine.Config) { c.RecoveryAttempts = 1 },
	"VirtualDeadline":  func(c *engine.Config) { c.VirtualDeadline = 999 },
	"WatchdogSCFails":  func(c *engine.Config) { c.WatchdogSCFails = 4242 },
	"ChainBudget":      func(c *engine.Config) { c.ChainBudget = 16 },
	"Tiered":           func(c *engine.Config) { c.Tiered = true },
	"HotThreshold":     func(c *engine.Config) { c.HotThreshold = 7 },
}

// warmKeyFixed names every other engine.Config field.
var warmKeyFixed = []string{
	// No job field reaches these: decode leaves DefaultConfig's value for
	// every job (checked below against a request with every knob set).
	"Cost", "HTMBits", "HTMCapacity", "MaxGuestInstrsPerTB", "NoOptimize",
	"StackBytes", "MaxThreads", "QuantumTBs", "PreemptMemOps", "HTMInterference",
	"StepMode", "TraceWriter", "TraceEvents", "TraceRingBits", "ProfileCollisions",
	"StrictPaper", "HTMMaxRetries", "HTMBackoffBase", "HTMBackoffMax",
	"FallbackCooldown", "ResilienceSeed", "HashSpinBudget", "SchedHook",
	// A job carrying one is not warmable and never takes a key.
	"FaultInjector",
	// Host plumbing that run installs after the key is taken (the image
	// hash behind SharedTBImage is rendered from the job).
	"CheckpointSink", "SharedTBStore", "SharedTBImage", "SharedTBBase", "SharedTBSize", "SharedTBSeedStores",
}

// TestWarmJobKeyCoversConfig is the drift guard for the hand-written field
// list in warmJobKey: every engine.Config field must either move the key
// when it changes or be one no job can set. A new job knob that reaches a
// Config field listed as fixed fails the second half.
func TestWarmJobKeyCoversConfig(t *testing.T) {
	j := &job{threads: 1}
	base := warmJobKey(j, engine.DefaultConfig("hst"))
	typ := reflect.TypeOf(engine.Config{})
	fixedSet := map[string]bool{}
	for _, name := range warmKeyFixed {
		fixedSet[name] = true
	}
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		perturb, rendered := warmKeyRendered[name]
		fixed := fixedSet[name]
		switch {
		case rendered == fixed:
			t.Errorf("engine.Config.%s must be in exactly one of warmKeyRendered (and rendered by warmJobKey) or warmKeyFixed", name)
		case rendered:
			cfg := engine.DefaultConfig("hst")
			perturb(&cfg)
			if warmJobKey(j, cfg) == base {
				t.Errorf("a job can set engine.Config.%s but warmJobKey does not render it", name)
			}
		}
	}
	for name := range warmKeyRendered {
		if !fields[name] {
			t.Errorf("warmKeyRendered names %s, which is not an engine.Config field", name)
		}
	}
	for _, name := range warmKeyFixed {
		if !fields[name] {
			t.Fatalf("warmKeyFixed names %s, which is not an engine.Config field", name)
		}
	}

	// A request with every JobConfig knob set must leave the fixed fields
	// where DefaultConfig put them.
	knobs := JobConfig{
		MemBytes: 32 << 20, HashBits: 10, MaxGuestInstrs: 12345, FuseAtomics: true,
		CheckpointEvery: 777, RecoveryAttempts: 1, VirtualDeadline: 999, WatchdogSCFails: 4242,
		ChainBudget: 16, Tiered: true, HotThreshold: 7,
	}
	kv := reflect.ValueOf(knobs)
	for i := 0; i < kv.NumField(); i++ {
		if kv.Field(i).IsZero() {
			t.Fatalf("JobConfig.%s is not set in this test's request; set it so the check below covers it", kv.Type().Field(i).Name)
		}
	}
	s := newTestServer(t, Options{Workers: 1})
	decoded, err := s.decode(JobRequest{Scheme: "pico-st", GAC: counterGAC, Threads: 2, Arg: 5, Config: knobs})
	if err != nil {
		t.Fatal(err)
	}
	got, def := reflect.ValueOf(decoded.cfg), reflect.ValueOf(engine.DefaultConfig("pico-st"))
	for _, name := range warmKeyFixed {
		if !reflect.DeepEqual(got.FieldByName(name).Interface(), def.FieldByName(name).Interface()) {
			t.Errorf("decode set engine.Config.%s from the request, but warmKeyFixed says no job can", name)
		}
	}
}
