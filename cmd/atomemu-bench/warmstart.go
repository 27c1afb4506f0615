package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"atomemu/internal/server"
)

// The warmstart experiment quantifies cross-job translation reuse: the same
// translation-heavy program is submitted repeatedly to in-process daemons
// translation-heavy program is submitted repeatedly to an in-process daemon
// as shipped and the submit-to-terminal wall latency is compared across the
// three start modes, in the order the second-sight admission rule produces
// them:
//
//	cold     first job for the image — compiles, translates every block,
//	         and leaves only the image's key behind
//	publish  second job — the same work, plus publishing the compiled image
//	         and the translated blocks
//	hit      later jobs — cached image, adopted blocks
//
// The run fails if the first job caches anything, or the compile cache or
// the shared store never hits — latency ratios vary with host load, reuse
// counters must not.

type warmstartConfig struct {
	Stmts   int // straight-line statements in the synthetic program
	Repeats int // repeat submissions in hit mode (best-of)
	OutDir  string
	Quiet   bool
}

// warmstartReport is the JSON artifact (out/BENCH_warmstart.json).
type warmstartReport struct {
	Stmts      int     `json:"stmts"`
	Repeats    int     `json:"repeats"`
	ColdMS     float64 `json:"cold_ms"`
	PublishMS  float64 `json:"publish_ms"`
	HitMS      float64 `json:"hit_ms"`
	SpeedupHit float64 `json:"speedup_hit"`

	TBStoreHits      uint64 `json:"tbstore_hits"`
	TBStoreMisses    uint64 `json:"tbstore_misses"`
	TBStorePublishes uint64 `json:"tbstore_publishes"`
	TBStoreBlocks    int    `json:"tbstore_blocks"`
	CompileHits      uint64 `json:"compile_cache_hits"`

	HitRate float64 `json:"hit_rate"`
}

// synthWarmstartGAC builds a translation-dominated program: a long
// straight-line body every block of which executes exactly once, so a cold
// run's wall time is mostly decode+translate — the cost reuse removes.
func synthWarmstartGAC(stmts int) string {
	var b strings.Builder
	b.WriteString("var x;\nvar y;\nfunc main(n) {\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&b, "    x = x + %d;\n    y = y + x;\n", i%7+1)
	}
	b.WriteString("    print(x);\n    print(y);\n    exit(0);\n}\n")
	return b.String()
}

func runWarmstart(cfg warmstartConfig) error {
	if cfg.Stmts <= 0 {
		cfg.Stmts = 3000
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	progress := func(format string, a ...any) {
		if !cfg.Quiet {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	src := synthWarmstartGAC(cfg.Stmts)
	req := server.JobRequest{Scheme: "pico-cas", GAC: src, Arg: 1}
	rep := warmstartReport{Stmts: cfg.Stmts, Repeats: cfg.Repeats}

	// A daemon as shipped: cold, publish, hit.
	s, err := server.New(server.Options{Workers: 1})
	if err != nil {
		return err
	}
	defer drainServer(s)
	cold, st, err := timedJob(s, req)
	if err != nil {
		return fmt.Errorf("cold job: %w", err)
	}
	var want []uint32 = st.Output
	rep.ColdMS = cold
	if m := s.Metrics(); m.TBStoreBlocks != 0 || m.CompileCacheEntries != 0 {
		return fmt.Errorf("the first job for an image left %d blocks and %d compiled images cached, want none",
			m.TBStoreBlocks, m.CompileCacheEntries)
	}
	progress("cold    %8.2f ms  (nothing cached)", cold)
	rep.PublishMS, st, err = timedJob(s, req)
	if err != nil {
		return fmt.Errorf("publishing job: %w", err)
	}
	if !sameOutput(st.Output, want) {
		return fmt.Errorf("publishing job output %v diverges from cold %v", st.Output, want)
	}
	progress("publish %8.2f ms  (%d translations published)", rep.PublishMS, s.Metrics().TBStorePublishes)
	rep.HitMS, err = bestOf(cfg.Repeats, func() (float64, error) {
		d, st, err := timedJob(s, req)
		if err != nil {
			return 0, err
		}
		if !sameOutput(st.Output, want) {
			return 0, fmt.Errorf("hit output %v diverges from cold %v", st.Output, want)
		}
		return d, nil
	})
	if err != nil {
		return fmt.Errorf("hit job: %w", err)
	}
	progress("hit     %8.2f ms", rep.HitMS)
	m := s.Metrics()
	rep.TBStoreHits = m.TBStoreHits
	rep.TBStoreMisses = m.TBStoreMisses
	rep.TBStorePublishes = m.TBStorePublishes
	rep.TBStoreBlocks = m.TBStoreBlocks
	rep.CompileHits = m.CompileCacheHits
	if lookups := m.TBStoreHits + m.TBStoreMisses; lookups > 0 {
		rep.HitRate = float64(m.TBStoreHits) / float64(lookups)
	}

	if rep.HitMS > 0 {
		rep.SpeedupHit = rep.ColdMS / rep.HitMS
	}

	fmt.Printf("warm-start latency, %d-statement straight-line image (best of %d repeats)\n", cfg.Stmts, cfg.Repeats)
	fmt.Printf("  %-10s %10s %10s\n", "mode", "ms", "speedup")
	fmt.Printf("  %-10s %10.2f %10s\n", "cold", rep.ColdMS, "1.00x")
	fmt.Printf("  %-10s %10.2f %10s\n", "publish", rep.PublishMS, "-")
	fmt.Printf("  %-10s %10.2f %9.2fx\n", "hit", rep.HitMS, rep.SpeedupHit)
	fmt.Printf("  tbstore: %d hits / %d misses (%.0f%% hit rate), %d blocks; compile cache: %d hits\n",
		rep.TBStoreHits, rep.TBStoreMisses, 100*rep.HitRate, rep.TBStoreBlocks, rep.CompileHits)

	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_warmstart.json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	// The exposition must carry the reuse counters the fleet dashboards key
	// on, and reuse itself is the experiment's pass condition.
	var expo strings.Builder
	if err := s.WritePrometheus(&expo); err != nil {
		return err
	}
	if !strings.Contains(expo.String(), "atomemu_tbstore_hits_total") {
		return fmt.Errorf("/metrics exposition is missing atomemu_tbstore_hits_total")
	}
	if !strings.Contains(expo.String(), "atomemu_compile_cache_hits_total") {
		return fmt.Errorf("/metrics exposition is missing atomemu_compile_cache_hits_total")
	}
	if rep.TBStoreHits == 0 {
		return fmt.Errorf("shared translation store never hit (rate %.2f)", rep.HitRate)
	}
	if rep.CompileHits == 0 {
		return fmt.Errorf("compile cache never hit")
	}
	return nil
}

// timedJob submits req and waits for a terminal state, returning the
// submit-to-terminal wall latency in milliseconds.
func timedJob(s *server.Server, req server.JobRequest) (float64, server.JobStatus, error) {
	start := time.Now()
	id, err := s.Submit(req)
	if err != nil {
		return 0, server.JobStatus{}, err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			return 0, server.JobStatus{}, fmt.Errorf("job %s vanished", id)
		}
		if st.State.Terminal() {
			if st.State != server.StateDone || st.ExitCode != 0 {
				return 0, st, fmt.Errorf("job %s: state=%s exit=%d err=%q", id, st.State, st.ExitCode, st.Error)
			}
			return float64(time.Since(start).Microseconds()) / 1000, st, nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, server.JobStatus{}, fmt.Errorf("job %s never finished", id)
}

// bestOf runs f n times and keeps the fastest latency.
func bestOf(n int, f func() (float64, error)) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func sameOutput(a, b []uint32) bool {
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

func drainServer(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}
