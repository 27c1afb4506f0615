package main

// fabricsoak is the multi-node failover proof: an in-process router fronts
// several real worker daemons (this binary re-executed in fabric-serve
// mode), a burst of keyed jobs is submitted, and once the router has
// cached a checkpoint for some in-flight job that job's worker is
// SIGKILLed mid-burst. The audit then asserts the fabric contract:
//
//   - 0 lost — every admitted job is terminal "done" on the router;
//   - 0 duplicated — every idempotency key answers its original router id
//     after the failover, and exactly as many jobs completed as were
//     submitted;
//   - ≥1 checkpoint-resumed — at least one failed-over job continued from
//     a checkpoint image the router shipped to a survivor, not from the
//     program entry;
//   - failover changes no results — every output is byte-identical to an
//     uninterrupted single-node engine run of the same program.
//
// With -out DIR the run writes fabricsoak.csv.

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"atomemu/internal/router"
	"atomemu/internal/server"
)

type fabricsoakConfig struct {
	Fleet   int // worker daemons
	Jobs    int
	Workers int // emulation workers per daemon
	Queue   int
	Scale   float64
	OutDir  string
	Quiet   bool
}

// fabricArg sizes job i so the kill lands mid-run at the default scale.
func fabricArg(scale float64, i int) uint32 {
	n := int(float64(500+80*i) * scale)
	if n < 8 {
		n = 8
	}
	return uint32(n)
}

type fabricWorkerProc struct {
	url   string
	child *exec.Cmd
}

func runFabricsoak(cfg fabricsoakConfig) error {
	if cfg.Fleet < 2 {
		cfg.Fleet = 3
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 8
	}
	logf := func(format string, a ...any) {
		if !cfg.Quiet {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmpDir, err := os.MkdirTemp("", "fabricsoak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)

	// Uninterrupted references, computed in-process before the fleet runs.
	refs := make([][]uint32, cfg.Jobs)
	for i := range refs {
		out, err := crashsoakReference(fabricArg(cfg.Scale, i))
		if err != nil {
			return fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[i] = out
	}

	// Spawn the fleet.
	procs := make([]*fabricWorkerProc, 0, cfg.Fleet)
	defer func() {
		for _, p := range procs {
			if p.child.Process != nil {
				p.child.Process.Kill()
				p.child.Wait()
			}
		}
	}()
	urls := make([]string, 0, cfg.Fleet)
	for i := 0; i < cfg.Fleet; i++ {
		addrFile := filepath.Join(tmpDir, fmt.Sprintf("addr-%d", i))
		child := exec.Command(exe, "fabric-serve",
			"-addr-file", addrFile,
			"-workers", strconv.Itoa(cfg.Workers), "-queue", strconv.Itoa(cfg.Queue))
		child.Stderr = os.Stderr
		if err := child.Start(); err != nil {
			return err
		}
		p := &fabricWorkerProc{child: child}
		procs = append(procs, p)
		base, err := awaitAddrFile(addrFile, child, 20*time.Second)
		if err != nil {
			return err
		}
		p.url = base
		urls = append(urls, base)
	}
	logf("fabricsoak: fleet of %d up", cfg.Fleet)

	r, err := router.New(router.Options{
		Workers:                 urls,
		ProbeInterval:           100 * time.Millisecond,
		ProbeTimeout:            2 * time.Second,
		ProbeSuspectAfter:       1,
		ProbeDownAfter:          2,
		CheckpointFetchInterval: 250 * time.Millisecond,
		Client:                  &http.Client{Timeout: 10 * time.Second},
	})
	if err != nil {
		return err
	}
	defer r.Close()

	var csv bytes.Buffer
	fmt.Fprintf(&csv, "# fabricsoak fleet=%d jobs=%d workers=%d scale=%g\n", cfg.Fleet, cfg.Jobs, cfg.Workers, cfg.Scale)
	fmt.Fprintf(&csv, "event,done,total,failover_redispatch,failover_resumed,ckpt_fetches,dispatches,bounces,completed\n")
	csvRow := func(event string, done int) {
		mets := routerMetrics(r)
		fmt.Fprintf(&csv, "%s,%d,%d,%g,%g,%g,%g,%g,%g\n", event, done, cfg.Jobs,
			mets["atomemu_router_failover_redispatch_total"],
			mets["atomemu_router_failover_resumed_total"],
			mets["atomemu_router_ckpt_fetch_total"],
			mets["atomemu_router_dispatch_total"],
			mets["atomemu_router_dispatch_bounce_total"],
			mets["atomemu_router_jobs_completed_total"])
	}

	// Submit the burst.
	ids := make([]string, cfg.Jobs)
	keys := make([]string, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		keys[i] = fmt.Sprintf("fabric-%d", i)
		id, err := r.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: crashsoakGAC, Arg: fabricArg(cfg.Scale, i),
			DeadlineMS:     120_000,
			IdempotencyKey: keys[i],
			Config:         server.JobConfig{CheckpointEvery: 5000},
		})
		if err != nil {
			return fmt.Errorf("submit %s: %w", keys[i], err)
		}
		ids[i] = id
	}
	csvRow("start", 0)

	// Wait until the router caches a checkpoint for a dispatched job —
	// that job's worker is the victim, so the kill provably strands
	// resumable state behind a dead listener.
	var victim string
	deadline := time.Now().Add(60 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			return fmt.Errorf("no checkpoint was cached for any dispatched job within 60s")
		}
		for _, v := range r.Jobs() {
			if string(v.State) == "dispatched" && v.CkptVirtualTime > 0 && v.Worker != "" {
				victim = v.Worker
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, p := range procs {
		if p.url == victim {
			p.child.Process.Kill()
			p.child.Wait()
		}
	}
	logf("fabricsoak: SIGKILLed %s mid-burst", victim)
	csvRow("sigkill", 0)

	// Every job must still finish, off the victim, with the uninterrupted
	// output.
	lost, mismatched := 0, 0
	for i, id := range ids {
		v, err := awaitFabricTerminal(r, id, 180*time.Second)
		if err != nil {
			lost++
			logf("fabricsoak: %s (%s) LOST: %v", keys[i], id, err)
			continue
		}
		if string(v.State) != "done" {
			lost++
			logf("fabricsoak: %s state=%s err=%q", keys[i], v.State, v.Error)
			continue
		}
		if v.Worker == victim {
			mismatched++
			logf("fabricsoak: %s finalized from the killed worker", keys[i])
			continue
		}
		if v.Status == nil || !equalOutputs(v.Status.Output, refs[i]) {
			mismatched++
			logf("fabricsoak: %s output diverged from the uninterrupted reference", keys[i])
		}
	}

	// 0 duplicated: every key still answers its original id, and exactly
	// cfg.Jobs jobs completed.
	duplicated := 0
	for i, key := range keys {
		id, err := r.Submit(server.JobRequest{
			Scheme: "pico-cas", GAC: crashsoakGAC, Arg: fabricArg(cfg.Scale, i),
			IdempotencyKey: key,
		})
		if err != nil || id != ids[i] {
			duplicated++
			logf("fabricsoak: key %s resolved to %s (err=%v), want %s", key, id, err, ids[i])
		}
	}
	mets := routerMetrics(r)
	completed := mets["atomemu_router_jobs_completed_total"]
	resumed := mets["atomemu_router_failover_resumed_total"]
	redispatched := mets["atomemu_router_failover_redispatch_total"]
	if int(completed) != cfg.Jobs {
		duplicated += int(completed) - cfg.Jobs
	}
	csvRow("final", cfg.Jobs-lost-mismatched)

	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.OutDir, "fabricsoak.csv")
		if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	fmt.Printf("fabricsoak: %d jobs over %d workers, 1 SIGKILL: lost=%d duplicated=%d mismatched=%d redispatched=%g resumed=%g\n",
		cfg.Jobs, cfg.Fleet, lost, duplicated, mismatched, redispatched, resumed)
	if lost > 0 || duplicated != 0 || mismatched > 0 {
		return fmt.Errorf("fabricsoak: fabric contract violated (lost=%d duplicated=%d mismatched=%d)", lost, duplicated, mismatched)
	}
	if redispatched < 1 {
		return fmt.Errorf("fabricsoak: the kill stranded no in-flight jobs — nothing failed over")
	}
	if resumed < 1 {
		return fmt.Errorf("fabricsoak: no failover shipped a checkpoint — the resume path went untested")
	}
	return nil
}

func awaitFabricTerminal(r *router.Router, id string, timeout time.Duration) (router.JobView, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v, ok := r.Status(id)
		if !ok {
			return v, fmt.Errorf("job vanished from the router")
		}
		switch string(v.State) {
		case "done", "failed", "shed":
			return v, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	v, _ := r.Status(id)
	return v, fmt.Errorf("not terminal after %s (state=%s worker=%s)", timeout, v.State, v.Worker)
}

// routerMetrics scrapes the in-process router's Prometheus exposition the
// same way crashsoak scrapes a daemon's, reusing its unlabeled parser.
func routerMetrics(r *router.Router) map[string]float64 {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return map[string]float64{}
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		s := string(line)
		if s == "" || s[0] == '#' || bytes.ContainsRune(line, '{') {
			continue
		}
		sp := -1
		for i := len(s) - 1; i >= 0; i-- {
			if s[i] == ' ' {
				sp = i
				break
			}
		}
		if sp <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(s[sp+1:], 64); err == nil {
			out[s[:sp]] = v
		}
	}
	return out
}

// --- child mode ---

// runFabricServe is the worker side of fabricsoak: a plain (non-durable)
// atomemud worker on an ephemeral loopback port, its address published
// through -addr-file. Non-durable is the point — when the parent SIGKILLs
// it, everything it held dies with it, and only the router's cached
// checkpoint can save the in-flight work.
func runFabricServe(args []string) error {
	fs := flag.NewFlagSet("fabric-serve", flag.ContinueOnError)
	addrFile := fs.String("addr-file", "", "file to publish the listen address to (required)")
	workers := fs.Int("workers", 2, "emulation workers")
	queue := fs.Int("queue", 16, "job queue depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrFile == "" {
		return fmt.Errorf("fabric-serve needs -addr-file")
	}
	s, err := server.New(server.Options{
		Workers:    *workers,
		QueueDepth: *queue,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Publish atomically so the parent never reads a half-written address.
	tmp := *addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, *addrFile); err != nil {
		return err
	}
	return http.Serve(ln, s.Handler())
}
