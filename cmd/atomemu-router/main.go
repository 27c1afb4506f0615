// Command atomemu-router fronts a fleet of atomemud workers: it
// consistent-hash routes submitted jobs across the fleet, health-probes
// every worker, watches each worker's completion feed so a job is final
// the moment its worker says so, fails in-flight jobs over to survivors
// when a worker dies (shipping the last fetched checkpoint so work resumes
// instead of restarting), and enforces weighted per-tenant admission quotas with
// deficit-round-robin dispatch.
//
//	atomemu-router -worker http://h1:8347 -worker http://h2:8347 [-addr :8348]
//
// Endpoints:
//
//	POST /jobs        submit a server.JobRequest; 202 with {"id": ...},
//	                  400 on a bad request, 429 (with Retry-After) when the
//	                  tenant is over quota or no worker accepted the job,
//	                  503 while draining
//	GET  /jobs        list router job views
//	GET  /jobs/{id}   one job's view; dispatched jobs proxy the worker's
//	                  live status (a terminal one finalizes the job)
//	GET  /workers     per-worker health (healthy/suspect/down, probes,
//	                  queue gauges)
//	GET  /healthz     liveness
//	GET  /readyz      routability (503 while draining or with no live
//	                  workers on the ring)
//	GET  /statz       tenants + workers + journal stats
//	GET  /metrics     Prometheus text exposition (worker health, failover
//	                  and checkpoint-shipping counters, per-tenant series)
//
// Tenant weights are given as -tenant-weight name=N (repeatable); a
// tenant's admission quota is N × -quota-per-weight live jobs, and its
// share of dispatch bandwidth under contention is proportional to N.
//
// On SIGTERM or SIGINT the router stops admitting (503) and waits for
// live jobs to finish before exiting; with -data-dir its journal lets a
// restarted router re-adopt whatever was still in flight.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"atomemu/internal/durable"
	"atomemu/internal/router"
)

// stringList collects a repeatable -flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// weightMap collects repeatable name=N pairs.
type weightMap map[string]int

func (m weightMap) String() string {
	parts := make([]string, 0, len(m))
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	return strings.Join(parts, ",")
}

func (m weightMap) Set(v string) error {
	name, ws, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight, got %q", v)
	}
	w, err := strconv.Atoi(ws)
	if err != nil || w < 1 {
		return fmt.Errorf("weight in %q must be a positive integer", v)
	}
	m[name] = w
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atomemu-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var workers stringList
	weights := weightMap{}
	addr := flag.String("addr", ":8348", "listen address")
	flag.Var(&workers, "worker", "worker base URL, e.g. http://host:8347 (repeatable)")
	flag.Var(weights, "tenant-weight", "tenant scheduling weight as name=N (repeatable)")
	defaultWeight := flag.Int("default-weight", 1, "weight for tenants without an explicit -tenant-weight")
	quotaPerWeight := flag.Int("quota-per-weight", 32, "live-job admission quota per unit of tenant weight (negative = unbounded)")
	dispatchers := flag.Int("dispatchers", 4, "concurrent dispatch workers")
	redispatchRounds := flag.Int("redispatch-rounds", 3, "dispatch rounds over the ring before a job is shed")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "worker health probe cadence")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	downAfter := flag.Int("down-after", 3, "consecutive failures before a worker is evicted and its jobs failed over")
	probeBackoffMax := flag.Duration("probe-backoff-max", 5*time.Second, "cap on the probe backoff while a worker stays down")
	dataDir := flag.String("data-dir", "", "router journal directory; in-flight jobs survive router restarts (empty = in-memory only)")
	fsync := flag.String("fsync", "batch", "journal sync policy: always, batch, never")
	drainWait := flag.Duration("drain-wait", 2*time.Minute, "how long to wait for live jobs on SIGTERM before exiting anyway")
	flag.Parse()

	if len(workers) == 0 {
		return errors.New("at least one -worker is required")
	}
	sync, err := durable.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	r, err := router.New(router.Options{
		Workers:          workers,
		TenantWeights:    weights,
		DefaultWeight:    *defaultWeight,
		QuotaPerWeight:   *quotaPerWeight,
		Dispatchers:      *dispatchers,
		RedispatchRounds: *redispatchRounds,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		ProbeDownAfter:   *downAfter,
		ProbeBackoffMax:  *probeBackoffMax,
		DataDir:          *dataDir,
		JournalSync:      sync,
		Logger:           log.Default(),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: r.Handler()}
	log.Printf("atomemu-router: listening on %s, fronting %d workers", ln.Addr(), len(workers))

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		r.Close()
		return err
	case <-ctx.Done():
	}
	stop() // second signal kills the process via default handling

	log.Printf("atomemu-router: draining (waiting up to %s for live jobs)", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := r.DrainAndClose(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drainErr != nil {
		return drainErr
	}
	log.Println("atomemu-router: drained clean")
	return nil
}
