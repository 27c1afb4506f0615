// Command atomemud serves emulation jobs over HTTP/JSON.
//
//	atomemud [-addr :8347] [-workers 4] [-queue 16]
//
// Endpoints:
//
//	POST /jobs        submit a server.JobRequest; 202 with {"id": ...},
//	                  400 on a bad request, 429 (with Retry-After) when
//	                  the queue is full, 503 while draining
//	GET  /jobs        list all job statuses
//	GET  /jobs/{id}   one job's status (live counters while running)
//	GET  /jobs/{id}/checkpoint  latest live checkpoint as an ACKP image
//	POST /jobs/{id}/resume      admit a job resuming from a shipped ACKP
//	                  snapshot (router failover hand-off)
//	GET  /completions long-poll feed of the jobs that turned terminal after
//	                  a cursor (?epoch=E&after=N&wait=S); what routers watch
//	                  instead of polling job statuses
//	GET  /healthz     liveness + metrics (always 200 while the process is up)
//	GET  /readyz      admission readiness (503 once draining starts or
//	                  while journal replay is still running, Retry-After set)
//	GET  /statz       metrics + per-scheme circuit-breaker states
//	GET  /metrics     Prometheus text exposition (counters, breaker
//	                  gauges, engine totals, per-scheme latency histograms)
//
// With -pprof ADDR the daemon also serves net/http/pprof on a separate
// listener (keep it off the tenant-facing address).
//
// On SIGTERM or SIGINT the daemon stops admitting (503), finishes every
// accepted job — cancelling stragglers after -drain-grace — and exits 0
// once all jobs are terminal. A second signal aborts the HTTP server
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atomemu/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atomemud:", err)
		os.Exit(1)
	}
}

func run() error {
	def := server.DefaultOptions()
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", def.Workers, "concurrent emulation workers")
	queue := flag.Int("queue", def.QueueDepth, "job queue depth (full queue sheds with 429)")
	wallDeadline := flag.Duration("wall-deadline", def.DefaultWallDeadline, "default per-job wall-clock budget")
	maxWallDeadline := flag.Duration("max-wall-deadline", def.MaxWallDeadline, "cap on tenant-requested wall budgets")
	virtDeadline := flag.Uint64("virtual-deadline", def.DefaultVirtualDeadline, "default per-job virtual-cycle budget")
	maxInstrs := flag.Uint64("max-instrs", def.MaxGuestInstrs, "cap on guest instructions per job")
	maxThreads := flag.Int("max-threads", def.MaxThreadsPerJob, "cap on threads per job")
	breakerThreshold := flag.Int("breaker-threshold", def.BreakerThreshold, "scheme failures before the breaker opens (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", def.BreakerCooldown, "open-breaker cooldown before a half-open probe")
	drainGrace := flag.Duration("drain-grace", def.DrainGrace, "time to let jobs finish on SIGTERM before cancelling them")
	allowFault := flag.Bool("allow-fault-inject", false, "accept fault-injection rules in job requests (soak/CI only)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off; use a loopback port, not -addr)")
	dataDir := flag.String("data-dir", "", "durability directory: job journal + checkpoint spills; accepted jobs survive restarts (empty = in-memory only)")
	fsync := flag.String("fsync", def.Fsync, "journal sync policy: always (power-loss safe), batch, never (crash-safe via page cache only)")
	maxResumes := flag.Int("max-restart-resumes", def.MaxRestartResumes, "checkpoint-resume attempts per job across restarts before requeueing from scratch (negative = unbounded)")
	tbstoreBlocks := flag.Int("tbstore-blocks", def.SharedTBCacheBlocks, "cross-job shared translation store capacity in blocks (0 = off)")
	flag.Parse()
	// Options reads 0 as "the default" and only a negative value as off; the
	// flags' 0 means off.
	if *breakerThreshold <= 0 {
		*breakerThreshold = -1
	}
	if *tbstoreBlocks <= 0 {
		*tbstoreBlocks = -1
	}

	s, err := server.New(server.Options{
		Workers:                *workers,
		QueueDepth:             *queue,
		DefaultWallDeadline:    *wallDeadline,
		MaxWallDeadline:        *maxWallDeadline,
		DefaultVirtualDeadline: *virtDeadline,
		MaxGuestInstrs:         *maxInstrs,
		MaxThreadsPerJob:       *maxThreads,
		BreakerThreshold:       *breakerThreshold,
		BreakerCooldown:        *breakerCooldown,
		DrainGrace:             *drainGrace,
		AllowFaultInjection:    *allowFault,
		DataDir:                *dataDir,
		Fsync:                  *fsync,
		MaxRestartResumes:      *maxResumes,
		SharedTBCacheBlocks:    *tbstoreBlocks,
		BackgroundReplay:       true,
		Logger:                 log.Default(),
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		// Replay runs behind the 503 readiness window; log its outcome once
		// it settles so the listener is up while recovery is still reading.
		go func() {
			if err := s.WaitReady(context.Background()); err != nil {
				return
			}
			m := s.Metrics()
			log.Printf("atomemud: durable in %s (fsync=%s, replayed=%d records, resumed=%d requeued=%d terminal=%d)",
				*dataDir, *fsync, m.JournalReplayed, m.RestartResumed, m.RestartRequeued, m.RestartTerminal)
		}()
	}

	if *pprofAddr != "" {
		// A dedicated mux, not http.DefaultServeMux: the profiling
		// endpoints must never leak onto the tenant-facing listener.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		log.Printf("atomemud: pprof on %s", pln.Addr())
		go func() {
			if err := http.Serve(pln, pm); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("atomemud: pprof server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	log.Printf("atomemud: listening on %s (workers=%d queue=%d)", ln.Addr(), *workers, *queue)

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // second signal kills the process via default handling

	log.Printf("atomemud: draining (grace %s)", *drainGrace)
	// Drain first so status reads and the completion feed keep working
	// until every accepted job is terminal (the drain then releases blocked
	// feed watchers), then close the HTTP server.
	dctx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	m := s.Metrics()
	log.Printf("atomemud: drained clean (accepted=%d completed=%d failed=%d canceled=%d shed=%d)",
		m.Accepted, m.Completed, m.Failed, m.Canceled, m.Shed)
	return nil
}
