package main

// crashsoak is the durability proof: a real atomemud-style daemon (this
// binary re-executed in serve mode with -data-dir) is SIGKILLed mid-burst
// several times over one data directory. After each kill the parent
// restarts it, re-submits every idempotency key, and finally asserts the
// durability contract:
//
//   - no accepted job is lost — every acknowledged id is terminal "done"
//     on the final daemon;
//   - no idempotent submit is duplicated — a key answers the same job id
//     across every restart;
//   - recovery changes no results — every job's output is byte-identical
//     to an uninterrupted in-process engine run of the same program;
//   - at least one job resumed from an on-disk checkpoint, and replay
//     skipped no corrupt records.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"atomemu/internal/engine"
	"atomemu/internal/gac"
	"atomemu/internal/server"
)

// crashsoakGAC prints a milestone after every outer loop of 1000 atomic
// increments, so a resumed run that lost or repeated work is visible in the
// output sequence, not just the final value.
const crashsoakGAC = `
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

type crashsoakConfig struct {
	Cycles  int // SIGKILL cycles before the final run to completion
	Jobs    int
	Workers int
	Queue   int
	Scale   float64
	OutDir  string
	Quiet   bool
}

// crashsoakArg sizes job i so a kill lands mid-run at the default scale.
func crashsoakArg(scale float64, i int) uint32 {
	n := int(float64(600+100*i) * scale)
	if n < 8 {
		n = 8
	}
	return uint32(n)
}

func runCrashsoak(cfg crashsoakConfig) error {
	if cfg.Cycles < 1 {
		cfg.Cycles = 3
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 6
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
	dataDir, err := os.MkdirTemp("", "crashsoak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	addrFile := filepath.Join(dataDir, "addr")

	// Uninterrupted references, computed in-process before any daemon runs.
	refs := make([][]uint32, cfg.Jobs)
	for i := range refs {
		out, err := crashsoakReference(crashsoakArg(cfg.Scale, i))
		if err != nil {
			return fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[i] = out
	}

	client := server.Client{HTTP: &http.Client{Timeout: 5 * time.Second}}
	ctx := context.Background()
	idByKey := make(map[string]string)
	var csv bytes.Buffer
	fmt.Fprintf(&csv, "# crashsoak cycles=%d jobs=%d workers=%d scale=%g\n", cfg.Cycles, cfg.Jobs, cfg.Workers, cfg.Scale)
	fmt.Fprintf(&csv, "cycle,event,done,total,spill_total,resumed,requeued,terminal,corrupt\n")

	// kill pulls the plug on the running daemon: no drain, no warning,
	// exactly like a crash. Every return path leaves none behind.
	var child *exec.Cmd
	kill := func() {
		if child != nil {
			child.Process.Kill()
			child.Wait()
			child = nil
		}
	}
	defer kill()

	var resumedTotal, requeuedTotal float64
	kills := 0
	for cycle := 0; cycle <= cfg.Cycles; cycle++ {
		os.Remove(addrFile)
		child = exec.Command(exe, "serve",
			"-data-dir", dataDir, "-addr-file", addrFile,
			"-workers", strconv.Itoa(cfg.Workers), "-queue", strconv.Itoa(cfg.Queue))
		child.Stderr = os.Stderr
		if err := child.Start(); err != nil {
			child = nil
			return err
		}
		base, err := awaitAddrFile(addrFile, child, 20*time.Second)
		if err != nil {
			return err
		}

		mets, err := client.Metrics(ctx, base)
		if err != nil {
			return err
		}
		resumedTotal += mets["atomemu_restart_jobs_resumed_total"]
		requeuedTotal += mets["atomemu_restart_jobs_requeued_total"]
		if c := mets["atomemu_journal_corrupt_records_total"]; c != 0 {
			return fmt.Errorf("cycle %d: replay skipped %g corrupt journal records", cycle, c)
		}
		fmt.Fprintf(&csv, "%d,start,%d,%d,%g,%g,%g,%g,%g\n", cycle,
			countDone(client, base, idByKey), cfg.Jobs,
			mets["atomemu_ckpt_spill_total"],
			mets["atomemu_restart_jobs_resumed_total"],
			mets["atomemu_restart_jobs_requeued_total"],
			mets["atomemu_restart_jobs_terminal_total"],
			mets["atomemu_journal_corrupt_records_total"])
		logf("crashsoak: cycle %d up at %s (resumed=%g requeued=%g terminal=%g)",
			cycle, base, mets["atomemu_restart_jobs_resumed_total"],
			mets["atomemu_restart_jobs_requeued_total"], mets["atomemu_restart_jobs_terminal_total"])

		// (Re-)submit every key, retrying a refusal or a transport error for
		// up to 15 s. A key seen before must answer its old id.
		for i := 0; i < cfg.Jobs; i++ {
			key := fmt.Sprintf("crash-%d", i)
			body, err := json.Marshal(server.JobRequest{
				Scheme: "pico-cas", GAC: crashsoakGAC, Arg: crashsoakArg(cfg.Scale, i),
				DeadlineMS:     120_000,
				IdempotencyKey: key,
				Config:         server.JobConfig{CheckpointEvery: 5000},
			})
			if err != nil {
				return err
			}
			var ack server.Accepted
			for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
				if ack, err = client.Submit(ctx, base, body); err == nil || time.Now().After(deadline) {
					break
				}
			}
			if err != nil {
				return fmt.Errorf("cycle %d submit %s: %w", cycle, key, err)
			}
			if old, seen := idByKey[key]; seen && old != ack.ID {
				return fmt.Errorf("cycle %d: key %s answered %s, previously %s — duplicate admission", cycle, key, ack.ID, old)
			}
			idByKey[key] = ack.ID
		}

		if cycle < cfg.Cycles {
			// Let the burst run until checkpoints hit the disk, then pull the
			// plug.
			if err := awaitSpill(client, base, 30*time.Second); err != nil {
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
			kill()
			kills++
			fmt.Fprintf(&csv, "%d,sigkill,,%d,,,,,\n", cycle, cfg.Jobs)
			logf("crashsoak: cycle %d SIGKILL", cycle)
			continue
		}

		// Final cycle: run everything to completion and audit.
		if err := awaitAllDone(client, base, idByKey, 120*time.Second); err != nil {
			return err
		}
		lost, mismatched := 0, 0
		for i := 0; i < cfg.Jobs; i++ {
			key := fmt.Sprintf("crash-%d", i)
			st, found, err := client.Status(ctx, base, idByKey[key], key)
			if err != nil || !found {
				lost++
				logf("crashsoak: %s (%s) LOST: found=%v err=%v", key, idByKey[key], found, err)
				continue
			}
			if st.State != server.StateDone || !slices.Equal(st.Output, refs[i]) {
				mismatched++
				logf("crashsoak: %s state=%s output mismatch (got %d words, want %d)",
					key, st.State, len(st.Output), len(refs[i]))
			}
		}
		mets, _ = client.Metrics(ctx, base)
		fmt.Fprintf(&csv, "%d,final,%d,%d,%g,%g,%g,%g,%g\n", cycle,
			cfg.Jobs-lost-mismatched, cfg.Jobs,
			mets["atomemu_ckpt_spill_total"], resumedTotal, requeuedTotal,
			mets["atomemu_restart_jobs_terminal_total"],
			mets["atomemu_journal_corrupt_records_total"])
		kill()

		fmt.Printf("crashsoak: %d jobs, %d SIGKILL cycles: lost=%d duplicated=0 mismatched=%d resumed=%g requeued=%g\n",
			cfg.Jobs, kills, lost, mismatched, resumedTotal, requeuedTotal)
		if lost > 0 || mismatched > 0 {
			return fmt.Errorf("crashsoak: durability contract violated (lost=%d mismatched=%d)", lost, mismatched)
		}
		if kills < cfg.Cycles {
			return fmt.Errorf("crashsoak: only %d of %d kill cycles ran", kills, cfg.Cycles)
		}
		if resumedTotal < 1 {
			return fmt.Errorf("crashsoak: no job ever resumed from a checkpoint — the resume path went untested")
		}
	}

	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.OutDir, "crashsoak.csv")
		if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// crashsoakReference runs one job's program uninterrupted on a bare engine.
func crashsoakReference(arg uint32) ([]uint32, error) {
	im, err := gac.Compile(crashsoakGAC)
	if err != nil {
		return nil, err
	}
	cfg := engine.DefaultConfig("pico-cas")
	m, err := engine.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImage(im); err != nil {
		return nil, err
	}
	if _, err := m.SpawnThread(im.Entry, arg); err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return m.Output(), nil
}

// awaitAddrFile waits for the child daemon to publish its listen address.
func awaitAddrFile(path string, child *exec.Cmd, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return "http://" + strings.TrimSpace(string(b)), nil
		}
		if child.ProcessState != nil {
			return "", fmt.Errorf("daemon exited before publishing its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("daemon never published %s", path)
}

// awaitSpill polls /metrics until at least one checkpoint hit the disk in
// this daemon's lifetime — the signal that a kill now lands mid-run with
// durable state worth resuming.
func awaitSpill(client server.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		mets, err := client.Metrics(context.Background(), base)
		if err == nil && mets["atomemu_ckpt_spill_total"] > 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("no checkpoint spill within %s", timeout)
}

func awaitAllDone(client server.Client, base string, idByKey map[string]string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := 0
		for key, id := range idByKey {
			st, _, err := client.Status(context.Background(), base, id, key)
			if err == nil && st.State.Terminal() {
				done++
			}
		}
		if done == len(idByKey) {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("jobs still unterminated after %s", timeout)
}

func countDone(client server.Client, base string, idByKey map[string]string) int {
	done := 0
	for key, id := range idByKey {
		if st, _, err := client.Status(context.Background(), base, id, key); err == nil && st.State == server.StateDone {
			done++
		}
	}
	return done
}

// --- child mode ---

// runServe is the child mode of crashsoak and fabricsoak: an atomemud
// worker on an ephemeral loopback port, its address published through
// -addr-file. It never shuts down gracefully — the parent's SIGKILL is the
// whole point. With -data-dir (crashsoak) it is durable and fsyncs every
// record: SIGKILL is the adversary, so every acknowledged record must
// already be on disk, and batch syncing would let an acked job vanish.
// Without it (fabricsoak) it is in-memory: when the parent kills it,
// everything it held dies with it, and only the router's cached checkpoint
// can save the in-flight work.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "durability directory (omit for an in-memory worker)")
	addrFile := fs.String("addr-file", "", "file to publish the listen address to (required)")
	workers := fs.Int("workers", 2, "emulation workers")
	queue := fs.Int("queue", 16, "job queue depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrFile == "" {
		return fmt.Errorf("serve needs -addr-file")
	}
	opts := server.Options{Workers: *workers, QueueDepth: *queue, DataDir: *dataDir}
	if *dataDir != "" {
		opts.Fsync = "always"
	}
	s, err := server.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Publish atomically so the parent never reads a half-written address.
	if err := os.WriteFile(*addrFile+".tmp", []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(*addrFile+".tmp", *addrFile); err != nil {
		return err
	}
	return http.Serve(ln, s.Handler())
}
