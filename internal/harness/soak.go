package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"atomemu/internal/faultinject"
	"atomemu/internal/server"
)

// Guest programs the soak clients submit. The mix is chosen so every
// robustness path gets traffic: plain completion, rollback recovery off an
// injected fault, watchdog trips that feed the circuit breaker, and
// wall-clock cancellation.
const (
	soakCounterGAC = `
var counter;
func main(n) {
    var i = 0;
    while (i < n) {
        atomic_add(&counter, 1);
        i = i + 1;
    }
    print(counter);
    exit(0);
}
`
	// The store-exclusive never matches the load-exclusive address, so the
	// SC can never succeed and the progress watchdog trips — a failure that
	// implicates the scheme and so counts against its breaker.
	soakWedgedGAC = `
var x;
var y;
func main(n) {
    while (1) {
        ll(&x);
        sc(&y, 1);
    }
}
`
	soakSpinGAC = `
var sink;
func main(n) {
    while (1) {
        sink = sink + 1;
    }
}
`
)

// SoakOptions sizes the soak experiment.
type SoakOptions struct {
	Clients       int   // concurrent clients (default 8)
	JobsPerClient int   // jobs each client submits (default 12)
	Workers       int   // daemon worker pool (default 4)
	QueueDepth    int   // admission queue depth (default 4: small, so shed happens)
	Seed          int64 // client mix seed (default 1)
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.JobsPerClient <= 0 {
		o.JobsPerClient = 12
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SoakRow is one client's tally.
type SoakRow struct {
	Client    int
	Submitted int // jobs accepted by the server
	Shed      int // 429 responses observed
	Retried   int // jobs accepted only after at least one 429
	Dropped   int // jobs abandoned after every retry shed
	Completed int
	Failed    int
	Canceled  int
	Recovered int // completed after at least one rollback restore
	Demoted   int // ran on a scheme other than the one requested
}

// Soak is the multi-tenant robustness experiment: an in-process atomemud
// (real HTTP stack on a loopback port) soaked by concurrent clients whose
// job mix includes recoverable faults, scheme-implicating failures and
// wall-deadline overruns, finished with a drain while jobs are in flight.
type Soak struct {
	Opts       SoakOptions
	Rows       []SoakRow
	Metrics    server.Metrics
	Breakers   []server.BreakerStatus
	DrainWave  int  // jobs submitted right before the drain
	DrainClean bool // every accepted job terminal after drain, no panics
	Wall       time.Duration
}

// RunSoak executes the experiment.
func RunSoak(opts SoakOptions, progress Progress) (*Soak, error) {
	if progress == nil {
		progress = noProgress
	}
	opts = opts.withDefaults()
	start := time.Now()

	s, err := server.New(server.Options{
		Workers:             opts.Workers,
		QueueDepth:          opts.QueueDepth,
		DefaultWallDeadline: 30 * time.Second,
		BreakerThreshold:    2,
		BreakerCooldown:     2 * time.Second,
		DrainGrace:          500 * time.Millisecond,
		AllowFaultInjection: true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	progress("soak: daemon on %s, %d clients x %d jobs (workers=%d queue=%d)",
		base, opts.Clients, opts.JobsPerClient, opts.Workers, opts.QueueDepth)

	exp := &Soak{Opts: opts, Rows: make([]SoakRow, opts.Clients)}
	client := server.Client{HTTP: http.DefaultClient}
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			soakClient(client, base, opts, c, &exp.Rows[c])
		}(c)
	}
	wg.Wait()
	for i := range exp.Rows {
		r := &exp.Rows[i]
		progress("soak: client %d: submitted=%d shed=%d retried=%d completed=%d failed=%d canceled=%d recovered=%d demoted=%d",
			r.Client, r.Submitted, r.Shed, r.Retried, r.Completed, r.Failed, r.Canceled, r.Recovered, r.Demoted)
	}

	// Drain while jobs are still in flight: submit one slow job per client
	// and immediately drain. Accepted jobs must all reach a terminal state
	// (the grace-period cancel is their exit path) and the daemon must not
	// have panicked.
	slow, err := json.Marshal(server.JobRequest{Scheme: "pico-cas", GAC: soakSpinGAC, DeadlineMS: 60_000})
	if err != nil {
		return nil, err
	}
	for c := 0; c < opts.Clients; c++ {
		if _, err := client.Submit(context.Background(), base, slow); err == nil {
			exp.DrainWave++
		}
	}
	progress("soak: draining with %d slow jobs in flight", exp.DrainWave)
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := s.Drain(dctx)
	hs.Close()
	<-serveErr

	exp.Metrics = s.Metrics()
	exp.Breakers = s.Breakers()
	exp.DrainClean = drainErr == nil && exp.Metrics.Panics == 0
	if exp.DrainClean {
		for _, st := range s.Jobs() {
			if !st.State.Terminal() {
				exp.DrainClean = false
				break
			}
		}
	}
	exp.Wall = time.Since(start)
	progress("soak: done in %s (accepted=%d shed=%d panics=%d drain_clean=%v)",
		exp.Wall.Round(time.Millisecond), exp.Metrics.Accepted, exp.Metrics.Shed, exp.Metrics.Panics, exp.DrainClean)
	return exp, nil
}

// soakClient submits the client's job mix in bursts of three — enough
// concurrent submitters to overflow the small admission queue and exercise
// the 429 shed/retry path — then polls each accepted job to a terminal
// state.
func soakClient(client server.Client, base string, opts SoakOptions, c int, row *SoakRow) {
	row.Client = c
	rng := rand.New(rand.NewSource(opts.Seed + int64(c)))
	ctx := context.Background()
	const burst = 3
	for i := 0; i < opts.JobsPerClient; i += burst {
		n := burst
		if rem := opts.JobsPerClient - i; rem < n {
			n = rem
		}
		ids := make([]string, 0, n)
		for j := 0; j < n; j++ {
			id, shed, ok := soakSubmitRetry(client, base, soakJob(rng), rng)
			row.Shed += shed
			if !ok {
				row.Dropped++
				continue
			}
			row.Submitted++
			if shed > 0 {
				row.Retried++
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			// A job that errs or never finishes counts as failed.
			var st server.JobStatus
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(3 * time.Millisecond) {
				var err error
				if st, _, err = client.Status(ctx, base, id, ""); err != nil || st.State.Terminal() || time.Now().After(deadline) {
					break
				}
			}
			switch st.State {
			case server.StateDone:
				row.Completed++
				if st.Restores > 0 {
					row.Recovered++
				}
			case server.StateCanceled:
				row.Canceled++
			default:
				row.Failed++
			}
			if st.Demoted {
				row.Demoted++
			}
		}
	}
}

// soakJob picks one job from the mix: mostly healthy counters across
// schemes, plus recoverable-fault, wedged-watchdog and deadline-overrun
// jobs in fixed proportions.
func soakJob(rng *rand.Rand) server.JobRequest {
	schemes := []string{"pico-cas", "hst", "pst", "hst-htm"}
	switch rng.Intn(10) {
	case 0, 1: // recoverable injected fault: checkpoint, fault once, roll back, complete
		return server.JobRequest{
			Scheme:  "pico-cas",
			GAC:     soakCounterGAC,
			Threads: 2,
			Arg:     uint32(1500 + rng.Intn(1000)),
			Config:  server.JobConfig{CheckpointEvery: 20_000, RecoveryAttempts: 4},
			Fault: []faultinject.Spec{{
				Op: "mem-store", Action: "fault",
				After: uint64(3000 + rng.Intn(4000)), Count: 1,
			}},
		}
	case 2: // wedged SC: watchdog trip, feeds the pico-cas breaker
		return server.JobRequest{
			Scheme: "pico-cas",
			GAC:    soakWedgedGAC,
			Config: server.JobConfig{WatchdogSCFails: 300},
		}
	case 3: // wall-deadline overrun: canceled by the server
		return server.JobRequest{
			Scheme:     "hst",
			GAC:        soakSpinGAC,
			DeadlineMS: int64(50 + rng.Intn(100)),
		}
	default: // healthy counter across the scheme mix
		return server.JobRequest{
			Scheme:  schemes[rng.Intn(len(schemes))],
			GAC:     soakCounterGAC,
			Threads: 1 + rng.Intn(4),
			Arg:     uint32(500 + rng.Intn(2000)),
		}
	}
}

// soakSubmitRetry submits with up to four attempts, backing off after each
// shed. Returns the job id, how many 429s were absorbed, and whether the
// job was eventually accepted.
func soakSubmitRetry(client server.Client, base string, req server.JobRequest, rng *rand.Rand) (id string, shed int, ok bool) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, false
	}
	for attempt := 0; attempt < 4; attempt++ {
		ack, err := client.Submit(context.Background(), base, body)
		var refused *server.Refused
		switch {
		case err == nil:
			return ack.ID, shed, true
		case errors.As(err, &refused) && refused.Code == http.StatusTooManyRequests:
			shed++
			time.Sleep(time.Duration(5+rng.Intn(10)*(attempt+1)) * time.Millisecond)
		default:
			return "", shed, false
		}
	}
	return "", shed, false
}

// Totals sums the per-client rows.
func (exp *Soak) Totals() SoakRow {
	var t SoakRow
	t.Client = -1
	for _, r := range exp.Rows {
		t.Submitted += r.Submitted
		t.Shed += r.Shed
		t.Retried += r.Retried
		t.Dropped += r.Dropped
		t.Completed += r.Completed
		t.Failed += r.Failed
		t.Canceled += r.Canceled
		t.Recovered += r.Recovered
		t.Demoted += r.Demoted
	}
	return t
}

// Render writes the experiment as an aligned table.
func (exp *Soak) Render(w io.Writer) {
	fmt.Fprintf(w, "Soak — %d clients x %d jobs against atomemud (workers=%d queue=%d), %s wall\n\n",
		exp.Opts.Clients, exp.Opts.JobsPerClient, exp.Opts.Workers, exp.Opts.QueueDepth,
		exp.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  %-7s %9s %6s %8s %8s %10s %7s %9s %10s %8s\n",
		"client", "submitted", "shed", "retried", "dropped", "completed", "failed", "canceled", "recovered", "demoted")
	rows := append([]SoakRow(nil), exp.Rows...)
	rows = append(rows, exp.Totals())
	for _, r := range rows {
		name := fmt.Sprintf("%d", r.Client)
		if r.Client < 0 {
			name = "total"
		}
		fmt.Fprintf(w, "  %-7s %9d %6d %8d %8d %10d %7d %9d %10d %8d\n",
			name, r.Submitted, r.Shed, r.Retried, r.Dropped, r.Completed, r.Failed, r.Canceled, r.Recovered, r.Demoted)
	}
	m := exp.Metrics
	fmt.Fprintf(w, "\n  daemon: accepted=%d shed=%d completed=%d failed=%d canceled=%d recovered=%d demoted=%d trips=%d panics=%d\n",
		m.Accepted, m.Shed, m.Completed, m.Failed, m.Canceled, m.Recovered, m.Demoted, m.BreakerTrips, m.Panics)
	for _, b := range exp.Breakers {
		fmt.Fprintf(w, "  breaker %-9s %-9s failures=%d trips=%d\n", b.Scheme, b.State, b.Failures, b.Trips)
	}
	fmt.Fprintf(w, "  drain: %d jobs in flight, clean=%v\n", exp.DrainWave, exp.DrainClean)
}

// CSV writes per-client rows plus a totals row:
// client,submitted,shed,retried,dropped,completed,failed,canceled,recovered,demoted,breaker_trips,panics,drain_clean.
func (exp *Soak) CSV(w io.Writer) {
	fmt.Fprintf(w, "# seed=%d\n", exp.Opts.Seed)
	fmt.Fprintln(w, "client,submitted,shed,retried,dropped,completed,failed,canceled,recovered,demoted,breaker_trips,panics,drain_clean")
	rows := append([]SoakRow(nil), exp.Rows...)
	rows = append(rows, exp.Totals())
	for _, r := range rows {
		name := fmt.Sprintf("%d", r.Client)
		if r.Client < 0 {
			name = "total"
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%v\n",
			name, r.Submitted, r.Shed, r.Retried, r.Dropped, r.Completed, r.Failed,
			r.Canceled, r.Recovered, r.Demoted, exp.Metrics.BreakerTrips, exp.Metrics.Panics, exp.DrainClean)
	}
}
