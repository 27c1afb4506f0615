package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"atomemu/internal/router"
	"atomemu/internal/server"
)

const (
	fabricWorkers  = 2
	openRate       = 20.0 // svc_open arrivals per second
	satOutstanding = 24   // closed-loop depth: under the tenant quota (32) and 2 x (queue 16 + 1 running)
	// pollFloor is the least time between two status sweeps over the
	// outstanding jobs: the poller asks about a job at most this often. Every
	// status request is proxied by the router to a worker, so a closed loop
	// of satOutstanding jobs swept at the open loop's rate would spend more
	// of the two cores on asking than the workers get for running; the
	// saturation workloads measure throughput, which a coarser sweep does
	// not change, and sweep five times slower.
	pollFloor    = 5 * time.Millisecond
	pollFloorSat = 25 * time.Millisecond
	// rssMarkRate places the point at which a closed loop reads peak_rss_mb:
	// when rssMarkRate jobs per second of window have ended, less than half
	// of what the window serves today. The workers and the router keep every
	// finished job's record, so a closed loop's resident set grows with the
	// jobs it has served, and read at the end of the window it would rise
	// with jobs_per_s: a change that serves a third more jobs would be a
	// memory regression of a third. Read after a fixed number of jobs it is
	// the memory those jobs cost, however fast they were served. A run that
	// never gets that far reports the peak at its end.
	rssMarkRate = 40.0
	// drainGrace bounds the wait for jobs still outstanding when the window
	// closes; a job not terminal by then counts as failed.
	drainGrace = 10 * time.Second
)

// fabric is the service under test, in this process: a router in front of
// two single-slot workers, each behind its own loopback listener, all
// options as shipped except the data directories.
type fabric struct {
	router    *router.Router
	workers   []*server.Server
	servers   []*http.Server
	serving   sync.WaitGroup
	routerURL string
	workerURL []string
	client    *http.Client
	// routerClient is how the router reaches its workers.
	routerClient *http.Client
	logs         lockedBuffer
}

// lockedBuffer collects the fabric's log lines; the tail is read when a job
// fails, possibly while a logger still writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// tail returns the last n bytes written.
func (b *lockedBuffer) tail(n int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	data := b.buf.Bytes()
	if len(data) > n {
		data = data[len(data)-n:]
	}
	return string(data)
}

func (f *fabric) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed at stop
	}()
	return "http://" + ln.Addr().String(), nil
}

func startFabric(dir string) (*fabric, error) {
	f := &fabric{client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	logger := log.New(&f.logs, "", log.Lmicroseconds)
	// The router knows its workers by fixed names and its client dials the
	// listeners behind them. It places a job by hashing the image against
	// the workers' URLs; with the listeners' random ports in those, one seed
	// would meet a different placement on every run.
	var names []string
	realAddr := make(map[string]string)
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	f.routerClient = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := realAddr[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	for i := 0; i < fabricWorkers; i++ {
		srv, err := server.New(server.Options{Workers: 1, DataDir: filepath.Join(dir, fmt.Sprintf("worker%d", i)), Logger: logger})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		url, err := f.listen(srv.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workerURL = append(f.workerURL, url)
		name := fmt.Sprintf("worker%d.bench", i)
		names = append(names, "http://"+name)
		realAddr[name+":80"] = strings.TrimPrefix(url, "http://")
	}
	rt, err := router.New(router.Options{Workers: names, Client: f.routerClient, DataDir: filepath.Join(dir, "router"), Logger: logger})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.routerURL, err = f.listen(rt.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the fabric down and waits for its goroutines.
func (f *fabric) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if f.router != nil {
		f.router.Close()
	}
	for _, w := range f.workers {
		_ = w.Drain(ctx) // jobs are terminal already; an error only means stragglers were cancelled
	}
	// Close, not Shutdown: nothing is in flight any more, and Shutdown waits
	// five seconds on connections a client dialled ahead and never used.
	for _, hs := range f.servers {
		_ = hs.Close()
	}
	f.serving.Wait()
	f.client.CloseIdleConnections()
	f.routerClient.CloseIdleConnections()
}

// svcJob is one submitted job and what the client saw of it.
type svcJob struct {
	prog   guestProg
	body   []byte
	id     string
	due    time.Time // when it was due to be sent
	posted time.Time // when the POST returned
	seen   time.Time // when the poller first saw it terminal
	view   router.JobView
	sample opSample
}

// jobPlan is a traffic shape. arrivals set makes it an open loop on that
// schedule; otherwise it is a closed loop of outstanding jobs that runs for
// window. next returns job i's program and request body.
type jobPlan struct {
	arrivals    []time.Duration
	outstanding int
	window      time.Duration
	count       int           // closed loop: stop after this many jobs when > 0
	poll        time.Duration // least time between status sweeps
	rssMark     int           // read the process's peak RSS when this many jobs have ended (0: never)
	next        func(i int) (guestProg, []byte)
}

// driveStats is what the load generator reports about itself.
type driveStats struct {
	genLagMS []float64 // how late each open-loop job was sent
	sweepMS  []float64 // time between status sweeps
	rssMB    float64   // peak RSS at jobPlan.rssMark, 0 when that many jobs never ended
}

func jobBody(p guestProg) []byte {
	body, err := json.Marshal(server.JobRequest{Scheme: "hst", GAC: p.Source})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return body
}

// post submits one job to base and returns its id.
func post(client *http.Client, base string, body []byte) (string, error) {
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /jobs: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
		return "", fmt.Errorf("POST /jobs: bad accept body %q", data)
	}
	return ack.ID, nil
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // keep the connection reusable
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// judge fills a terminal job's sample from the router's view of it.
func (j *svcJob) judge() {
	s := &j.sample
	s.wall = j.seen.Sub(j.due)
	st := j.view.Status
	switch {
	case string(j.view.State) != "done" || st == nil || st.State != server.StateDone:
		s.why = fmt.Sprintf("job %s ended %s: %s", j.id, j.view.State, j.view.Error)
		if st != nil && st.Error != "" {
			s.why += " / " + st.Error
		}
	case !slices.Equal(st.Output, j.prog.Want):
		s.why = fmt.Sprintf("job %s printed %v, want %v", j.id, st.Output, j.prog.Want)
	default:
		s.ok = true
		s.instrs, s.scOK, s.vcycles = st.GuestInstrs, st.SCs-st.SCFails, st.VirtualTime
	}
}

// drive sends the plan's jobs through the router from one submitter and one
// poller goroutine and returns every job it attempted, in completion order.
func (f *fabric) drive(plan jobPlan) ([]*svcJob, driveStats) {
	var stats driveStats
	posted := make(chan *svcJob, 64) // submitter to poller; deeper than any closed loop, so a full buffer only ever delays an open-loop burst
	tokens := make(chan struct{}, plan.outstanding+1)
	for i := 0; i < plan.outstanding; i++ {
		tokens <- struct{}{}
	}
	start := time.Now()
	var done []*svcJob
	var failedPosts []*svcJob
	var lags []float64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // submitter
		defer wg.Done()
		defer close(posted)
		for i := 0; ; i++ {
			j := &svcJob{}
			if plan.arrivals != nil {
				if i >= len(plan.arrivals) {
					return
				}
				j.due = start.Add(plan.arrivals[i])
				time.Sleep(time.Until(j.due))
				lags = append(lags, ms(time.Since(j.due)))
			} else {
				if plan.count > 0 && i >= plan.count {
					return
				}
				<-tokens
				if plan.count == 0 && time.Since(start) >= plan.window {
					return
				}
				j.due = time.Now()
			}
			j.prog, j.body = plan.next(i)
			id, err := post(f.client, f.routerURL, j.body)
			j.posted = time.Now()
			if err != nil {
				j.seen = j.posted
				j.sample = opSample{wall: j.seen.Sub(j.due), why: err.Error()}
				failedPosts = append(failedPosts, j)
				if plan.arrivals == nil {
					tokens <- struct{}{}
				}
				continue
			}
			j.id = id
			posted <- j
		}
	}()

	// poller (this goroutine)
	var open []*svcJob
	var lastSweep time.Time
	submitting := true
	var deadline time.Time
	for submitting || len(open) > 0 {
		// Take what the submitter has posted: everything that is waiting, and
		// when nothing is outstanding, the next job however long it takes.
		for submitting {
			var j *svcJob
			more := true
			if len(open) == 0 {
				j, more = <-posted
			} else {
				select {
				case j, more = <-posted:
				default:
				}
			}
			if !more {
				submitting = false
			}
			if j == nil {
				break
			}
			open = append(open, j)
		}
		if !submitting && deadline.IsZero() {
			deadline = time.Now().Add(drainGrace)
		}
		sweep := time.Now()
		if !lastSweep.IsZero() {
			stats.sweepMS = append(stats.sweepMS, ms(sweep.Sub(lastSweep)))
		}
		lastSweep = sweep
		still := open[:0]
		for _, j := range open {
			var view router.JobView
			err := getJSON(f.client, f.routerURL+"/jobs/"+j.id, &view)
			j.view = view
			terminal := err == nil && (string(view.State) == "done" || string(view.State) == "failed" || string(view.State) == "shed")
			timedOut := !deadline.IsZero() && sweep.After(deadline)
			if !terminal && !timedOut {
				still = append(still, j)
				continue
			}
			j.seen = time.Now()
			if terminal {
				j.judge()
			} else {
				j.sample = opSample{wall: j.seen.Sub(j.due), why: fmt.Sprintf("job %s not terminal %v after the window closed", j.id, drainGrace)}
			}
			done = append(done, j)
			if len(done) == plan.rssMark {
				stats.rssMB = peakRSSMB()
			}
			if plan.arrivals == nil {
				tokens <- struct{}{}
			}
		}
		open = still
		if len(open) > 0 {
			time.Sleep(time.Until(sweep.Add(plan.poll)))
		} else {
			lastSweep = time.Time{} // an idle gap is not a sweep interval
		}
	}
	wg.Wait()
	stats.genLagMS = lags
	return append(done, failedPosts...), stats
}

// recordSpans derives one job's span tree from the timestamps the client,
// the router and the worker each recorded; all three share this process's
// clock.
func (j *svcJob) recordSpans(tr *tracer, lane int) {
	if tr == nil {
		return
	}
	root := tr.add(0, lane, "job", j.due, j.seen)
	tr.add(root, lane, "bench.post", j.due, j.posted)
	v := j.view
	tr.add(root, lane, "router.queue", v.EnqueuedAt, v.DispatchedAt)
	if st := v.Status; st != nil {
		tr.add(root, lane, "server.queue", st.EnqueuedAt, st.StartedAt)
		tr.add(root, lane, "server.run", st.StartedAt, st.FinishedAt)
		tr.add(root, lane, "router.finish_lag", st.FinishedAt, v.FinishedAt)
	}
	tr.add(root, lane, "bench.observe_lag", v.FinishedAt, j.seen)
}

// svcPlan names where a service workload's jobs come from.
type svcPlan struct {
	open   bool
	unique bool
}

func runSvcOpen(env *runEnv) (*outcome, error)      { return runSvc(env, svcPlan{open: true}) }
func runSvcSatRepeat(env *runEnv) (*outcome, error) { return runSvc(env, svcPlan{}) }
func runSvcSatUnique(env *runEnv) (*outcome, error) { return runSvc(env, svcPlan{unique: true}) }

func runSvc(env *runEnv, sp svcPlan) (*outcome, error) {
	o, _, err := runSvcStats(env, sp)
	return o, err
}

func runSvcStats(env *runEnv, sp svcPlan) (*outcome, driveStats, error) {
	o := &outcome{}
	var f *fabric
	var pool, alternates []guestProg
	rep := 0
	// Set-up is bringing the fabric up (journals opened, listeners bound,
	// router attached) and generating the repeat pool. The warm-up below is
	// not part of it: it ends on a tick of the router's 200 ms poll, so its
	// length reads 0.6, 0.8 or 1.0 s by the seed and the phase, which no
	// median steadies.
	err := o.timeSetup(env, func() (err error) {
		rep++
		dir := filepath.Join(env.tmp, fmt.Sprintf("fabric%d", rep))
		if f, err = startFabric(dir); err != nil {
			return err
		}
		pool, alternates = genPool(env.seed), genPoolAlternates(env.seed)
		return nil
	}, func() { f.stop() })
	if f != nil {
		defer f.stop()
	}
	if err != nil {
		return nil, driveStats{}, err
	}

	// Warm-up, discarded: every image the window may send, once (or as many
	// unique ones, kept apart from the window's by their index). It also
	// shows which worker owns each pool image, which balancePool needs.
	warmup := append(append([]guestProg(nil), pool...), alternates...)
	warm, _ := f.drive(jobPlan{outstanding: poolImages, count: len(warmup), poll: pollFloor, next: func(i int) (guestProg, []byte) {
		p := warmup[i]
		if sp.unique {
			p = genUnique(env.seed, 1<<20+i)
		}
		return p, jobBody(p)
	}})
	owner := make(map[string]string)
	for _, j := range warm {
		if !j.sample.ok {
			return nil, driveStats{}, fmt.Errorf("warm-up: %s\n%s", j.sample.why, f.logs.tail(2000))
		}
		owner[j.prog.Source] = j.view.Worker
	}
	pool = balancePool(pool, alternates, func(p guestProg) string { return owner[p.Source] })
	bodies := make([][]byte, len(pool))
	for i, p := range pool {
		bodies[i] = jobBody(p)
	}
	next := func(order []int) func(i int) (guestProg, []byte) {
		return func(i int) (guestProg, []byte) {
			if sp.unique {
				p := genUnique(env.seed, i)
				return p, jobBody(p)
			}
			k := order[i%len(order)]
			return pool[k], bodies[k]
		}
	}

	plan := jobPlan{window: env.window, outstanding: satOutstanding, poll: pollFloorSat}
	if sp.open {
		plan.poll = pollFloor
		plan.arrivals = genArrivals(env.seed, openRate, env.window)
		plan.outstanding = 0
		plan.next = next(poolOrder(env.seed, len(plan.arrivals)))
	} else {
		plan.next = next(poolOrder(env.seed, 1<<14))
		plan.rssMark = int(rssMarkRate * env.window.Seconds())
	}
	start := time.Now()
	jobs, stats := f.drive(plan)
	var last time.Time
	for i, j := range jobs {
		o.ops = append(o.ops, j.sample)
		if j.seen.After(last) {
			last = j.seen
		}
		j.recordSpans(env.tr, i%32)
	}
	o.busy = last.Sub(start)
	if stats.rssMB > 0 {
		o.rssMB, o.rssNote = stats.rssMB, fmt.Sprintf("when job %d ended", plan.rssMark)
	}
	if sheds := f.routerSheds(); sheds > 0 {
		o.notes = append(o.notes, fmt.Sprintf("router shed %d submissions", sheds))
	}
	for _, j := range jobs {
		if !j.sample.ok {
			o.notes = append(o.notes, "fabric log tail: "+f.logs.tail(1500))
			break
		}
	}
	return o, stats, nil
}

// routerSheds sums the router's per-tenant shed counters.
func (f *fabric) routerSheds() uint64 {
	var n uint64
	for _, t := range f.router.Tenants() {
		n += t.ShedQuota + t.ShedRoute
	}
	return n
}
