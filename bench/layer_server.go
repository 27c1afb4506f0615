package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	"atomemu/internal/server"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "server", Home: "svc_sat_repeat", Share: 0.07,
		Metrics: []layerMetric{
			{Name: "server.submit_us", Unit: "us", Moves: "jobs_per_s@svc_sat_unique (admission compiles the program)"},
			{Name: "server.queue_wait_ms", Unit: "ms", Moves: "job_p50_ms@svc_open"},
			{Name: "server.run_ms", Unit: "ms", Moves: "jobs_per_s@svc_sat_repeat, job_p50_ms@svc_open"},
			{Name: "server.inproc_job_ms", Unit: "ms", Moves: "job_p50_ms@svc_open"},
			{Name: "server.http_job_ms", Unit: "ms", Moves: "job_p50_ms@svc_open"},
			{Name: "server.journal_appends_per_job", Unit: "count", Moves: "jobs_per_s@svc_sat_repeat"},
			{Name: "server.journal_fsyncs_per_job", Unit: "count", Moves: "jobs_per_s@svc_sat_repeat"},
			{Name: "server.shed", Unit: "count", Moves: "fail_share@svc_sat_repeat"},
		},
		Run: runServerLayer,
	})
}

// checkStatus is the oracle of a job sent straight to a worker.
func checkStatus(p guestProg, st server.JobStatus) error {
	if st.State != server.StateDone || !slices.Equal(st.Output, p.Want) {
		return fmt.Errorf("job %s ended %s (%s) printing %v, want %v", st.ID, st.State, st.Error, st.Output, p.Want)
	}
	return nil
}

// workerJob sends p to the worker at base over HTTP, asks every poll until it
// is terminal, checks it, and returns POST-to-terminal as the client saw it.
func workerJob(client *http.Client, base string, p guestProg, poll time.Duration) (time.Duration, error) {
	t := time.Now()
	id, err := post(client, base, jobBody(p))
	if err != nil {
		return 0, err
	}
	var st server.JobStatus
	for {
		if err := getJSON(client, base+"/jobs/"+id, &st); err != nil {
			return 0, err
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(poll)
	}
	return time.Since(t), checkStatus(p, st)
}

// statusPoll is how often the driver asks a lone worker about its one job.
const statusPoll = 200 * time.Microsecond

// runServerLayer sends the repeat pool through one worker configured as the
// fabric's are, one job at a time: first by calling Submit and Status, then
// over the worker's HTTP handler on loopback.
func runServerLayer(env *layerEnv) (map[string]float64, error) {
	srv, err := server.New(server.Options{Workers: 1, DataDir: filepath.Join(env.tmp, "server-layer"), Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed at Close
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	defer func() {
		_ = hs.Close()
		<-served
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // every job is terminal already
	}()

	pool := genPool(env.seed)
	var submitUS, queueMS, runMS, inprocMS, httpMS []float64
	before := srv.Metrics()
	jobs := 0
	for i, more := 0, rounds(env.budget/2, 4, anyNumber); more(); i++ {
		p := pool[i%len(pool)]
		t := time.Now()
		id, err := srv.Submit(server.JobRequest{Scheme: "hst", GAC: p.Source})
		submitted := time.Now()
		if err != nil {
			return nil, err
		}
		var st server.JobStatus
		for st, _ = srv.Status(id); !st.State.Terminal(); st, _ = srv.Status(id) {
			time.Sleep(statusPoll)
		}
		inprocMS = append(inprocMS, ms(time.Since(t)))
		if err := checkStatus(p, st); err != nil {
			return nil, err
		}
		submitUS = append(submitUS, us(submitted.Sub(t)))
		queueMS = append(queueMS, ms(st.StartedAt.Sub(st.EnqueuedAt)))
		runMS = append(runMS, ms(st.FinishedAt.Sub(st.StartedAt)))
		jobs++
	}
	base := "http://" + ln.Addr().String()
	for i, more := 0, rounds(env.budget/2, 4, anyNumber); more(); i++ {
		p := pool[i%len(pool)]
		wall, err := workerJob(client, base, p, statusPoll)
		if err != nil {
			return nil, err
		}
		httpMS = append(httpMS, ms(wall))
		jobs++
	}
	after := srv.Metrics()
	return map[string]float64{
		"server.submit_us":               median(submitUS),
		"server.queue_wait_ms":           median(queueMS),
		"server.run_ms":                  median(runMS),
		"server.inproc_job_ms":           median(inprocMS),
		"server.http_job_ms":             median(httpMS),
		"server.journal_appends_per_job": float64(after.JournalAppends-before.JournalAppends) / float64(jobs),
		"server.journal_fsyncs_per_job":  float64(after.JournalFsyncs-before.JournalFsyncs) / float64(jobs),
		"server.shed":                    float64(after.Shed - before.Shed),
	}, nil
}
