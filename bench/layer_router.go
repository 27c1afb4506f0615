package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
)

func init() {
	registerLayer(layerDriver{
		Pkg: "router", Home: "svc_open", Share: 0.10,
		Metrics: []layerMetric{
			{Name: "router.dispatch_wait_ms", Unit: "ms", Moves: "job_p50_ms@svc_open"},
			{Name: "router.finish_lag_ms", Unit: "ms", Moves: "job_p50_ms@svc_open, job_p95_ms@svc_open, jobs_per_s@svc_sat_repeat"},
			{Name: "router.hop_ms", Unit: "ms", Moves: "job_p50_ms@svc_open"},
			{Name: "router.bounces", Unit: "count", Moves: "jobs_per_s@svc_sat_repeat"},
			{Name: "router.sheds", Unit: "count", Moves: "fail_share@svc_sat_repeat"},
		},
		Run: runRouterLayer,
	})
}

// runRouterLayer sends the same jobs, one at a time, through the router and
// straight to a worker of the same fabric. The difference of the two
// latencies is the router hop; the router's and the worker's own timestamps
// split it into the wait for dispatch and the lag of the status poll.
func runRouterLayer(env *layerEnv) (map[string]float64, error) {
	f, err := startFabric(filepath.Join(env.tmp, "router-layer"))
	if err != nil {
		return nil, err
	}
	defer f.stop()
	pool := genPool(env.seed)
	var viaRouter, direct, dispatchWait, finishLag []float64
	for i, more := 0, rounds(env.budget, 3, anyNumber); more(); i++ {
		k := i % len(pool)
		jobs, _ := f.drive(jobPlan{outstanding: 1, count: 1, poll: pollFloor, next: func(int) (guestProg, []byte) { return pool[k], jobBody(pool[k]) }})
		j := jobs[0]
		if !j.sample.ok {
			return nil, fmt.Errorf("%s\n%s", j.sample.why, f.logs.tail(1500))
		}
		viaRouter = append(viaRouter, ms(j.sample.wall))
		dispatchWait = append(dispatchWait, ms(j.view.DispatchedAt.Sub(j.view.EnqueuedAt)))
		finishLag = append(finishLag, ms(j.view.FinishedAt.Sub(j.view.Status.FinishedAt)))

		wall, err := workerJob(f.client, f.workerURL[i%len(f.workerURL)], pool[k], pollFloor)
		if err != nil {
			return nil, fmt.Errorf("direct: %w", err)
		}
		direct = append(direct, ms(wall))
	}
	bounces, err := f.routerCounter("atomemu_router_dispatch_bounce_total")
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"router.dispatch_wait_ms": median(dispatchWait),
		"router.finish_lag_ms":    median(finishLag),
		"router.hop_ms":           median(viaRouter) - median(direct),
		"router.bounces":          bounces,
		"router.sheds":            float64(f.routerSheds()),
	}, nil
}

// routerCounter reads one unlabelled series from the router's Prometheus
// exposition — the only place it exports its dispatch counters.
func (f *fabric) routerCounter(name string) (float64, error) {
	var buf bytes.Buffer
	if err := f.router.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("router exposition has no series %s", name)
}
