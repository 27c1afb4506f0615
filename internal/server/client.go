package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"time"

	"atomemu/internal/obs"
)

// Client is the caller side of the job API, as Reply is its answering
// side: the one place that builds the requests atomemud serves and reads
// its replies. atomemu-router dispatches, reconciles, fetches checkpoints,
// watches feeds and probes through it; the soak experiment and crashsoak
// submit and poll through it. Every method takes the daemon's base URL
// ("http://host:port") and a context; HTTP's own Timeout, if any, bounds
// each request as well.
type Client struct {
	HTTP *http.Client
}

// Accepted is the 202 body of a submission: {id, state} from POST /jobs,
// plus resumed from POST /jobs/{id}/resume (whether the shipped snapshot
// was adopted). State may already be terminal: an idempotent re-submit
// names a job that has moved past queued.
type Accepted struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Resumed bool     `json:"resumed"`
}

// Refused is a submission answered with anything but 202: the status, the
// body's error text (the raw body when it has none) and the Retry-After
// hint in seconds (0 when absent).
type Refused struct {
	Code       int
	Msg        string
	RetryAfter int
}

func (e *Refused) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Msg) }

// Submit posts a JobRequest, already in wire form, to POST /jobs.
func (c Client) Submit(ctx context.Context, base string, wire []byte) (Accepted, error) {
	return c.submit(ctx, base+"/jobs", wire)
}

// Resume posts rr to POST /jobs/{alias}/resume. alias names the job on the
// caller's side; it backs the worker's idempotency key when the request
// carries none, so a re-shipped resume cannot run twice.
func (c Client) Resume(ctx context.Context, base, alias string, rr ResumeRequest) (Accepted, error) {
	body, err := json.Marshal(rr)
	if err != nil {
		return Accepted{}, fmt.Errorf("encoding resume: %w", err)
	}
	return c.submit(ctx, base+"/jobs/"+alias+"/resume", body)
}

func (c Client) submit(ctx context.Context, target string, body []byte) (Accepted, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return Accepted{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return Accepted{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &eb)
		if eb.Error == "" {
			eb.Error = string(data)
		}
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return Accepted{}, &Refused{Code: resp.StatusCode, Msg: eb.Error, RetryAfter: retry}
	}
	var ack Accepted
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
		return Accepted{}, fmt.Errorf("bad accept body %q", data)
	}
	return ack, nil
}

func (c Client) get(ctx context.Context, target string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	return c.HTTP.Do(req)
}

// Status reads GET /jobs/{id}. found is false on a 404, and on a 200 about
// a job admitted under another key than key: a worker job id is only unique
// within one in-memory process, so after a restart the id a caller
// remembers may name somebody else's job (see KeyHeader). Any other status
// is an error; it implicates the daemon, not the job.
func (c Client) Status(ctx context.Context, base, id, key string) (st JobStatus, found bool, err error) {
	resp, err := c.get(ctx, base+"/jobs/"+id)
	if err != nil {
		return st, false, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	switch {
	case resp.StatusCode == http.StatusNotFound,
		resp.StatusCode == http.StatusOK && resp.Header.Get(KeyHeader) != key:
		return st, false, nil
	case resp.StatusCode != http.StatusOK:
		return st, false, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, false, fmt.Errorf("bad status body: %w", err)
	}
	return st, true, nil
}

// Checkpoint reads GET /jobs/{id}/checkpoint: the running job's latest ACKP
// image and its virtual time. A nil image means there is nothing to ship —
// the job is unknown, not running or not yet checkpointed, or it is another
// key's job — and is no error.
func (c Client) Checkpoint(ctx context.Context, base, id, key string) (image []byte, virtualTime uint64, err error) {
	resp, err := c.get(ctx, base+"/jobs/"+id+"/checkpoint")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(KeyHeader) != key {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, nil
	}
	image, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, 0, err
	}
	virtualTime, _ = strconv.ParseUint(resp.Header.Get(virtualTimeHeader), 10, 64)
	return image, virtualTime, nil
}

// Completions performs one long-poll of GET /completions: the jobs that
// turned terminal after cursor after of epoch, waiting up to wait for the
// first one (see completions.go).
func (c Client) Completions(ctx context.Context, base, epoch string, after uint64, wait time.Duration) (*CompletionsResponse, error) {
	resp, err := c.get(ctx, fmt.Sprintf("%s/completions?epoch=%s&after=%d&wait=%s",
		base, neturl.QueryEscape(epoch), after, strconv.FormatFloat(wait.Seconds(), 'f', -1, 64)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("completions: %s: %s", resp.Status, body)
	}
	var out CompletionsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("bad completions body: %w", err)
	}
	if out.Epoch == "" {
		return nil, fmt.Errorf("bad completions body: no epoch")
	}
	return &out, nil
}

// Ready reads GET /readyz. Any answer but 200 is an error: a draining or
// recovering daemon must leave a rotation just like a dead one. On 200 it
// returns the reported queue length and depth, best-effort.
func (c Client) Ready(ctx context.Context, base string) (queued, depth int, err error) {
	resp, err := c.get(ctx, base+"/readyz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("readyz: %s: %s", resp.Status, body)
	}
	var rb struct {
		Queued     int `json:"queued"`
		QueueDepth int `json:"queue_depth"`
	}
	_ = json.Unmarshal(body, &rb) // gauges only; a parse failure is not a readiness failure
	return rb.Queued, rb.QueueDepth, nil
}

// Statz reads GET /statz: job counters, breaker states and the warmth hint.
func (c Client) Statz(ctx context.Context, base string) (Statz, error) {
	var sz Statz
	resp, err := c.get(ctx, base+"/statz")
	if err != nil {
		return sz, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sz, fmt.Errorf("statz: %s", resp.Status)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&sz)
	return sz, err
}

// Metrics reads GET /metrics as series → value.
func (c Client) Metrics(ctx context.Context, base string) (map[string]float64, error) {
	resp, err := c.get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, err
	}
	return exp.Values(), nil
}
