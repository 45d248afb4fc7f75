package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// serveClients is the number of closed-loop clients: each sends its next
// upload only after the previous one's report came back.
const serveClients = 2

// serveWorkload drives serve.New with its default configuration through
// its HTTP handler on a loopback listener.
type serveWorkload struct {
	ups    []upload
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func newServeWorkload(seed int64) (*serveWorkload, error) {
	ups, err := serveUploads(seed)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	return &serveWorkload{ups: ups, srv: srv, hs: hs, client: hs.Client()}, nil
}

// pass sends every upload once, shared among the clients in order.
func (w *serveWorkload) pass(tr *tracer, t *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.ups) {
					return
				}
				u := &w.ups[i]
				out := w.check(u, tr)
				if out.err == nil {
					judgeUpload(u, &out)
				}
				t.record(out)
			}
		}()
	}
	wg.Wait()
}

// jobReply is the part of the job JSON the benchmark reads.
type jobReply struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	Degraded   bool   `json:"degraded"`
	Violations int    `json:"violations"`
	Error      string `json:"error"`
	Report     *struct {
		EventsAnalyzed int `json:"events_analyzed"`
	} `json:"report"`
}

// check submits one upload and long-polls its job to a terminal state.
// A 429 (shed) reply fails the check.
func (w *serveWorkload) check(u *upload, tr *tracer) outcome {
	out := outcome{traceBytes: u.bytes}
	check := tr.begin("check", 0, u.name)
	start := time.Now()
	id := tr.begin("serve.submit", check, "")
	var job jobReply
	code, err := w.do(http.MethodPost, "/jobs", u.body, &job)
	tr.finish(id)
	if err == nil && code != http.StatusAccepted {
		if code == http.StatusTooManyRequests {
			out.shed = 1
		}
		err = fmt.Errorf("POST /jobs: status %d", code)
	}
	if err != nil {
		out.err = fmt.Errorf("%s: %w", u.name, err)
		return out
	}
	id = tr.begin("serve.wait", check, "")
	code, err = w.do(http.MethodGet, "/jobs/"+job.ID+"?wait=1m", nil, &job)
	tr.finish(id)
	out.elapsed = time.Since(start)
	tr.finish(check)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /jobs/%s: status %d", job.ID, code)
	}
	if err != nil {
		out.err = fmt.Errorf("%s: %w", u.name, err)
		return out
	}
	out.status, out.degraded, out.violations = job.Status, job.Degraded, job.Violations
	if job.Status != string(serve.StatusDone) {
		out.err = fmt.Errorf("%s: job %s ended %s: %s", u.name, job.ID, job.Status, job.Error)
		return out
	}
	if job.Report == nil {
		out.err = fmt.Errorf("%s: job %s is done without a report", u.name, job.ID)
		return out
	}
	out.events = job.Report.EventsAnalyzed
	return out
}

// do sends one request and decodes the JSON reply into v.
func (w *serveWorkload) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, w.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// close drains the server and stops the listener.
func (w *serveWorkload) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Drain(ctx)
	w.hs.Close()
	return err
}
