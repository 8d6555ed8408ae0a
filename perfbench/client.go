package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/tenant"
)

// times are a job's lifecycle timestamps as the service reports them.
type times struct {
	submitted, started, finished string
}

// queueWait and run split a job's life at its start; ok is false for jobs
// that never ran (cache hits) or whose timestamps do not parse.
func (t times) split() (queueWait, run time.Duration, ok bool) {
	if t.started == "" {
		return 0, 0, false
	}
	sub, e1 := time.Parse(time.RFC3339Nano, t.submitted)
	st, e2 := time.Parse(time.RFC3339Nano, t.started)
	fin, e3 := time.Parse(time.RFC3339Nano, t.finished)
	if e1 != nil || e2 != nil || e3 != nil {
		return 0, 0, false
	}
	return st.Sub(sub), fin.Sub(st), true
}

func statusTimes(st service.JobStatus) times {
	return times{st.SubmittedAt, st.StartedAt, st.FinishedAt}
}

// served is what one request got back.
type served struct {
	hash   string
	digest [32]byte   // SHA-256 of the requested format, over HTTP
	all    *artifacts // all three renderings, in-process
	times  times
}

// inProcess drives a Service through its Go API, as the cold workloads do.
type inProcess struct {
	svc   *service.Service
	token string
}

// do submits a parsed spec, waits for the terminal state and fetches the
// result. Spans cover each call when traced.
func (p inProcess) do(tr *tracer, req uint64, parent int, sp spec.Spec) (served, error) {
	id := tr.begin(req, parent, "service.submit")
	st, err := p.svc.SubmitToken(p.token, sp)
	tr.end(id)
	if err != nil {
		return served{}, err
	}
	if !st.State.Terminal() {
		id = tr.begin(req, parent, "service.wait")
		err = p.wait(st.ID)
		tr.end(id)
		if err != nil {
			return served{}, err
		}
	}
	id = tr.begin(req, parent, "service.result")
	res, err := p.svc.Result(st.ID)
	tr.end(id)
	if err != nil {
		return served{}, err
	}
	a := fromCached(res)
	out := served{hash: st.Hash, all: &a}
	if tr != nil {
		if fin, err := p.svc.Get(st.ID); err == nil {
			out.times = statusTimes(fin)
		}
	}
	return out, nil
}

func (p inProcess) wait(id string) error {
	sub, err := p.svc.Subscribe(id)
	if err != nil {
		return err
	}
	for {
		e, ok := sub.Next(context.Background())
		if !ok {
			return errors.New("event stream closed before a terminal event")
		}
		if e.Terminal() {
			if e.Type != service.EventDone {
				return fmt.Errorf("job %s ended %s: %s", id, e.Type, e.Error)
			}
			return nil
		}
	}
}

// overHTTP drives the service's HTTP API, directly on a shard or through the
// gateway.
type overHTTP struct {
	client *http.Client
	base   string
	token  string
}

func (h overHTTP) send(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	return h.client.Do(req)
}

// do POSTs the spec, follows the event stream until the job is terminal and
// GETs the result in the requested format.
func (h overHTTP) do(tr *tracer, req uint64, parent int, body []byte, format string) (served, error) {
	id := tr.begin(req, parent, "http.submit")
	resp, err := h.send(http.MethodPost, "/v1/matrices", body)
	if err != nil {
		tr.end(id)
		return served{}, err
	}
	var st service.JobStatus
	err = decodeStatus(resp, &st)
	tr.end(id)
	if err != nil {
		return served{}, err
	}
	out := served{hash: st.Hash, times: statusTimes(st)}
	if !st.State.Terminal() {
		id = tr.begin(req, parent, "http.wait")
		out.times, err = h.wait(st.ID)
		tr.end(id)
		if err != nil {
			return served{}, err
		}
	} else if st.State != service.StateDone {
		return served{}, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	id = tr.begin(req, parent, "http.result")
	resp, err = h.send(http.MethodGet, "/v1/matrices/"+st.ID+"/result?format="+format, nil)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		out.digest = sum(data)
	}
	tr.end(id)
	return out, err
}

func decodeStatus(resp *http.Response, st *service.JobStatus) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, st)
}

// wait reads the job's server-sent events until the terminal frame, which
// carries the job's timestamps.
func (h overHTTP) wait(id string) (times, error) {
	resp, err := h.send(http.MethodGet, "/v1/matrices/"+id+"/events", nil)
	if err != nil {
		return times{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return times{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e service.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return times{}, err
		}
		if !e.Terminal() {
			continue
		}
		if e.Type != service.EventDone {
			return times{}, fmt.Errorf("job %s ended %s: %s", id, e.Type, e.Error)
		}
		return times{e.SubmittedAt, e.StartedAt, e.FinishedAt}, nil
	}
	if err := sc.Err(); err != nil {
		return times{}, err
	}
	return times{}, errors.New("event stream ended before a terminal event")
}

// layerCalls makes the benchmark's own calls into the request-path layers
// the program runs internally for a submission — strict parse, submission
// hash, per-cell hashes, tenant admission — each under its own span. Traced
// runs only.
func layerCalls(tr *tracer, req uint64, parent int, body []byte, reg *tenant.Registry, token string) error {
	id := tr.begin(req, parent, "spec.parse")
	sp, err := spec.Parse(body)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(req, parent, "spec.hash")
	_, err = spec.HashSubmission(body)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(req, parent, "spec.cellhash")
	h, err := sp.CellHasher()
	if err == nil {
		err = hashAllCells(h, sp)
	}
	tr.endN(id, cellCount(sp))
	if err != nil {
		return err
	}
	id = tr.begin(req, parent, "tenant.admit")
	_, err = reg.Admit(token, time.Now())
	tr.end(id)
	return err
}

func hashAllCells(h *spec.CellHasher, sp spec.Spec) error {
	for si := range sp.Schedulers {
		for pi := range sp.Points {
			for run := 0; run < sp.Runs; run++ {
				if _, err := h.Hash(si, pi, run); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func cellCount(sp spec.Spec) int { return len(sp.Schedulers) * len(sp.Points) * sp.Runs }
