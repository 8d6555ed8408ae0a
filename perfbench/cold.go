package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
	"mrclone/internal/trace"
)

// coldSetupReps is how many times a cold run sets up; setup_s is the median.
const coldSetupReps = 401

// coldWorkload describes one in-process cold workload.
type coldWorkload struct {
	stream  func(seed int64) func() request
	jobs    int // trace size the stream's specs name
	minReqs int // requests always completed: the fixed prefix sim_weighted_flowtime_s averages
	// rssReqs is how many leading requests peak_rss_mib covers; they are
	// always completed too.
	rssReqs int
	// poolSpecs is how many leading specs the traced run's runner-pool
	// probe recomputes.
	poolSpecs int
}

// outcome is one request as the client saw it.
type outcome struct {
	req  request
	lat  time.Duration
	done time.Duration // completion, from the window's start
	err  error
	got  served
}

// generateTrace expands the workload's trace, as the service does for every
// spec it has to simulate.
func generateTrace(jobs int) (time.Duration, error) {
	t0 := time.Now()
	_, err := trace.Generate(traceParams(jobs))
	return time.Since(t0), err
}

// openShard opens a durable service on a fresh data directory.
func openShard(dir string, cfg service.Config) (*service.Service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg.Store = st
	cfg.GCInterval = -1 // no background sweeps inside a measurement
	return service.New(cfg), nil
}

func (w coldWorkload) run(r *runCtx) (*report, error) {
	seed := r.opts.seed
	cfg := service.Config{Workers: 1, CellParallelism: workers(), QueueDepth: 4}

	// Set-up: expand the trace and open a durable service on a fresh data
	// directory, several times; the last one is measured.
	var setups, gens []float64
	setup := func() (*service.Service, error) {
		t0 := time.Now()
		gen, err := generateTrace(w.jobs)
		if err != nil {
			return nil, err
		}
		svc, err := openShard(filepath.Join(r.dir, fmt.Sprintf("data%d", len(setups))), cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(gen))
		return svc, nil
	}
	var svc *service.Service
	for i := 0; i < coldSetupReps; i++ {
		if svc != nil {
			if err := closeService(svc); err != nil {
				return nil, err
			}
		}
		var err error
		if svc, err = setup(); err != nil {
			return nil, err
		}
	}
	nSetups := len(setups)

	reg, err := benchTenants()
	if err != nil {
		return nil, err
	}
	measure := func(svc *service.Service) (*window, error) {
		win := &window{m0: []service.Metrics{svc.Metrics()}}
		if r.opts.traced {
			win.tr = newTracer()
		}
		tr, client, next := win.tr, inProcess{svc: svc}, w.stream(seed)
		clk := startClock(r.windowLength(), 1)
		deadline := clk.t0.Add(r.windowLength())
		for time.Now().Before(deadline) || len(win.outs) < max(w.minReqs, w.rssReqs) {
			q := next()
			rid, root := tr.request("request")
			start := time.Now()
			var got served
			var err error
			if tr != nil {
				err = layerCalls(tr, rid, root, q.body, reg, benchTokens[0])
			}
			if err == nil {
				id := tr.begin(rid, root, "spec.parse")
				var sp spec.Spec
				sp, err = spec.Parse(q.body)
				tr.end(id)
				if err == nil {
					got, err = client.do(tr, rid, root, sp)
				}
			}
			lat := time.Since(start)
			tr.end(root)
			win.outs = append(win.outs, outcome{req: q, lat: lat, done: time.Since(clk.t0), err: err, got: got})
		}
		clk.finish(win)
		win.m1 = []service.Metrics{svc.Metrics()}
		return win, nil
	}
	win, svc, tries, err := steadyWindow(svc, measure, setup, closeService)
	if err != nil {
		return nil, err
	}
	defer closeService(svc)
	r.tr = win.tr
	outs := win.outs
	client := inProcess{svc: svc}
	if win.err != nil {
		return nil, win.err
	}

	rep := &report{attempted: len(outs), e2e: map[string]metric{}}
	ref := newReference()
	reqs := make([]request, len(outs))
	for i, o := range outs {
		reqs[i] = o.req
	}
	byHash, order, err := distinctSpecs(ref, reqs)
	if err != nil {
		return nil, err
	}
	bad, pinned := checkPins(r.pins, order)
	if pinned > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d delivered specs checked against pinned digests, %d differ",
			pinned, len(bad)))
	}
	// A warm resubmit of every delivered spec must return the cold bytes.
	for _, d := range order {
		if d.err != nil {
			continue
		}
		sp, err := spec.Parse(d.body)
		if err != nil {
			return nil, err
		}
		got, err := client.do(nil, 0, -1, sp)
		if err != nil || !got.all.equal(d.ref) {
			bad[d.hash] = true
			rep.notes = append(rep.notes, fmt.Sprintf("warm resubmit of %s differs from the cold bytes (err %v)",
				describe(d.body), err))
		}
	}
	samples := tally(rep, outs, byHash, bad)
	flow, err := meanWeightedFlowtime(order[:min(w.minReqs, len(order))])
	if err != nil {
		rep.fail("sim_weighted_flowtime_s: %v", err)
	}
	setE2E(rep, win, tries, samples, windowStats{
		setups: setups[:nSetups], length: r.windowLength(), rss: win.peakRSS(w.rssReqs), rssReqs: w.rssReqs,
		flow: flow, slices: 1,
	})

	if r.tr != nil {
		var stats []times
		for _, o := range outs {
			stats = append(stats, o.got.times)
		}
		rep.layers = map[string]metric{}
		rep.layers["trace.generate_ms"] = metric{median(gens), "ms"}
		r.serviceLayers(rep, win.m0, win.m1, stats)
		if err := r.commonLayers(rep, ref, order, w.minReqs, w.poolSpecs); err != nil {
			return nil, err
		}
		if err := r.coldHTTPProbe(rep, svc, order); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func workers() int { return min(2, runtime.GOMAXPROCS(0)) }

func closeService(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return svc.Close(ctx)
}

func mustHash(body []byte) string {
	h, err := spec.HashSubmission(body)
	if err != nil {
		return ""
	}
	return h
}

func pinKey(q request) string { return fmt.Sprintf("%d/%d", q.client, q.index) }
