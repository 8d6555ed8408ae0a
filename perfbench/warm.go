package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mrclone/internal/gateway"
	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/tenant"
)

const (
	warmSetupReps = 3
	warmShards    = 2
	// warmCacheBytes bounds each shard's in-memory artifact cache to a
	// fraction of the corpus, so resubmits are served by both the memory
	// tier and the disk tier.
	warmCacheBytes = 128 << 10
	// warmMinReqs is how many requests each client always completes.
	warmMinReqs = 32
	// warmRSSReqs is how many leading requests peak_rss_mib covers; the
	// clients together always complete them.
	warmRSSReqs = 8000
	// warmSlices cuts the window into slices long enough for a p99.5 tail
	// each; the end-to-end metrics are medians over slices.
	warmSlices = 10
	// warmPoolSpecs is how many corpus matrices the traced run's
	// runner-pool probe recomputes.
	warmPoolSpecs = 4
)

// server is one loopback HTTP listener run by the benchmark.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// warmEnv is a gateway in front of durable shards, all in this process.
type warmEnv struct {
	shards   []*service.Service
	servers  []*server // one per shard, then the gateway's
	gw       *gateway.Gateway
	client   *http.Client  // the benchmark's clients
	upstream *http.Client  // the gateway's connections to the shards
	corpus   [][]artifacts // per shard, per corpus matrix
}

func (e *warmEnv) gwURL() string { return e.servers[len(e.servers)-1].url }

func (e *warmEnv) close() error {
	var errs []error
	for i := len(e.servers) - 1; i >= 0; i-- {
		errs = append(errs, e.servers[i].stop())
		if i == len(e.servers)-1 && e.gw != nil {
			e.gw.Close()
		}
	}
	for _, s := range e.shards {
		errs = append(errs, closeService(s))
	}
	e.client.CloseIdleConnections()
	e.upstream.CloseIdleConnections()
	return errors.Join(errs...)
}

// openWarm starts the shards and the gateway on fresh data directories and
// computes the corpus on every shard, so each shard's cell tier holds every
// cell a recombination can name.
func openWarm(dir string, corpus []request) (*warmEnv, error) {
	e := &warmEnv{
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		upstream: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	var shards []gateway.Shard
	for i := 0; i < warmShards; i++ {
		reg, err := benchTenants()
		if err != nil {
			return nil, err
		}
		svc, err := openShard(filepath.Join(dir, fmt.Sprintf("shard%d", i)), service.Config{
			Workers: 1, CellParallelism: 1, QueueDepth: 16, CacheBytes: warmCacheBytes,
			Tenants: reg, QueuePolicy: tenant.PolicyFair,
		})
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.shards = append(e.shards, svc)
		srv, err := serve(svc.Handler())
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.servers = append(e.servers, srv)
		u, err := url.Parse(srv.url)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		shards = append(shards, gateway.Shard{Name: fmt.Sprintf("s%d", i), URL: u})
	}
	reg, err := benchTenants()
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	// No background probes: nothing reshards, and probe traffic would only
	// add noise to the measured window.
	e.gw, err = gateway.New(gateway.Config{Shards: shards, Tenants: reg, ProbeInterval: -1, Client: e.upstream})
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	srv, err := serve(e.gw.Handler())
	if err != nil {
		e.gw.Close()
		return nil, errors.Join(err, e.close())
	}
	e.servers = append(e.servers, srv)

	e.corpus = make([][]artifacts, warmShards)
	errs := make([]error, warmShards)
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := inProcess{svc: e.shards[i], token: benchTokens[0]}
			for _, q := range corpus {
				sp, err := spec.Parse(q.body)
				var got served
				if err == nil {
					got, err = p.do(nil, 0, -1, sp)
				}
				if err != nil {
					errs[i] = fmt.Errorf("corpus on shard %d: %w", i, err)
					return
				}
				e.corpus[i] = append(e.corpus[i], *got.all)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// owner returns the in-process service the gateway routes a spec hash to.
func (e *warmEnv) owner(hash string) (*service.Service, string) {
	name := e.gw.Ring().Lookup(hash)
	for i := range e.shards {
		if fmt.Sprintf("s%d", i) == name {
			return e.shards[i], e.servers[i].url
		}
	}
	return nil, ""
}

func (e *warmEnv) metrics() []service.Metrics {
	out := make([]service.Metrics, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.Metrics()
	}
	return out
}

func runWarm(r *runCtx) (*report, error) {
	seed := r.opts.seed
	corpus, _ := warmCorpus(seed)
	for i := range corpus {
		corpus[i].client = -1
	}

	var setups, gens []float64
	setup := func() (*warmEnv, error) {
		t0 := time.Now()
		gen, err := generateTrace(warmJobs)
		if err != nil {
			return nil, err
		}
		env, err := openWarm(filepath.Join(r.dir, fmt.Sprintf("setup%d", len(setups))), corpus)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(gen))
		return env, nil
	}
	var env *warmEnv
	for i := 0; i < warmSetupReps; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if env, err = setup(); err != nil {
			return nil, err
		}
	}
	nSetups := len(setups)

	reg, err := benchTenants()
	if err != nil {
		return nil, err
	}
	measure := func(env *warmEnv) (*window, error) {
		win := &window{m0: env.metrics()}
		if r.opts.traced {
			win.tr = newTracer()
		}
		tr := win.tr
		outs := make([][]outcome, len(benchTokens))
		clk := startClock(r.windowLength(), warmSlices)
		deadline := clk.t0.Add(r.windowLength())
		var completed atomic.Int64
		var wg sync.WaitGroup
		for c := range benchTokens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				next := newWarmStream(seed, c)
				api := overHTTP{client: env.client, base: env.gwURL(), token: benchTokens[c]}
				for time.Now().Before(deadline) || len(outs[c]) < warmMinReqs ||
					completed.Load() < warmRSSReqs {
					q := next()
					rid, root := tr.request("request")
					start := time.Now()
					var got served
					var err error
					if tr != nil {
						err = layerCalls(tr, rid, root, q.body, reg, benchTokens[c])
					}
					if err == nil {
						got, err = api.do(tr, rid, root, q.body, q.format)
					}
					lat := time.Since(start)
					tr.end(root)
					outs[c] = append(outs[c], outcome{req: q, lat: lat, done: time.Since(clk.t0), err: err, got: got})
					completed.Add(1)
				}
			}()
		}
		wg.Wait()
		clk.finish(win)
		win.m1 = env.metrics()
		for _, co := range outs {
			win.outs = append(win.outs, co...)
		}
		return win, nil
	}
	win, env, tries, err := steadyWindow(env, measure, setup, (*warmEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r.tr = win.tr
	if win.err != nil {
		return nil, win.err
	}

	all := append([]request(nil), corpus...)
	flat := win.outs
	for _, o := range flat {
		all = append(all, o.req)
	}
	rep := &report{attempted: len(flat), e2e: map[string]metric{}}
	ref := newReference()
	byHash, order, err := distinctSpecs(ref, all)
	if err != nil {
		return nil, err
	}
	bad, pinned := checkPins(r.pins, order)
	if pinned > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d delivered specs checked against pinned digests, %d differ",
			pinned, len(bad)))
	}

	// The corpus each shard computed during set-up must match too.
	for i, arts := range env.corpus {
		for k, a := range arts {
			d := byHash[mustHash(corpus[k].body)]
			if d.err != nil || !a.equal(d.ref) || bad[d.hash] {
				rep.fail("corpus matrix %d on shard %d differs from runner.Run at parallelism 1", k, i)
			}
		}
	}
	// Gateway bytes must equal the owner's in-process bytes, and both the
	// reference; a spec delivered warm must return what it returned cold.
	for _, d := range order {
		svc, _ := env.owner(d.hash)
		sp, err := spec.Parse(d.body)
		if err != nil || svc == nil {
			bad[d.hash] = true
			continue
		}
		got, err := inProcess{svc: svc, token: benchTokens[0]}.do(nil, 0, -1, sp)
		if err != nil || d.err != nil || !got.all.equal(d.ref) {
			bad[d.hash] = true
		}
	}
	samples := tally(rep, flat, byHash, bad)
	kinds := map[string]int{}
	perClient := make([]int, len(benchTokens))
	for _, o := range flat {
		kinds[o.req.kind]++
		perClient[o.req.client]++
	}
	rep.notes = append(rep.notes, fmt.Sprintf("requests per client %v", perClient))
	rep.notes = append(rep.notes, fmt.Sprintf("request mix: %v; %d distinct specs incl. %d corpus",
		kinds, len(order), len(corpus)))
	// The corpus holds every cell the window's requests deliver, apart from
	// the partial misses' new ones.
	flow, err := meanWeightedFlowtime(order[:len(corpus)])
	if err != nil {
		rep.fail("sim_weighted_flowtime_s: %v", err)
	}
	setE2E(rep, win, tries, samples, windowStats{
		setups: setups[:nSetups], length: r.windowLength(), rss: win.peakRSS(warmRSSReqs), rssReqs: warmRSSReqs, flow: flow,
		slices: warmSlices,
	})

	if r.tr != nil {
		var stats []times
		for _, o := range flat {
			stats = append(stats, o.got.times)
		}
		rep.layers = map[string]metric{"trace.generate_ms": {median(gens), "ms"}}
		r.serviceLayers(rep, win.m0, win.m1, stats)
		if err := r.commonLayers(rep, ref, order, len(corpus), warmPoolSpecs); err != nil {
			return nil, err
		}
		if err := r.httpProbe(rep, env, order); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
