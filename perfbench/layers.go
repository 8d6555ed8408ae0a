package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"mrclone/internal/cluster"
	"mrclone/internal/gateway"
	"mrclone/internal/job"
	"mrclone/internal/metrics"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
	"mrclone/internal/service"
	"mrclone/internal/service/spec"
	"mrclone/internal/store"
)

// Per-layer probes of a traced run. Each times the benchmark's own calls into
// one module's public functions, after the measured window, on the inputs the
// window used.

// serviceLayers derives the service metrics from Service.Metrics deltas over
// the window (summed across shards) and the jobs' lifecycle timestamps.
func (r *runCtx) serviceLayers(rep *report, m0, m1 []service.Metrics, stats []times) {
	var d service.Metrics
	for i := range m0 {
		d.Submissions += m1[i].Submissions - m0[i].Submissions
		d.CacheHits += m1[i].CacheHits - m0[i].CacheHits
		d.DiskHits += m1[i].DiskHits - m0[i].DiskHits
		d.Assembled += m1[i].Assembled - m0[i].Assembled
		d.CellHits += m1[i].CellHits - m0[i].CellHits
		d.CellMisses += m1[i].CellMisses - m0[i].CellMisses
		d.Flights += m1[i].Flights - m0[i].Flights
	}
	var waits, runs []float64
	for _, t := range stats {
		if w, run, ok := t.split(); ok {
			waits = append(waits, ms(w))
			runs = append(runs, ms(run))
		}
	}
	subs := float64(max(d.Submissions, 1))
	rep.layers["service.queue_wait_ms"] = metric{mean(waits), "ms"}
	rep.layers["service.run_ms"] = metric{mean(runs), "ms"}
	rep.layers["service.memory_hit_ratio"] = metric{float64(d.CacheHits) / subs, "ratio"}
	rep.layers["service.disk_hit_ratio"] = metric{float64(d.DiskHits) / subs, "ratio"}
	rep.layers["service.assembled_ratio"] = metric{float64(d.Assembled) / subs, "ratio"}
	rep.layers["service.cell_hit_ratio"] = metric{
		float64(d.CellHits) / float64(max(d.CellHits+d.CellMisses, 1)), "ratio"}
	rep.layers["service.flights"] = metric{float64(d.Flights), "count"}
	rep.notes = append(rep.notes, fmt.Sprintf("service: %d submissions, %d of %d jobs ran",
		d.Submissions, len(runs), len(stats)))
}

// commonLayers runs the probes every workload shares: the request-path spec
// and tenant calls recorded as spans during the window, per-scheduler cell
// replays, the runner pool, assembly and encoding, and the store.
func (r *runCtx) commonLayers(rep *report, ref *reference, order []*distinct, prefix, poolSpecs int) error {
	for layer, name := range map[string]string{
		"spec.parse": "spec.parse_us", "spec.hash": "spec.hash_us", "tenant.admit": "tenant.admit_us",
	} {
		var v []float64
		for _, c := range r.tr.counted(layer) {
			v = append(v, us(c.d))
		}
		rep.layers[name] = metric{median(v), "us"}
	}
	// Per-cell hash cost: the hasher's construction plus every cell's hash,
	// divided by the cells hashed.
	var perCell []float64
	for _, c := range r.tr.counted("spec.cellhash") {
		perCell = append(perCell, us(c.d)/float64(c.n))
	}
	rep.layers["spec.cellhash_us"] = metric{median(perCell), "us"}

	if err := r.replayCells(rep, order[:min(prefix, len(order))]); err != nil {
		return err
	}
	if err := r.poolProbe(rep, order[:min(poolSpecs, len(order))]); err != nil {
		return err
	}
	sample := order[:min(24, len(order))]
	if err := r.assembleProbe(rep, ref, sample); err != nil {
		return err
	}
	return r.storeProbe(rep, sample)
}

// replayCap bounds the replayed cells per scheduler; LATE's cells are two
// orders of magnitude dearer than the event-driven ones.
func replayCap(name string) int {
	if name == "late" {
		return 2
	}
	return 6
}

// cellJob is one cell to replay with what it must reproduce.
type cellJob struct {
	sched    string
	specs    []job.Spec
	params   sched.Params
	point    runner.Point
	seed     int64
	maxSlots int64
	want     *runner.CellPayload // the artifact's cell; nil for a probe cell
}

// replayCells re-simulates cells of the workload's fixed prefix, one at a time
// on one goroutine, and compares each with the artifact's cell. A scheduler
// the workload never runs is measured on probe cells of the 300-job bench
// trace at the paper's load ratio instead.
func (r *runCtx) replayCells(rep *report, prefix []*distinct) error {
	jobsBy := map[string][]cellJob{}
	for _, d := range prefix {
		if d.err != nil {
			continue
		}
		sp, err := spec.Parse(d.body)
		if err != nil {
			return err
		}
		rs, err := sp.Runner()
		if err != nil {
			return err
		}
		cells, _, err := decodeCells(d.ref.json)
		if err != nil {
			return err
		}
		for _, c := range cells {
			ss := rs.Schedulers[c.Scheduler]
			if len(jobsBy[ss.Name]) >= replayCap(ss.Name) {
				continue
			}
			pt := rs.Points[c.Point]
			params := ss.Params
			if pt.Params != nil {
				params = *pt.Params
			}
			want := c.CellPayload
			jobsBy[ss.Name] = append(jobsBy[ss.Name], cellJob{
				sched: ss.Name, specs: rs.Specs, params: params, point: pt,
				seed: runner.CellSeed(rs.BaseSeed, rs.SeedStride, c.Run), maxSlots: rs.MaxSlots, want: &want,
			})
		}
	}
	probeRand := newRand(r.opts.seed, 50)
	var probeSpecs []job.Spec
	for _, s := range allScheds {
		if len(jobsBy[s]) > 0 {
			continue
		}
		if probeSpecs == nil {
			rs, err := spec.Spec{Version: spec.Version, Workload: benchWorkload(sweepJobs),
				Schedulers: schedulers([]string{s}), Points: points([]int{2 * sweepJobs})}.Runner()
			if err != nil {
				return err
			}
			probeSpecs = rs.Specs
		}
		jobsBy[s] = append(jobsBy[s], cellJob{
			sched: s, specs: probeSpecs, point: runner.Point{X: 2 * sweepJobs, Machines: 2 * sweepJobs},
			seed: probeRand.Int64N(1<<40) + 1,
		})
	}

	copies := map[string]int64{}
	for _, s := range allScheds {
		var elapsed time.Duration
		var allocs uint64
		var nCopies, tasks int64
		for _, cj := range jobsBy[s] {
			got, raw, d, alloc, err := replay(cj)
			if err != nil {
				rep.fail("replay of a %s cell failed: %v", s, err)
				continue
			}
			if cj.want != nil && !reflect.DeepEqual(got, *cj.want) {
				rep.fail("replayed %s cell (machines %d, seed %d) differs from the artifact's cell",
					s, cj.point.Machines, cj.seed)
			}
			elapsed += d
			allocs += alloc
			nCopies += raw.TotalCopies
			for _, j := range raw.Jobs {
				tasks += int64(j.Tasks)
			}
		}
		n := float64(len(jobsBy[s]))
		copies[s] = nCopies
		// Metric names allow no "+": srptms+c reports as srptms_c.
		suffix := strings.ReplaceAll(s, "+", "_")
		rep.layers["cluster.cell_ms."+suffix] = metric{ms(elapsed) / n, "ms"}
		rep.layers["cluster.ns_per_copy."+suffix] = metric{float64(elapsed.Nanoseconds()) / float64(max(nCopies, 1)), "ns"}
		rep.layers["cluster.alloc_kib_per_cell."+suffix] = metric{float64(allocs) / 1024 / n, "KiB"}
		rep.layers["cluster.copies."+suffix] = metric{float64(nCopies), "count"}
		rep.layers["cluster.useful_copy_ratio."+suffix] = metric{float64(tasks) / float64(max(nCopies, 1)), "ratio"}
	}
	if r.pins != nil && r.pins.Copies != nil {
		for s, want := range r.pins.Copies {
			if copies[s] != want {
				rep.fail("cluster.copies.%s is %d, pinned %d for the default seed", s, copies[s], want)
			}
		}
	}
	r.copies = copies
	return nil
}

// replay simulates one cell exactly as runner.Run does and returns its
// payload, the raw result, the time taken and the bytes allocated.
func replay(cj cellJob) (runner.CellPayload, *cluster.Result, time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	impl, err := sched.Build(cj.sched, cj.params)
	if err != nil {
		return runner.CellPayload{}, nil, 0, 0, err
	}
	eng, err := cluster.New(cluster.Config{
		Machines: cj.point.Machines, Speed: cj.point.Speed, MaxSlots: cj.maxSlots, Seed: cj.seed,
	}, impl, cj.specs)
	if err != nil {
		return runner.CellPayload{}, nil, 0, 0, err
	}
	raw, err := eng.Run()
	if err != nil {
		return runner.CellPayload{}, nil, 0, 0, err
	}
	summary, err := metrics.Summarize(raw)
	if err != nil {
		return runner.CellPayload{}, nil, 0, 0, err
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return runner.CellPayload{
		Seed: cj.seed, SchedulerName: raw.Scheduler, X: cj.point.X, Machines: raw.Machines,
		Speed: raw.Speed, Summary: summary, Slots: raw.Slots, TotalCopies: raw.TotalCopies,
		CloneCopies: raw.CloneCopies, MachineSlots: raw.MachineSlots,
		WastedCopyWrk: raw.WastedCopyWrk, FinishedJobs: raw.FinishedJobs,
	}, raw, d, m1.TotalAlloc - m0.TotalAlloc, nil
}

// poolProbe runs whole matrices on the runner's worker pool, uncached, at
// the services' cell parallelism: cells per second and Σ cell time ÷
// (wall × workers). A matrix with fewer cells than workers leaves workers
// idle, and that counts against the efficiency.
func (r *runCtx) poolProbe(rep *report, specs []*distinct) error {
	var cells int
	var busy, wallWorkers, wall time.Duration
	for _, d := range specs {
		sp, err := spec.Parse(d.body)
		if err != nil {
			return err
		}
		rs, err := sp.Runner()
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = runner.Run(context.Background(), rs, runner.Options{
			Parallelism: workers(),
			CellTime:    func(d time.Duration, _ bool) { busy += d },
		})
		el := time.Since(t0)
		if err != nil {
			return err
		}
		cells += rs.Total()
		wall += el
		wallWorkers += el * time.Duration(workers())
	}
	rep.layers["runner.cells_per_s"] = metric{float64(cells) / wall.Seconds(), "1/s"}
	rep.layers["runner.parallel_efficiency"] = metric{float64(busy) / float64(wallWorkers), "ratio"}
	return nil
}

// assembleProbe rebuilds each sampled matrix purely from cells with
// runner.Assemble, then renders it; the bytes must equal the artifacts.
func (r *runCtx) assembleProbe(rep *report, ref *reference, sample []*distinct) error {
	var asm, enc []float64
	for _, d := range sample {
		if d.err != nil {
			continue
		}
		sp, err := spec.Parse(d.body)
		if err != nil {
			return err
		}
		axes, err := sp.Axes()
		if err != nil {
			return err
		}
		h, err := sp.CellHasher()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, ok := runner.Assemble(axes, memo{ref: ref, h: h})
		asm = append(asm, ms(time.Since(t0)))
		if !ok {
			rep.fail("runner.Assemble missed cells of %s", describe(d.body))
			continue
		}
		t0 = time.Now()
		a, err := encode(res)
		enc = append(enc, ms(time.Since(t0)))
		if err != nil || !a.equal(d.ref) {
			rep.fail("assembled artifacts of %s differ from runner.Run's", describe(d.body))
		}
	}
	rep.layers["runner.assemble_ms"] = metric{median(asm), "ms"}
	rep.layers["runner.encode_ms"] = metric{median(enc), "ms"}
	return nil
}

// storeProbe writes and reads back the sampled matrices' cells and artifacts
// in a store of its own.
func (r *runCtx) storeProbe(rep *report, sample []*distinct) error {
	st, err := store.Open(filepath.Join(r.dir, "layer-store"))
	if err != nil {
		return err
	}
	defer st.Close()
	var putCell, getCell, putArt, getArt []float64
	for _, d := range sample {
		if d.err != nil {
			continue
		}
		sp, err := spec.Parse(d.body)
		if err != nil {
			return err
		}
		h, err := sp.CellHasher()
		if err != nil {
			return err
		}
		cells, _, err := decodeCells(d.ref.json)
		if err != nil {
			return err
		}
		for _, c := range cells {
			hash, err := h.Hash(c.Scheduler, c.Point, c.Run)
			if err != nil {
				return err
			}
			payload, err := json.Marshal(c.CellPayload)
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = st.PutCell(store.Cell{Hash: hash, Payload: payload, CreatedAt: time.Now()})
			putCell = append(putCell, us(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("store.PutCell: %w", err)
			}
			t0 = time.Now()
			got, err := st.GetCell(hash)
			getCell = append(getCell, us(time.Since(t0)))
			if err != nil || string(got.Payload) != string(payload) {
				rep.fail("store cell %s read back wrong (err %v)", hash[:12], err)
			}
		}
		t0 := time.Now()
		err = st.PutArtifacts(store.Artifacts{
			Hash: d.hash, JSON: d.ref.json, CSV: d.ref.csv, AggregateCSV: d.ref.agg,
			Cells: len(cells), CreatedAt: time.Now(),
		})
		putArt = append(putArt, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("store.PutArtifacts: %w", err)
		}
		t0 = time.Now()
		got, err := st.GetArtifacts(d.hash)
		getArt = append(getArt, ms(time.Since(t0)))
		if err != nil || !(artifacts{json: got.JSON, csv: got.CSV, agg: got.AggregateCSV}).equal(d.ref) {
			rep.fail("store artifacts %s read back wrong (err %v)", d.hash[:12], err)
		}
	}
	rep.layers["store.put_cell_us"] = metric{median(putCell), "us"}
	rep.layers["store.get_cell_us"] = metric{median(getCell), "us"}
	rep.layers["store.put_artifacts_ms"] = metric{median(putArt), "ms"}
	rep.layers["store.get_artifacts_ms"] = metric{median(getArt), "ms"}
	return nil
}

// httpProbeReps is how many times each sampled spec is fetched on each path.
const httpProbeReps = 5

// probeHTTP fetches warm specs in-process, directly from the owning shard
// over HTTP and through the gateway. http.shard_ms is the direct request's
// median minus the in-process one; gateway.hop_ms is the gateway request's
// median minus the direct one.
func probeHTTP(rep *report, inproc func(hash string) (inProcess, overHTTP), via overHTTP, sample []*distinct) error {
	var tIn, tDirect, tGW []float64
	for rep0 := 0; rep0 < httpProbeReps; rep0++ {
		for _, d := range sample {
			if d.err != nil {
				continue
			}
			p, direct := inproc(d.hash)
			t0 := time.Now()
			sp, err := spec.Parse(d.body)
			if err != nil {
				return err
			}
			got, err := p.do(nil, 0, -1, sp)
			tIn = append(tIn, ms(time.Since(t0)))
			if err != nil || !got.all.equal(d.ref) {
				rep.fail("in-process probe of %s returned wrong bytes (err %v)", d.hash[:12], err)
			}
			for _, path := range []struct {
				api overHTTP
				out *[]float64
			}{{direct, &tDirect}, {via, &tGW}} {
				t0 = time.Now()
				got, err := path.api.do(nil, 0, -1, d.body, "json")
				*path.out = append(*path.out, ms(time.Since(t0)))
				if err != nil || got.digest != sum(d.ref.json) {
					rep.fail("HTTP probe of %s via %s returned wrong bytes (err %v)", d.hash[:12], path.api.base, err)
				}
			}
		}
	}
	rep.layers["http.shard_ms"] = metric{median(tDirect) - median(tIn), "ms"}
	rep.layers["gateway.hop_ms"] = metric{median(tGW) - median(tDirect), "ms"}
	return nil
}

const httpProbeSpecs = 8

func (r *runCtx) httpProbe(rep *report, env *warmEnv, order []*distinct) error {
	return probeHTTP(rep, func(hash string) (inProcess, overHTTP) {
		svc, u := env.owner(hash)
		return inProcess{svc: svc, token: benchTokens[0]},
			overHTTP{client: env.client, base: u, token: benchTokens[0]}
	}, overHTTP{client: env.client, base: env.gwURL(), token: benchTokens[0]},
		order[:min(httpProbeSpecs, len(order))])
}

// coldHTTPProbe serves the in-process service over loopback HTTP behind a
// one-shard gateway for the duration of the probe.
func (r *runCtx) coldHTTPProbe(rep *report, svc *service.Service, order []*distinct) error {
	shard, err := serve(svc.Handler())
	if err != nil {
		return err
	}
	defer shard.stop()
	u, err := url.Parse(shard.url)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	gw, err := gateway.New(gateway.Config{
		Shards: []gateway.Shard{{Name: "s0", URL: u}}, ProbeInterval: -1, Client: client,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	front, err := serve(gw.Handler())
	if err != nil {
		return err
	}
	defer front.stop()
	return probeHTTP(rep, func(string) (inProcess, overHTTP) {
		return inProcess{svc: svc}, overHTTP{client: client, base: shard.url}
	}, overHTTP{client: client, base: front.url}, order[:min(httpProbeSpecs, len(order))])
}
