package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mrclone/internal/tenant"
)

// coldWorkloads are the in-process workloads.
var coldWorkloads = map[string]coldWorkload{
	"event-sweep": {stream: newSweepStream, jobs: sweepJobs, minReqs: 8, rssReqs: 80, poolSpecs: 1},
	"speculation-baselines": {
		stream: newSpeculationStream, jobs: specJobs, minReqs: 8, rssReqs: 48, poolSpecs: specLateEvery,
	},
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*runCtx) (*report, error){
	"event-sweep":           coldWorkloads["event-sweep"].run,
	"speculation-baselines": coldWorkloads["speculation-baselines"].run,
	"warm-gateway-mix":      runWarm,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchTokens are the two tenants' API tokens; benchTenants builds a fresh
// registry over them (each tier keeps its own rate-limiter state).
var benchTokens = []string{"perfbench-alpha-0001", "perfbench-beta-0002"}

func benchTenants() (*tenant.Registry, error) {
	return tenant.NewRegistry([]tenant.Tenant{
		{Name: "alpha", Token: benchTokens[0], Weight: 1},
		{Name: "beta", Token: benchTokens[1], Weight: 2},
	})
}

// sample is one request of the measured window.
type sample struct {
	done time.Duration // completion, from the window's start
	lat  float64       // ms
	ok   bool          // correct: counted in throughput and latency
}

// windowStats is what a run measured besides its window.
type windowStats struct {
	setups  []float64     // seconds, one per set-up
	length  time.Duration // nominal window
	rss     float64       // peak_rss_mib
	rssReqs int           // requests it covers
	flow    float64
	slices  int
}

// sampleCPU records the process CPU time now and at each slice boundary of a
// window starting at t0; the returned function waits for the sampler.
func sampleCPU(t0 time.Time, length time.Duration, slices int) func() []time.Duration {
	marks := []time.Duration{cpuTime()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k < slices; k++ {
			time.Sleep(time.Until(t0.Add(length * time.Duration(k) / time.Duration(slices))))
			marks = append(marks, cpuTime())
		}
	}()
	return func() []time.Duration {
		<-done
		return marks
	}
}

// setE2E fills the end-to-end metrics. The window is cut into equal time
// slices by request completion (the last slice runs on to the last
// completion); each metric is computed per slice and the median over slices
// is reported, so a burst of interference from outside the process moves at
// most a minority of slices.
func setE2E(rep *report, win *window, tries int, samples []sample, w windowStats) {
	n := w.slices
	step := w.length / time.Duration(n)
	lats := make([][]float64, n)
	all := make([]int, n)
	for _, s := range samples {
		i := min(int(s.done/step), n-1)
		all[i]++
		if s.ok {
			lats[i] = append(lats[i], s.lat)
		}
	}
	var rps, p50, tail, pct, cpu []float64
	for i := 0; i < n; i++ {
		dur, cpuEnd := step, win.cpuEnd
		if i < n-1 {
			cpuEnd = win.marks[i+1]
		} else {
			dur = win.wall - step*time.Duration(n-1)
		}
		t, p, ok := tailPercentile(lats[i])
		if !ok {
			rep.fail("latency_tail_ms: slice %d has %d correct requests, need more than %d",
				i, len(lats[i]), minBeyondTail)
		}
		rps = append(rps, float64(len(lats[i]))/dur.Seconds())
		p50 = append(p50, median(lats[i]))
		tail = append(tail, t)
		pct = append(pct, p)
		cpu = append(cpu, ms(cpuEnd-win.marks[i])/float64(max(all[i], 1)))
	}
	rep.notes = append(rep.notes, fmt.Sprintf(
		"%d requests in %d slices; latency_tail_ms is the median of per-slice p%.1f (%d requests beyond it); "+
			"setup_s is the median of %d set-ups", len(samples), n, median(pct), minBeyondTail, len(w.setups)),
		fmt.Sprintf("peak_rss_mib is the median of %d slice peaks over the first %d requests; whole-window peak %.4g MiB",
			rssSlices, w.rssReqs, peakOf(win.rss)),
		fmt.Sprintf("per-slice requests_per_s %.4g, cpu_ms_per_request %.4g", rps, cpu),
		fmt.Sprintf("host steal %.1f%% of CPU time in the kept window (%d window(s) measured)",
			100*win.steal, tries))
	rep.e2e["setup_s"] = metric{median(w.setups), "s"}
	rep.e2e["requests_per_s"] = metric{median(rps), "1/s"}
	rep.e2e["latency_p50_ms"] = metric{median(p50), "ms"}
	rep.e2e["latency_tail_ms"] = metric{median(tail), "ms"}
	rep.e2e["cpu_ms_per_request"] = metric{median(cpu), "ms"}
	rep.e2e["peak_rss_mib"] = metric{w.rss, "MiB"}
	rep.e2e["sim_weighted_flowtime_s"] = metric{w.flow, "s"}
}

// meanWeightedFlowtime averages the simulated weighted flowtime of every cell
// of the given specs' expected artifacts. It is a function of the specs
// alone, so a change that touches only the host leaves it identical.
func meanWeightedFlowtime(specs []*distinct) (float64, error) {
	var total float64
	var n int
	for _, d := range specs {
		if d.err != nil {
			return 0, d.err
		}
		cells, _, err := decodeCells(d.ref.json)
		if err != nil {
			return 0, err
		}
		for _, c := range cells {
			total += c.Summary.WeightedFlowtime
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("no cells")
	}
	return total / float64(n), nil
}

// peakOf is the highest resident set size sampled.
func peakOf(samples []rssSample) float64 {
	var p float64
	for _, s := range samples {
		p = max(p, s.mib)
	}
	return p
}
