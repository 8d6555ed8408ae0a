package main

import (
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"mrclone/internal/service"
)

// maxSteal is the share of the machine's CPU time the hypervisor may take
// during a window before the window is measured again. On a shared virtual
// machine, bursts of steal last tens of seconds and slow every timing in
// the window by as much; they say nothing about the program.
const maxSteal = 0.10

// window is one measured window.
type window struct {
	outs   []outcome
	marks  []time.Duration // process CPU time at the start and each slice boundary
	cpuEnd time.Duration
	wall   time.Duration
	steal  float64     // share of all processors' time the host took
	rss    []rssSample // resident set size over the window
	err    error       // a failed RSS sample
	m0, m1 []service.Metrics
	tr     *tracer
}

// rssEvery is how often a window samples the resident set size.
const rssEvery = 20 * time.Millisecond

// rssSample is one resident set size reading.
type rssSample struct {
	at  time.Duration // from the window's start
	mib float64
}

// clock starts a window: it samples process CPU time at slice boundaries,
// the resident set size and the host's steal; finish closes the window.
type clock struct {
	t0       time.Time
	steal0   time.Duration
	cpuMarks func() []time.Duration
	stopRSS  chan struct{}
	rss      chan rssTrace
}

type rssTrace struct {
	samples []rssSample
	err     error
}

// startClock first collects the garbage set-up left behind and returns it
// to the OS, so every window starts from the same footing.
func startClock(length time.Duration, slices int) clock {
	runtime.GC()
	debug.FreeOSMemory()
	c := clock{stopRSS: make(chan struct{}), rss: make(chan rssTrace, 1), t0: time.Now()}
	go func() {
		var tr rssTrace
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mib, err := rssMiB()
			tr.samples = append(tr.samples, rssSample{at: time.Since(c.t0), mib: mib})
			if err != nil {
				tr.err = err
			}
			select {
			case <-c.stopRSS:
				c.rss <- tr
				return
			case <-tick.C:
			}
		}
	}()
	c.steal0 = stealTime()
	c.cpuMarks = sampleCPU(c.t0, length, slices)
	return c
}

func (c clock) finish(w *window) {
	w.wall = time.Since(c.t0)
	w.cpuEnd = cpuTime()
	w.marks = c.cpuMarks()
	stolen := stealTime() - c.steal0
	w.steal = stolen.Seconds() / (w.wall.Seconds() * float64(runtime.NumCPU()))
	close(c.stopRSS)
	tr := <-c.rss
	w.rss, w.err = tr.samples, tr.err
}

// rssSlices is how many slices peakRSS cuts a window's leading requests into.
const rssSlices = 10

// peakRSS is the window's peak_rss_mib. Its first reqs requests, in order of
// completion, are cut into rssSlices groups of equal count; each group's value
// is the highest resident set size sampled while it completed, and the median
// over the groups is returned. Counting requests, not seconds, keeps the
// value independent of throughput where memory grows with the requests
// served, and the median drops the odd slice in which the collector fell
// behind an allocation burst.
func (w *window) peakRSS(reqs int) float64 {
	done := make([]time.Duration, len(w.outs))
	for i, o := range w.outs {
		done[i] = o.done
	}
	return slicedPeak(w.rss, done, reqs)
}

func slicedPeak(samples []rssSample, done []time.Duration, reqs int) float64 {
	done = append([]time.Duration(nil), done...)
	slices.Sort(done)
	reqs = min(reqs, len(done))
	var peaks []float64
	var from time.Duration
	for k := 1; k <= rssSlices && reqs > 0; k++ {
		to := done[k*reqs/rssSlices-1]
		peak := 0.0
		for _, s := range samples {
			if s.at >= from && s.at <= to {
				peak = max(peak, s.mib)
			}
		}
		if peak == 0 {
			// No sample fell inside the slice: take the first one after it.
			for _, s := range samples {
				if s.at > to {
					peak = s.mib
					break
				}
			}
		}
		peaks = append(peaks, peak)
		from = to
	}
	return median(peaks)
}

// Before each window, the benchmark waits for a calm second: one in which
// the host took at most maxSteal of the CPU time. It waits at most
// maxCalmWait, then measures anyway.
const (
	calmSample  = time.Second
	maxCalmWait = 5 * time.Second
	// maxWindows bounds how many windows one run measures.
	maxWindows = 2
)

func awaitCalm() {
	deadline := time.Now().Add(maxCalmWait)
	for {
		s0, t0 := stealTime(), time.Now()
		time.Sleep(calmSample)
		share := (stealTime() - s0).Seconds() / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
		if share <= maxSteal || time.Now().After(deadline) {
			return
		}
	}
}

// steadyWindow measures a window on env after a calm second. While the host
// took more than maxSteal of the CPU time during the window, it closes env
// and measures once more on a fresh set-up, up to maxWindows windows in all;
// the last window is kept. It returns the kept window with its environment
// and the number of windows measured.
func steadyWindow[E any](env E, measure func(E) (*window, error), reopen func() (E, error),
	closeEnv func(E) error) (*window, E, int, error) {
	awaitCalm()
	win, err := measure(env)
	tries := 1
	for ; err == nil && win.steal > maxSteal && tries < maxWindows; tries++ {
		if err := closeEnv(env); err != nil {
			return nil, env, tries, err
		}
		if env, err = reopen(); err != nil {
			return nil, env, tries, err
		}
		awaitCalm()
		win, err = measure(env)
	}
	return win, env, tries, err
}
