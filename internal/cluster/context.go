package cluster

import (
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// Context is the per-slot view a Scheduler receives. It exposes exactly the
// information the paper's model allows: alive jobs with their (E, sigma)
// workload statistics and task states, the free-machine count, and — for
// detection-based baselines such as Mantri — per-copy progress fractions as
// a progress-reporting MapReduce system would surface them. Ground-truth
// sampled durations are never exposed.
//
// The Context (and every slice it returns) is only valid for the duration of
// the Schedule call it was passed to; schedulers must not retain either
// across invocations.
type Context struct {
	engine *Engine
}

// Now returns the current time slot l.
func (c *Context) Now() int64 { return c.engine.slot }

// Machines returns M, the cluster size.
func (c *Context) Machines() int { return c.engine.cfg.Machines }

// FreeMachines returns the number of machines available this slot.
func (c *Context) FreeMachines() int { return c.engine.free }

// AliveJobs returns the jobs that have arrived and not finished, in arrival
// order. The returned slice is scratch reused by the next AliveJobs call —
// callers may reorder or filter it in place but must not retain it past the
// Schedule invocation; the *job.Job values are shared with the engine and
// must not be mutated except through Launch.
func (c *Context) AliveJobs() []*job.Job {
	e := c.engine
	out := e.aliveScratch[:0]
	if cap(out) < e.aliveCount {
		out = make([]*job.Job, 0, 2*e.aliveCount+8)
	}
	for _, j := range e.alive {
		if j != nil {
			out = append(out, j)
		}
	}
	e.aliveScratch = out
	return out
}

// Launch starts n copies of task t of job j this slot. Launching a reduce
// task before the job's map phase has completed requires gated=true: the
// copies occupy machines immediately but begin progress only when the map
// phase finishes (the paper's constraint 1g). It returns the number of
// copies actually launched.
func (c *Context) Launch(j *job.Job, t *job.Task, n int, gated bool) (int, error) {
	return c.engine.launch(j, t, n, gated)
}

// Rand returns a deterministic random stream for scheduler tie-breaking
// (for example, "choose one unscheduled task at random"). An EventDriven
// scheduler must draw from it only on invocations that launch at least one
// copy: the event loop invokes it on fewer slots than the naive loop, and a
// draw on an invocation one loop makes and the other skips would shift
// every later draw. An invocation that draws counts as active, so the
// event loop steps to the next slot instead of jumping to the next event.
// Schedulers must obtain the stream through this method on each invocation
// rather than caching it.
func (c *Context) Rand() *rng.Source {
	c.engine.randUsed = true
	return c.engine.schedRand
}

// WakeAt asks the event loop to invoke the scheduler again at the given
// slot even if no event happens by then; a slot at or before Now() means
// the next slot. Several calls during one invocation keep the earliest
// slot. Every invocation clears the wake-up, so a scheduler re-arms on
// each invocation whatever it still needs; an invocation caused by an
// event before the wake-up is due replaces it. A wake-up that falls due
// while no machine is free or no job is alive is served at the first slot
// on which the scheduler can be invoked again. The naive loop invokes the
// scheduler on every slot and ignores wake-ups.
func (c *Context) WakeAt(slot int64) {
	e := c.engine
	if slot <= e.slot {
		slot = e.slot + 1
	}
	if slot < e.wake {
		e.wake = slot
	}
}

// CopyProgress describes one live copy of a task as a progress-reporting
// execution layer would: how long it has been running and what fraction of
// its work is complete. Gated copies report zero progress.
type CopyProgress struct {
	Elapsed  int64   // slots since the countdown started
	Fraction float64 // completed fraction in [0, 1)
	Gated    bool
}

// AppendProgress appends progress reports for the live copies of t to dst,
// oldest first, and returns the extended slice (dst unchanged for a task
// with no live copy).
func (c *Context) AppendProgress(dst []CopyProgress, t *job.Task) []CopyProgress {
	tr, _ := t.Runtime.(*taskRun)
	if tr == nil {
		return dst
	}
	for i := range tr.copies {
		dst = append(dst, c.engine.progressOf(&tr.copies[i]))
	}
	return dst
}

// BestProgress returns, without allocating, the progress report of the live
// copy of t with the smallest progress-based remaining-time estimate
// elapsed*(1-f)/f — the copy expected to finish first. Copies with zero
// reported progress are returned only when no copy has made progress. ok is
// false when t has no observable live copy.
func (c *Context) BestProgress(t *job.Task) (best CopyProgress, ok bool) {
	tr, _ := t.Runtime.(*taskRun)
	if tr == nil {
		return CopyProgress{}, false
	}
	bestRem := 0.0
	for i := range tr.copies {
		cp := &tr.copies[i]
		if cp.gated {
			continue
		}
		p := c.engine.progressOf(cp)
		elapsed, frac := p.Elapsed, p.Fraction
		switch {
		case !ok:
			best, ok = p, true
			if frac > 0 {
				bestRem = float64(elapsed) * (1 - frac) / frac
			}
		case frac > 0:
			rem := float64(elapsed) * (1 - frac) / frac
			if best.Fraction == 0 || rem < bestRem {
				best, bestRem = p, rem
			}
		}
	}
	return best, ok
}

// progressOf is the progress report of one copy at the current slot.
func (e *Engine) progressOf(cp *copyRecord) CopyProgress {
	if cp.gated {
		return CopyProgress{Gated: true}
	}
	elapsed := e.slot - cp.started
	total := float64(cp.finish - cp.started)
	frac := 0.0
	if total > 0 {
		frac = float64(elapsed) / total
	}
	if frac > 1 {
		frac = 1
	}
	return CopyProgress{Elapsed: elapsed, Fraction: frac}
}

// Speed returns the configured machine speed (resource augmentation factor).
func (c *Context) Speed() float64 { return c.engine.cfg.Speed }
