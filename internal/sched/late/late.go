// Package late implements a LATE-style baseline (Zaharia et al., OSDI 2008,
// reference [28] of the paper): Longest Approximate Time to End. LATE ranks
// running tasks by their estimated remaining time and speculatively
// re-executes the ones expected to finish farthest in the future, subject to
// a cap on concurrent speculative copies, and only for tasks whose progress
// is below a threshold relative to the phase average.
//
// Like Mantri it is a straggler-*detection* scheme with FIFO job order; the
// two differ in the relaunch rule. It broadens the detection-family
// comparison beyond the paper's Figures 4-6.
//
// # Event-calendar execution
//
// A task is slow when its progress fraction falls below the mean over the
// observed running tasks of its (job, phase) group minus SlowTaskThreshold.
// Progress is linear in the simulator, so between a group's breakpoints —
// a completion or launch in the group, a copy passing the observation
// window, a backup reporting its first progress — every fraction in the
// comparison moves at a constant rate, and the first slot at which a task
// can turn slow is solved for. The scheduler keeps, per group, the slot
// from which it needs another look, re-examines only the groups whose slot
// has come or whose task counts changed, and arms a wake-up for the
// earliest such slot. The solve errs early by a margin that covers the
// floating-point error of the comparison, and a group whose reported best
// copy could flip between two copies finishing on the same slot is looked
// at every slot, so results equal the naive loop's exactly. Nothing is
// armed while the speculative budget is spent: it frees only when a task
// completes, and completions invoke the scheduler anyway.
package late

import (
	"fmt"
	"math"
	"slices"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
)

// Config parameterizes LATE.
type Config struct {
	// SpeculativeCap bounds concurrently running speculative copies as a
	// fraction of cluster size (LATE's SpeculativeCap, default 0.1).
	SpeculativeCap float64
	// SlowTaskThreshold: only tasks whose progress fraction is below this
	// quantile-ish threshold of the phase mean are candidates (default 0.25
	// below mean progress).
	SlowTaskThreshold float64
	// MinObservationSlots before a copy's progress is trusted (default 8).
	MinObservationSlots int64
}

// Defaults for Config zero values.
const (
	DefaultSpeculativeCap    = 0.1
	DefaultSlowTaskThreshold = 0.25
	DefaultMinObservation    = 8
)

// Scheduler implements cluster.Scheduler. It keeps per-run group state
// (reset by StartRun) and scratch buffers, so one instance must not be
// shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	jobs, spare []jobWatch // per alive job, arrival order

	tasks  []*job.Task // scratch: task snapshot of one job phase
	obs    []observed
	cands  []candidate
	copies []cluster.CopyProgress
}

// jobWatch is the look-ahead state of one alive job's two phase groups.
type jobWatch struct {
	j      *job.Job
	phases [2]groupWatch // map, reduce
}

// groupWatch records, for one (job, phase) group, the task counts at its
// last look and the slot from which it needs another look (zero, so at
// once, for a group not looked at yet).
type groupWatch struct {
	unfinished  int
	unscheduled int
	next        int64
}

type observed struct {
	t    *job.Task
	prog cluster.CopyProgress
}

type candidate struct {
	j   *job.Job
	t   *job.Task
	tte float64 // approximate time to end
}

// never is the "no look needed" slot.
const never = math.MaxInt64

var (
	_ cluster.Scheduler   = (*Scheduler)(nil)
	_ cluster.EventDriven = (*Scheduler)(nil)
	_ cluster.Speculator  = (*Scheduler)(nil)
	_ cluster.RunStarter  = (*Scheduler)(nil)
)

// New returns a LATE-style scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.SpeculativeCap == 0 {
		cfg.SpeculativeCap = DefaultSpeculativeCap
	}
	if cfg.SpeculativeCap < 0 || cfg.SpeculativeCap > 1 {
		return nil, fmt.Errorf("late: speculative cap %v outside [0, 1]", cfg.SpeculativeCap)
	}
	if cfg.SlowTaskThreshold == 0 {
		cfg.SlowTaskThreshold = DefaultSlowTaskThreshold
	}
	if cfg.SlowTaskThreshold < 0 || cfg.SlowTaskThreshold > 1 {
		return nil, fmt.Errorf("late: slow-task threshold %v outside [0, 1]", cfg.SlowTaskThreshold)
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = DefaultMinObservation
	}
	if cfg.MinObservationSlots < 0 {
		return nil, fmt.Errorf("late: negative observation window %d", cfg.MinObservationSlots)
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return fmt.Sprintf("LATE(cap=%g)", s.cfg.SpeculativeCap) }

// EventDriven implements cluster.EventDriven (see the package comment).
func (s *Scheduler) EventDriven() bool { return true }

// LaunchesBackups implements cluster.Speculator.
func (s *Scheduler) LaunchesBackups() bool { return true }

// StartRun implements cluster.RunStarter: it drops the previous run's group
// state.
func (s *Scheduler) StartRun() {
	clear(s.jobs)
	s.jobs = s.jobs[:0]
}

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs() // FIFO

	// Pass 1: first copies, FIFO, maps before reduces.
	for _, j := range alive {
		for _, p := range [2]job.Phase{job.PhaseMap, job.PhaseReduce} {
			if ctx.FreeMachines() == 0 {
				return
			}
			if p == job.PhaseReduce && !j.MapPhaseDone() {
				break
			}
			if j.Unscheduled(p) == 0 {
				continue
			}
			s.tasks = j.AppendUnscheduled(s.tasks[:0], p)
			for _, t := range s.tasks {
				if ctx.FreeMachines() == 0 {
					return
				}
				if _, err := ctx.Launch(j, t, 1, false); err != nil {
					return
				}
			}
		}
	}
	if ctx.FreeMachines() == 0 {
		return
	}
	budget := int(s.cfg.SpeculativeCap*float64(ctx.Machines())) - speculativeCopies(alive)
	if budget <= 0 {
		return
	}

	// Pass 2: rank candidate stragglers by longest approximate time to end,
	// looking only at the groups that may have some.
	s.syncJobs(alive)
	now := ctx.Now()
	cands := s.cands[:0]
	wake := int64(never)
	for i := range s.jobs {
		jw := &s.jobs[i]
		for k, p := range [2]job.Phase{job.PhaseMap, job.PhaseReduce} {
			g := &jw.phases[k]
			uf, us := jw.j.Unfinished(p), jw.j.Unscheduled(p)
			if g.unfinished != uf || g.unscheduled != us || g.next <= now {
				g.unfinished, g.unscheduled = uf, us
				n := len(cands)
				cands, g.next = s.look(ctx, jw.j, p, cands)
				if len(cands) > n {
					g.next = now + 1 // launches below change the group
				}
			}
			wake = min(wake, g.next)
		}
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		switch {
		case a.tte != b.tte:
			if a.tte > b.tte { // longest time-to-end first
				return -1
			}
			return 1
		case a.j.Spec.ID != b.j.Spec.ID:
			return a.j.Spec.ID - b.j.Spec.ID
		default:
			return a.t.ID.Index - b.t.ID.Index
		}
	})
	for _, c := range cands {
		if budget == 0 || ctx.FreeMachines() == 0 {
			break
		}
		if _, err := ctx.Launch(c.j, c.t, 1, false); err != nil {
			break
		}
		budget--
	}
	clear(cands)
	s.cands = cands[:0]
	if wake != never {
		ctx.WakeAt(wake)
	}
}

// syncJobs aligns the group state with alive: both are in arrival order,
// so retired jobs drop out and new arrivals append.
func (s *Scheduler) syncJobs(alive []*job.Job) {
	old, k := s.jobs, 0
	cur := s.spare[:0]
	for _, j := range alive {
		for k < len(old) && old[k].j != j {
			k++
		}
		if k < len(old) {
			cur = append(cur, old[k])
			k++
		} else {
			cur = append(cur, jobWatch{j: j})
		}
	}
	clear(old)
	s.jobs, s.spare = cur, old[:0]
}

// look evaluates the (j, p) group exactly as the per-slot rule does,
// appending its candidates, and returns the slot from which the group
// needs another look assuming none of its tasks launches or completes
// before then.
func (s *Scheduler) look(ctx *cluster.Context, j *job.Job, p job.Phase,
	cands []candidate) ([]candidate, int64) {
	now := ctx.Now()
	next := int64(never)
	s.tasks = j.AppendRunning(s.tasks[:0], p)
	if len(s.tasks) == 0 {
		return cands, next
	}
	// Phase-average progress across running tasks, and the rate at which
	// it grows.
	var sum, rate float64
	obs := s.obs[:0]
	for _, t := range s.tasks {
		pr, ok := ctx.BestProgress(t)
		if !ok || pr.Gated || (t.Copies > 1 && !s.bestStable(ctx, t)) {
			next = now + 1
		}
		if !ok || pr.Gated {
			continue
		}
		if pr.Elapsed < s.cfg.MinObservationSlots {
			next = min(next, now-pr.Elapsed+s.cfg.MinObservationSlots)
			continue
		}
		sum += pr.Fraction
		rate += pr.Fraction / float64(pr.Elapsed)
		obs = append(obs, observed{t: t, prog: pr})
	}
	if len(obs) > 0 {
		mean := sum / float64(len(obs))
		rate /= float64(len(obs))
		for _, o := range obs {
			if o.t.Copies > 1 {
				continue // one speculative copy per task
			}
			if o.prog.Fraction >= mean-s.cfg.SlowTaskThreshold {
				// Not slow enough relative to the phase, yet.
				next = min(next, slowFrom(now, mean-s.cfg.SlowTaskThreshold, rate, o.prog))
				continue
			}
			if o.prog.Fraction <= 0 {
				continue
			}
			tte := float64(o.prog.Elapsed) * (1 - o.prog.Fraction) / o.prog.Fraction
			cands = append(cands, candidate{j: j, t: o.t, tte: tte})
		}
	}
	clear(obs)
	s.obs = obs[:0]
	return cands, next
}

// bestStable reports whether BestProgress(t) keeps describing the same
// copy on every later slot while t's copies stay the same. It does unless
// a copy has no progress yet (it may take over on the next slot) or two
// copies with progress finish on the same slot, whose floating-point
// remaining-time estimates may order either way from slot to slot. The
// estimates fall by one per slot, so copies finishing on different slots
// differ by about one or more.
func (s *Scheduler) bestStable(ctx *cluster.Context, t *job.Task) bool {
	s.copies = ctx.AppendProgress(s.copies[:0], t)
	first, second := math.Inf(1), math.Inf(1)
	for _, c := range s.copies {
		if c.Gated {
			continue
		}
		if c.Fraction <= 0 {
			return false
		}
		rem := float64(c.Elapsed) * (1 - c.Fraction) / c.Fraction
		if rem < first {
			first, second = rem, first
		} else if rem < second {
			second = rem
		}
	}
	return second-first >= 0.5
}

// slowFrom returns the first slot after now at which a single-copy task
// with progress pr could fall below the group's mean progress minus the
// threshold, bar, given that the mean grows by rate per slot and every
// fraction stays linear. It errs early: the bounds below cover the
// rounding of the fractions, of their sum and of the rates for groups of
// up to about 10^5 tasks.
func slowFrom(now int64, bar, rate float64, pr cluster.CopyProgress) int64 {
	own := pr.Fraction / float64(pr.Elapsed)
	closing := rate - own + 1e-9*(rate+own) // upper bound on the true rate
	if closing <= 0 {
		return never
	}
	gap := pr.Fraction - bar
	if gap < 1e-6 {
		return now + 1
	}
	d := gap / closing * (1 - 1e-3)
	if d >= float64(never-now) {
		return never
	}
	return now + max(1, int64(d))
}

// speculativeCopies counts running copies beyond one per task: a job's
// live copies minus its running tasks.
func speculativeCopies(alive []*job.Job) int {
	n := 0
	for _, j := range alive {
		n += j.RunningCopies
		for _, p := range [2]job.Phase{job.PhaseMap, job.PhaseReduce} {
			n -= j.Unfinished(p) - j.Unscheduled(p)
		}
	}
	return n
}
