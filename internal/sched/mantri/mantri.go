// Package mantri implements the Mantri-style speculative-execution baseline
// the paper compares against (Section VI-A): a straggler-*detection* scheme
// that monitors task progress and launches a backup copy when the estimated
// remaining time of a running task dwarfs the expected duration of a fresh
// copy.
//
// The decision rule is the one the paper attributes to Mantri: relaunch when
// P(t_rem > 2 * t_new) > delta. Because schedulers in this model only know
// the first two moments of task duration, the probability is bounded with
// the one-sided Chebyshev (Cantelli) inequality:
//
//	P(t_new >= t_rem/2) <= sigma^2 / (sigma^2 + (t_rem/2 - E)^2)  for t_rem/2 > E,
//
// so a backup launches when t_rem > 2E and 1 - that bound exceeds delta.
// t_rem is estimated from the copy's reported progress fraction f as
// t_rem = elapsed * (1-f) / f, the standard progress-rate estimator.
//
// Jobs are served in arrival (FIFO) order — Mantri mitigates stragglers
// within jobs but does not prioritize across jobs, which is exactly the
// weakness the paper's SRPT-based algorithms exploit.
//
// # Event-calendar execution
//
// Progress is linear in the simulator, so the estimate elapsed*(1-f)/f of a
// copy equals its true remaining time finish-now and falls by one every
// slot, and the relaunch rule only grows more willing as t_rem grows. A
// task that is observed and not worth a backup on one check tick therefore
// stays so until its set of copies changes, and the only copies added are
// the ones this scheduler launches. The scan consequently examines a watch
// list rather than every running task: tasks one of whose copies passed
// the observation window since the last scan, plus the tasks the last scan
// kept (candidates, and backed-up tasks whose best copy is still
// unobserved). Wake-ups are armed only for the next check tick after a
// scan that kept tasks, and for the first check tick at or after the next
// pending observation crossing.
package mantri

import (
	"fmt"
	"math"
	"slices"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
)

// Config parameterizes the Mantri baseline.
type Config struct {
	// Delta is the confidence threshold of the relaunch rule. The original
	// system uses a high-confidence setting; 0.25 is a reasonable default
	// given Cantelli's conservativeness. Must be in (0, 1).
	Delta float64
	// MinObservationSlots is the minimum elapsed time before a copy's
	// progress is trusted — detection "needs to wait for the collection of
	// enough samples" (Section II). Zero means DefaultMinObservation.
	MinObservationSlots int64
	// MaxBackupsPerTask caps speculative copies per task (Mantri restarts or
	// duplicates at most once or twice in practice). Zero means 2.
	MaxBackupsPerTask int
	// CheckIntervalSlots is how often the straggler-detection scan runs.
	// Production systems poll task progress periodically, not every second.
	// Zero means DefaultCheckInterval; 1 scans every slot.
	CheckIntervalSlots int64
}

// Defaults for Config zero values.
const (
	DefaultDelta          = 0.25
	DefaultMinObservation = 8
	DefaultMaxBackups     = 2
	DefaultCheckInterval  = 5
)

// Scheduler implements cluster.Scheduler. It keeps a per-run watch list
// (reset by StartRun) and scratch buffers, so one instance must not be
// shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	// crossings holds one entry per launched copy, at the slot its
	// observation window ends, in launch order (so nondecreasing in at);
	// crossings[next:] have not been consumed by a scan yet.
	crossings []watched
	next      int
	// kept is the watch list the last scan carried forward.
	kept []watched

	scan  []watched // scratch: this scan's watch list
	seen  map[*job.Task]struct{}
	tasks []*job.Task // scratch: unscheduled-task snapshot
	cands []candidate
}

// watched is a task on the watch list; at is the slot from which it needs
// a look (the end of a copy's observation window).
type watched struct {
	j  *job.Job
	t  *job.Task
	at int64
}

type candidate struct {
	j    *job.Job
	t    *job.Task
	trem float64
}

var (
	_ cluster.Scheduler   = (*Scheduler)(nil)
	_ cluster.EventDriven = (*Scheduler)(nil)
	_ cluster.Speculator  = (*Scheduler)(nil)
	_ cluster.RunStarter  = (*Scheduler)(nil)
)

// New returns a Mantri-style scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Delta == 0 {
		cfg.Delta = DefaultDelta
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 || math.IsNaN(cfg.Delta) {
		return nil, fmt.Errorf("mantri: delta %v outside (0, 1)", cfg.Delta)
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = DefaultMinObservation
	}
	if cfg.MinObservationSlots < 0 {
		return nil, fmt.Errorf("mantri: negative observation window %d", cfg.MinObservationSlots)
	}
	if cfg.MaxBackupsPerTask == 0 {
		cfg.MaxBackupsPerTask = DefaultMaxBackups
	}
	if cfg.MaxBackupsPerTask < 0 {
		return nil, fmt.Errorf("mantri: negative backup cap %d", cfg.MaxBackupsPerTask)
	}
	if cfg.CheckIntervalSlots == 0 {
		cfg.CheckIntervalSlots = DefaultCheckInterval
	}
	if cfg.CheckIntervalSlots < 0 {
		return nil, fmt.Errorf("mantri: negative check interval %d", cfg.CheckIntervalSlots)
	}
	return &Scheduler{cfg: cfg, seen: make(map[*job.Task]struct{})}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return fmt.Sprintf("Mantri(delta=%g)", s.cfg.Delta) }

// EventDriven implements cluster.EventDriven: between check ticks Mantri
// only launches first copies, and its check ticks are covered by the
// wake-ups it arms (see the package comment).
func (s *Scheduler) EventDriven() bool { return true }

// LaunchesBackups implements cluster.Speculator.
func (s *Scheduler) LaunchesBackups() bool { return true }

// StartRun implements cluster.RunStarter: it drops the previous run's watch
// list.
func (s *Scheduler) StartRun() {
	clear(s.crossings)
	clear(s.kept)
	s.crossings, s.kept, s.next = s.crossings[:0], s.kept[:0], 0
}

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs() // arrival order == FIFO
	if s.launchFirstCopies(ctx, alive) && ctx.FreeMachines() > 0 &&
		ctx.Now()%s.cfg.CheckIntervalSlots == 0 {
		s.backUpStragglers(ctx, alive)
	}
	s.armWake(ctx)
}

// launchFirstCopies is pass 1: first copies of unscheduled tasks, FIFO
// across jobs, maps before reduces within a job. It reports false when it
// stopped on a launch error.
func (s *Scheduler) launchFirstCopies(ctx *cluster.Context, alive []*job.Job) bool {
	for _, j := range alive {
		if ctx.FreeMachines() == 0 {
			return true
		}
		phases := [2]job.Phase{job.PhaseMap, job.PhaseReduce}
		for _, p := range phases {
			if p == job.PhaseReduce && !j.MapPhaseDone() {
				break
			}
			if j.Unscheduled(p) == 0 {
				continue
			}
			s.tasks = j.AppendUnscheduled(s.tasks[:0], p)
			for _, t := range s.tasks {
				if ctx.FreeMachines() == 0 {
					return true
				}
				if !s.launch(ctx, j, t) {
					return false
				}
			}
		}
	}
	return true
}

// launch starts one copy of t and queues its observation crossing.
func (s *Scheduler) launch(ctx *cluster.Context, j *job.Job, t *job.Task) bool {
	if _, err := ctx.Launch(j, t, 1, false); err != nil {
		return false
	}
	s.crossings = append(s.crossings, watched{j: j, t: t, at: ctx.Now() + s.cfg.MinObservationSlots})
	return true
}

// backUpStragglers is pass 2: with leftover machines, launch backups for
// detected stragglers, worst (largest estimated remaining time) first.
func (s *Scheduler) backUpStragglers(ctx *cluster.Context, alive []*job.Job) {
	now := ctx.Now()
	scan := append(s.scan[:0], s.kept...)
	for ; s.next < len(s.crossings) && s.crossings[s.next].at <= now; s.next++ {
		scan = append(scan, s.crossings[s.next])
		s.crossings[s.next] = watched{}
	}
	if s.next > 64 && 2*s.next >= len(s.crossings) {
		n := copy(s.crossings, s.crossings[s.next:])
		clear(s.crossings[n:])
		s.crossings, s.next = s.crossings[:n], 0
	}
	kept, cands := s.kept[:0], s.cands[:0]
	clear(s.seen)
	for _, w := range scan {
		t := w.t
		if _, dup := s.seen[t]; dup || t.State != job.TaskRunning ||
			t.Copies >= 1+s.cfg.MaxBackupsPerTask {
			continue
		}
		s.seen[t] = struct{}{}
		p, ok := ctx.BestProgress(t)
		if !ok {
			continue
		}
		if p.Elapsed < s.cfg.MinObservationSlots || p.Fraction <= 0 {
			// The copy expected to finish first is not observed yet. With
			// a single copy its crossing is still queued; with several, a
			// tied observed sibling may be reported on a later slot, so
			// keep looking.
			if t.Copies > 1 {
				kept = append(kept, w)
			}
			continue
		}
		trem := float64(p.Elapsed) * (1 - p.Fraction) / p.Fraction
		if s.shouldBackup(trem, w.j.PhaseStats(t.ID.Phase)) {
			kept = append(kept, w)
			cands = append(cands, candidate{j: w.j, t: t, trem: trem})
		}
	}
	clear(scan)
	s.scan, s.kept, s.cands = scan[:0], kept, cands
	slices.SortFunc(cands, func(a, b candidate) int { return compareCandidates(alive, a, b) })
	for _, c := range cands {
		if ctx.FreeMachines() == 0 || !s.launch(ctx, c.j, c.t) {
			break
		}
	}
	clear(cands)
}

// compareCandidates orders backup candidates: largest remaining time
// first, then job ID and task index. The order is total over running
// tasks, so the launch order does not depend on the order of the watch
// list: the phase never decides (a job's reduces run only after its maps
// are done), and jobs sharing an ID fall back to arrival order, the order
// of alive.
func compareCandidates(alive []*job.Job, a, b candidate) int {
	switch {
	case a.trem != b.trem:
		if a.trem > b.trem {
			return -1
		}
		return 1
	case a.j.Spec.ID != b.j.Spec.ID:
		return a.j.Spec.ID - b.j.Spec.ID
	case a.t.ID.Index != b.t.ID.Index:
		return a.t.ID.Index - b.t.ID.Index
	case a.j == b.j:
		return int(a.t.ID.Phase) - int(b.t.ID.Phase)
	}
	for _, j := range alive {
		if j == a.j {
			return -1
		}
		if j == b.j {
			return 1
		}
	}
	return 0
}

// armWake asks to be invoked on the next check tick if the last scan kept
// tasks, and otherwise on the first check tick at or after the next
// pending observation crossing.
func (s *Scheduler) armWake(ctx *cluster.Context) {
	now, iv := ctx.Now(), s.cfg.CheckIntervalSlots
	var from int64
	switch {
	case len(s.kept) > 0:
		from = now + 1
	case s.next < len(s.crossings):
		from = max(s.crossings[s.next].at, now+1)
	default:
		return
	}
	ctx.WakeAt((from + iv - 1) / iv * iv)
}

// shouldBackup applies the relaunch rule P(t_rem > 2 t_new) > delta using the
// Cantelli bound over the phase's (E, sigma).
func (s *Scheduler) shouldBackup(trem float64, stats job.Stats) bool {
	if stats.Mean <= 0 {
		return false
	}
	half := trem / 2
	if half <= stats.Mean {
		return false // a fresh copy is not expected to beat the running one
	}
	if stats.StdDev == 0 {
		return true // deterministic t_new < t_rem/2 with certainty
	}
	if math.IsInf(stats.StdDev, 1) {
		// Infinite variance (Pareto alpha <= 2): Cantelli is vacuous, so
		// fall back to the expectation rule t_rem > 2 E[t_new], which the
		// half > mean guard above has already established.
		return true
	}
	d := half - stats.Mean
	pNewExceeds := stats.StdDev * stats.StdDev / (stats.StdDev*stats.StdDev + d*d)
	return 1-pNewExceeds > s.cfg.Delta
}
