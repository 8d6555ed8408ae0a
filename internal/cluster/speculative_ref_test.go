package cluster_test

// Reference implementations of the speculative baselines: Mantri and LATE
// as they ran before the watch lists and wake-ups, scanning every running
// task on every invocation. Run on the naive loop, they are the oracle the
// production schedulers must reproduce on both loops.

import (
	"math"
	"sort"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/sched/late"
	"mrclone/internal/sched/mantri"
)

// refMantri is the full-scan Mantri; cfg has every default filled in.
type refMantri struct {
	name string
	cfg  mantri.Config
}

func newRefMantri(cfg mantri.Config) refMantri {
	s, err := mantri.New(cfg)
	if err != nil {
		panic(err)
	}
	if cfg.Delta == 0 {
		cfg.Delta = mantri.DefaultDelta
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = mantri.DefaultMinObservation
	}
	if cfg.MaxBackupsPerTask == 0 {
		cfg.MaxBackupsPerTask = mantri.DefaultMaxBackups
	}
	if cfg.CheckIntervalSlots == 0 {
		cfg.CheckIntervalSlots = mantri.DefaultCheckInterval
	}
	return refMantri{name: s.Name(), cfg: cfg}
}

func (r refMantri) Name() string { return r.name }

// launchFIFO launches first copies of unscheduled tasks, FIFO across jobs,
// maps before reduces; it reports false when it ran out of machines or hit
// a launch error.
func launchFIFO(ctx *cluster.Context, alive []*job.Job) bool {
	for _, j := range alive {
		if ctx.FreeMachines() == 0 {
			return false
		}
		for _, t := range j.AppendUnscheduled(nil, job.PhaseMap) {
			if ctx.FreeMachines() == 0 {
				return false
			}
			if _, err := ctx.Launch(j, t, 1, false); err != nil {
				return false
			}
		}
		if !j.MapPhaseDone() {
			continue
		}
		for _, t := range j.AppendUnscheduled(nil, job.PhaseReduce) {
			if ctx.FreeMachines() == 0 {
				return false
			}
			if _, err := ctx.Launch(j, t, 1, false); err != nil {
				return false
			}
		}
	}
	return true
}

func (r refMantri) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs()
	if !launchFIFO(ctx, alive) {
		return
	}
	if ctx.FreeMachines() == 0 || ctx.Now()%r.cfg.CheckIntervalSlots != 0 {
		return
	}
	type candidate struct {
		j    *job.Job
		t    *job.Task
		trem float64
	}
	var cands []candidate
	for _, j := range alive {
		for _, p := range []job.Phase{job.PhaseMap, job.PhaseReduce} {
			stats := j.PhaseStats(p)
			for _, t := range j.AppendRunning(nil, p) {
				if t.Copies >= 1+r.cfg.MaxBackupsPerTask {
					continue
				}
				pr, ok := ctx.BestProgress(t)
				if !ok || pr.Elapsed < r.cfg.MinObservationSlots || pr.Fraction <= 0 {
					continue
				}
				trem := float64(pr.Elapsed) * (1 - pr.Fraction) / pr.Fraction
				if r.shouldBackup(trem, stats) {
					cands = append(cands, candidate{j: j, t: t, trem: trem})
				}
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].trem != cands[b].trem {
			return cands[a].trem > cands[b].trem
		}
		if cands[a].j.Spec.ID != cands[b].j.Spec.ID {
			return cands[a].j.Spec.ID < cands[b].j.Spec.ID
		}
		return cands[a].t.ID.Index < cands[b].t.ID.Index
	})
	for _, c := range cands {
		if ctx.FreeMachines() == 0 {
			return
		}
		if _, err := ctx.Launch(c.j, c.t, 1, false); err != nil {
			return
		}
	}
}

// shouldBackup is Mantri's relaunch rule P(t_rem > 2 t_new) > delta under
// the Cantelli bound.
func (r refMantri) shouldBackup(trem float64, stats job.Stats) bool {
	if stats.Mean <= 0 {
		return false
	}
	half := trem / 2
	if half <= stats.Mean {
		return false
	}
	if stats.StdDev == 0 || math.IsInf(stats.StdDev, 1) {
		return true
	}
	d := half - stats.Mean
	pNewExceeds := stats.StdDev * stats.StdDev / (stats.StdDev*stats.StdDev + d*d)
	return 1-pNewExceeds > r.cfg.Delta
}

// refLATE is the full-scan LATE; cfg has every default filled in.
type refLATE struct {
	name string
	cfg  late.Config
}

func newRefLATE(cfg late.Config) refLATE {
	s, err := late.New(cfg)
	if err != nil {
		panic(err)
	}
	if cfg.SpeculativeCap == 0 {
		cfg.SpeculativeCap = late.DefaultSpeculativeCap
	}
	if cfg.SlowTaskThreshold == 0 {
		cfg.SlowTaskThreshold = late.DefaultSlowTaskThreshold
	}
	if cfg.MinObservationSlots == 0 {
		cfg.MinObservationSlots = late.DefaultMinObservation
	}
	return refLATE{name: s.Name(), cfg: cfg}
}

func (r refLATE) Name() string { return r.name }

func (r refLATE) Schedule(ctx *cluster.Context) {
	alive := ctx.AliveJobs()
	if !launchFIFO(ctx, alive) || ctx.FreeMachines() == 0 {
		return
	}
	type candidate struct {
		j   *job.Job
		t   *job.Task
		tte float64
	}
	var cands []candidate
	var specCopies int
	for _, j := range alive {
		for _, p := range []job.Phase{job.PhaseMap, job.PhaseReduce} {
			running := j.AppendRunning(nil, p)
			var sum float64
			type obs struct {
				t    *job.Task
				prog cluster.CopyProgress
			}
			var obsList []obs
			for _, t := range running {
				if t.Copies > 1 {
					specCopies += t.Copies - 1
				}
				pr, ok := ctx.BestProgress(t)
				if !ok || pr.Gated || pr.Elapsed < r.cfg.MinObservationSlots {
					continue
				}
				sum += pr.Fraction
				obsList = append(obsList, obs{t: t, prog: pr})
			}
			if len(obsList) == 0 {
				continue
			}
			mean := sum / float64(len(obsList))
			for _, o := range obsList {
				if o.t.Copies > 1 || o.prog.Fraction >= mean-r.cfg.SlowTaskThreshold ||
					o.prog.Fraction <= 0 {
					continue
				}
				tte := float64(o.prog.Elapsed) * (1 - o.prog.Fraction) / o.prog.Fraction
				cands = append(cands, candidate{j: j, t: o.t, tte: tte})
			}
		}
	}
	budget := int(r.cfg.SpeculativeCap*float64(ctx.Machines())) - specCopies
	if budget <= 0 {
		return
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].tte != cands[b].tte {
			return cands[a].tte > cands[b].tte
		}
		if cands[a].j.Spec.ID != cands[b].j.Spec.ID {
			return cands[a].j.Spec.ID < cands[b].j.Spec.ID
		}
		return cands[a].t.ID.Index < cands[b].t.ID.Index
	})
	for _, c := range cands {
		if budget == 0 || ctx.FreeMachines() == 0 {
			return
		}
		if _, err := ctx.Launch(c.j, c.t, 1, false); err != nil {
			return
		}
		budget--
	}
}
