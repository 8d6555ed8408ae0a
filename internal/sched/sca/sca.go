// Package sca implements the Smart Cloning Algorithm (SCA) baseline from
// Xu & Lau's earlier work (INFOCOM 2015, reference [26] of the paper):
// a cloning scheduler that, at the beginning of each slot, decides how many
// copies each task receives by optimizing a concave speedup objective, then
// launches all copies on available machines.
//
// The original SCA solves a convex program over the tasks of the *arriving*
// jobs ("make clones for each task of the arriving jobs... which aims at
// minimizing the total job elapsed time", Section I). The objective is
// separable and concave in the per-task copy counts with one total-machines
// constraint, so the exact optimizer of the discretized problem is greedy
// marginal allocation ("water-filling"): repeatedly grant the next machine
// to the task whose job gains the most weighted expected-duration reduction.
// This scheduler runs that greedy water-filling in place of a convex
// solver; the two agree whenever the speedup model is concave, as every
// dist.Speedup must be.
//
// Crucially, SCA does not prioritize across jobs the way SRPT does — the
// paper's stated limitation of the cloning baselines is that "it remains a
// problem to prioritize different jobs". Jobs therefore receive first copies
// in arrival (FIFO) order, with the cloning budget shared by marginal gain.
package sca

import (
	"fmt"
	"math"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/sched/schedutil"
)

// Config parameterizes SCA.
type Config struct {
	// Speedup is the concave speedup model used by the convex objective.
	// Nil means ParetoSpeedup(alpha=2), matching heavy-tailed traces.
	Speedup dist.Speedup
	// DeviationFactor is r in the priority's effective workload.
	DeviationFactor float64
	// MaxClonesPerTask caps copies per task. Zero means 8.
	MaxClonesPerTask int
}

// DefaultMaxClones bounds per-task cloning when Config.MaxClonesPerTask is 0.
const DefaultMaxClones = 8

// Scheduler implements cluster.Scheduler. It carries per-instance scratch
// and must not be shared by concurrently running engines.
type Scheduler struct {
	cfg Config

	allocs []allocation
	items  []*allocation
	tasks  []*job.Task
	coef   []float64 // coef[k] = 1/s(k) - 1/s(k+1); see gainAt
}

var _ cluster.Scheduler = (*Scheduler)(nil)

// New returns an SCA scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Speedup == nil {
		s, err := dist.NewParetoSpeedup(2)
		if err != nil {
			return nil, err
		}
		cfg.Speedup = s
	}
	if cfg.DeviationFactor < 0 || math.IsNaN(cfg.DeviationFactor) {
		return nil, fmt.Errorf("sca: deviation factor %v negative", cfg.DeviationFactor)
	}
	if cfg.MaxClonesPerTask < 0 {
		return nil, fmt.Errorf("sca: max clones %d negative", cfg.MaxClonesPerTask)
	}
	if cfg.MaxClonesPerTask == 0 {
		cfg.MaxClonesPerTask = DefaultMaxClones
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name implements cluster.Scheduler.
func (s *Scheduler) Name() string { return "SCA" }

// EventDriven implements cluster.EventDriven: the greedy gain allocation is
// recomputed from task states each slot, so idle slots may be skipped.
func (s *Scheduler) EventDriven() bool { return true }

// allocation is one task's tentative copy count inside the greedy solver.
type allocation struct {
	j      *job.Job
	t      *job.Task
	we     float64 // job weight times the E of the task's phase
	gain   float64 // gainAt(we, copies), refreshed whenever copies changes
	copies int     // copies tentatively granted this slot
}

// gainAt returns the weighted reduction in expected duration from granting
// a task holding k copies one more, w * E * (1/s(k) - 1/s(k+1)), with we =
// w * E; zero at the clone cap. The speedup terms come from a table the
// scheduler grows on demand, so the greedy loop makes no Speedup calls.
func (s *Scheduler) gainAt(we float64, k int) float64 {
	if k >= s.cfg.MaxClonesPerTask {
		return 0
	}
	for n := len(s.coef); n <= k; n++ {
		x := float64(n)
		s.coef = append(s.coef, 1/s.cfg.Speedup.At(x)-1/s.cfg.Speedup.At(x+1))
	}
	return we * s.coef[k]
}

// before orders the water-filling max-heap: larger gain first, then job and
// task index as a deterministic tie-break.
func before(a, b *allocation) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.j.Spec.ID != b.j.Spec.ID {
		return a.j.Spec.ID < b.j.Spec.ID
	}
	return a.t.ID.Index < b.t.ID.Index
}

// siftDown restores heap order below h[i], making container/heap's
// comparisons in container/heap's order. While every gain is a number the
// comparator is a total order and any layout has the same top; a NaN gain
// (an infinite mean times a zero speedup term) compares unordered, and
// then only the same sequence picks the same top.
func siftDown(h []*allocation, i int) {
	n := len(h)
	node := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(h[r], h[child]) {
			child = r
		}
		if !before(h[child], node) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = node
}

// waterFill grants up to budget further copies across allocs, one at a
// time, to the allocation with the largest marginal gain. Each allocation
// caches its gain, refreshed only when it gains a copy, in a max-heap
// rebuilt per call.
func (s *Scheduler) waterFill(allocs []allocation, budget int) {
	if budget <= 0 || len(allocs) == 0 {
		return
	}
	h := s.items[:0]
	for i := range allocs {
		a := &allocs[i]
		a.gain = s.gainAt(a.we, a.copies)
		h = append(h, a)
	}
	s.items = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for ; budget > 0; budget-- {
		top := h[0]
		if top.gain <= 0 {
			break
		}
		top.copies++
		top.gain = s.gainAt(top.we, top.copies)
		siftDown(h, 0)
	}
}

// Schedule implements cluster.Scheduler.
func (s *Scheduler) Schedule(ctx *cluster.Context) {
	psi := schedutil.WithUnscheduledTasks(ctx.AliveJobs())
	if len(psi) == 0 {
		return
	}
	// Jobs are served in arrival (FIFO) order: SCA clones arriving jobs but
	// does not reorder them by remaining work.

	// Phase A: guarantee one copy to every unscheduled task in arrival
	// order (the program's feasibility baseline). Allocations live in a
	// reused value slice; pointers into it are taken only after it stops
	// growing.
	allocs := s.allocs[:0]
	budget := ctx.FreeMachines()
	for _, j := range psi {
		if budget == 0 {
			break
		}
		for _, p := range []job.Phase{job.PhaseMap, job.PhaseReduce} {
			if p == job.PhaseReduce && !j.MapPhaseDone() {
				break
			}
			stats := j.PhaseStats(p)
			s.tasks = j.AppendUnscheduled(s.tasks[:0], p)
			for _, t := range s.tasks {
				if budget == 0 {
					break
				}
				allocs = append(allocs, allocation{
					j: j, t: t, we: j.Spec.Weight * stats.Mean, copies: 1,
				})
				budget--
			}
		}
	}
	s.allocs = allocs

	// Phase B: water-fill the remaining budget by marginal weighted gain.
	s.waterFill(allocs, budget)

	// Launch every allocation.
	for i := range allocs {
		a := &allocs[i]
		n := a.copies
		if n > ctx.FreeMachines() {
			n = ctx.FreeMachines()
		}
		if n == 0 {
			return
		}
		if _, err := ctx.Launch(a.j, a.t, n, false); err != nil {
			return
		}
	}
}
