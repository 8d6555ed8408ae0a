package cluster

import (
	"cmp"
	"slices"
	"sync"
	"weak"

	"mrclone/internal/job"
)

// workspace is the memory one engine run works in: the job and task slabs
// every job of the trace is materialized into, the calendar, the task-run
// free list, the alive set and the scheduler scratch. An engine takes one
// from the workspaces free list in New and releases it, cleared, when Run
// finishes, so a runner worker simulating cell after cell reuses the same
// slabs instead of handing the garbage collector a fresh trace's worth of
// records per cell.
type workspace struct {
	pending []job.Spec  // specs sorted by arrival; consumed via nextPending
	jobs    []job.Job   // one record per spec, in arrival order
	tasks   []job.Task  // task records, carved per job in arrival order
	ptrs    []*job.Task // three task pointers per task record (job.Init)

	// alive holds arrived-and-unfinished jobs in arrival order. Retired jobs
	// leave nil holes (O(1) removal via alivePos); the slice is compacted
	// once holes outnumber live entries, so per-retire cost is amortized
	// O(1) while iteration order stays arrival order.
	alive    []*job.Job
	alivePos map[*job.Job]int // index of each live job within alive

	cal       calendar
	gatedJobs map[*job.Job][]gatedRef // gated reduce copies per job

	// Scratch and pooling for the hot paths: the AliveJobs backing array,
	// the batched workload-sample buffer, and a freelist of task-run records
	// (each carrying its grown copies backing) to keep the per-launch path
	// allocation-free in steady state.
	aliveScratch []*job.Job
	sampleBuf    []float64
	runFree      []*taskRun
}

// workspaces is the free list of the workspaces of finished runs, taken
// most recently released first. It holds the most recent one strongly, so
// a process running one simulation after another never reallocates, and
// the others weakly: a garbage collection drops every one of those idle at
// the time, so a burst of concurrent runs does not pin its memory for good,
// while between collections any engine on any goroutine reuses any of
// them. (A sync.Pool misses whenever a runner worker resumes on another
// processor than the one it put its workspace back on; on two processors
// that made a fifth to a half of the engine and runner benchmarks'
// measurements allocate fresh workspaces.) A listed workspace is always
// clear: it holds no job, spec or live task run.
var workspaces struct {
	sync.Mutex
	last  *workspace                // most recently released, or nil
	older []weak.Pointer[workspace] // released before last, most recent last
}

// acquireWorkspace takes a clear workspace from the free list, or makes
// one, and sizes it for specs: a copy sorted by arrival, plus one job
// record per spec and the task slabs for all of their tasks. Slabs grow
// only when the trace needs more room than the workspace's last run did.
func acquireWorkspace(specs []job.Spec) *workspace {
	w := takeIdle()
	if w == nil {
		w = &workspace{
			alivePos:  make(map[*job.Job]int),
			gatedJobs: make(map[*job.Job][]gatedRef),
		}
	}
	w.pending = append(w.pending[:0], specs...)
	sortByArrival(w.pending)
	tasks := 0
	for i := range specs {
		tasks += specs[i].TotalTasks()
	}
	w.jobs = resize(w.jobs, len(specs))
	w.tasks = resize(w.tasks, tasks)
	w.ptrs = resize(w.ptrs, 3*tasks)
	return w
}

// takeIdle pops the most recently released workspace still alive, or
// returns nil.
func takeIdle() *workspace {
	workspaces.Lock()
	defer workspaces.Unlock()
	if w := workspaces.last; w != nil {
		workspaces.last = nil
		return w
	}
	for n := len(workspaces.older); n > 0; n-- {
		w := workspaces.older[n-1].Value()
		workspaces.older = workspaces.older[:n-1]
		if w != nil {
			return w
		}
	}
	return nil
}

// sortByArrival sorts specs by arrival slot, keeping the given order among
// equal arrivals.
func sortByArrival(specs []job.Spec) {
	slices.SortStableFunc(specs, func(a, b job.Spec) int {
		return cmp.Compare(a.Arrival, b.Arrival)
	})
}

// resize returns s with length n, reallocating only when its capacity is
// short. Kept elements are stale; the caller overwrites them before use.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release clears everything a run put into w, whether it finished or
// failed, and lists w as idle. jobs and tasks are the numbers of job and
// task records the run materialized.
func (w *workspace) release(jobs, tasks int) {
	if w.cal.size() > 0 || len(w.gatedJobs) > 0 {
		// The run stopped with copies live: recycle their task runs.
		for i := range w.tasks[:tasks] {
			t := &w.tasks[i]
			if tr, ok := t.Runtime.(*taskRun); ok {
				w.releaseRun(tr)
				t.Runtime = nil
			}
		}
	}
	w.cal.reset()
	clear(w.gatedJobs)
	clear(w.alivePos)
	clear(w.alive)
	w.alive = w.alive[:0]
	clear(w.aliveScratch[:cap(w.aliveScratch)])
	// Job records and specs refer to the trace's distributions; the task
	// slabs refer only into the workspace itself and are overwritten by
	// job.Init before their next use.
	clear(w.jobs[:jobs])
	clear(w.pending)
	w.pending = w.pending[:0]
	workspaces.Lock()
	if workspaces.last != nil {
		workspaces.older = append(workspaces.older, weak.Make(workspaces.last))
	}
	workspaces.last = w
	workspaces.Unlock()
}

// newRun returns a recycled or fresh task-run record. Fresh records start
// with room for a handful of copies so the common clone counts never grow
// the slice (recycled records keep their grown backing).
func (w *workspace) newRun() *taskRun {
	if k := len(w.runFree) - 1; k >= 0 {
		tr := w.runFree[k]
		w.runFree[k] = nil
		w.runFree = w.runFree[:k]
		return tr
	}
	return &taskRun{pos: -1, best: -1, copies: make([]copyRecord, 0, 8)}
}

// releaseRun recycles a task's run record, keeping its grown copies backing
// (the elements are pointer-free, so truncating retains nothing the
// collector cares about).
func (w *workspace) releaseRun(tr *taskRun) {
	tr.copies = tr.copies[:0]
	tr.task, tr.owner = nil, nil
	tr.next, tr.prev = nil, nil
	tr.best = -1
	tr.pos = -1
	w.runFree = append(w.runFree, tr)
}
