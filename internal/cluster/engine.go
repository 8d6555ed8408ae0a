// Package cluster implements the time-slotted MapReduce cluster simulator of
// Section III of Xu & Lau (ICDCS 2015): M identical unit-speed machines, one
// task copy per machine per slot, Map→Reduce precedence within each job, and
// task cloning where a task completes as soon as its earliest copy does.
//
// Cloning speedup is emergent: every copy draws an independent workload from
// the task's duration distribution and the task takes the minimum, exactly as
// in the paper's trace-driven evaluation ("the workload for this clone is
// just drawn independently from the estimated distribution").
//
// # Execution loops
//
// Production runs use one loop, the event loop, over a calendar of copy
// completions (a timing wheel with a heap for far completions; see
// calendar) plus an arrival cursor. It advances directly
// from one slot that matters to the next and accounts the slots in between
// in bulk, so quiet stretches cost O(1) regardless of length. Which slots
// matter depends on the scheduler:
//
//   - An EventDriven scheduler is invoked only on slots where some alive job
//     has unscheduled work it may launch, or where a wake-up it armed with
//     Context.WakeAt is due. A Speculator — an EventDriven scheduler that
//     backs up running tasks, such as Mantri or LATE — is also invoked on
//     every slot where an arrival or a completion fired.
//   - Any other scheduler is invoked on every slot with a free machine and
//     an alive job; only slots on which it could not be invoked are skipped.
//
// The naive slot-by-slot loop (Config.Loop = LoopNaive) invokes every
// scheduler on every slot with a free machine and an alive job. It is the
// reference the event loop must match: the equivalence harness in
// equivalence_test.go requires identical Results from both loops for every
// registered scheduler.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"mrclone/internal/job"
	"mrclone/internal/rng"
)

// Scheduler is invoked once per time slot to assign free machines to task
// copies. Implementations live in internal/sched/...
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Schedule may call ctx.Launch until ctx.FreeMachines() reaches zero.
	Schedule(ctx *Context)
}

// EventDriven marks schedulers that can run on the event calendar. The
// event loop invokes an EventDriven scheduler only on slots where
//
//   - some alive job has an unscheduled task it may launch (see
//     GatedLauncher for gated reduces),
//   - a wake-up it armed with Context.WakeAt is due, or
//   - for a Speculator, an arrival or a completion fired.
//
// Implementations promise that an invocation on any other slot would be
// unobservable: it would launch nothing, draw nothing from ctx.Rand(), and
// leave the scheduler's own state such that every later decision is the
// same as if it had not been invoked. Invocations on extra slots must be
// harmless in the same way, because the naive reference loop invokes the
// scheduler on every slot with a free machine.
//
// A scheduler whose launches depend on the passage of time — a polling
// cadence keyed on Now(), a progress-age threshold, a progress rate crossing
// a phase mean — arms a wake-up for the earliest slot at which it might act
// without an event. Waking early is always safe; waking late changes
// results, which the equivalence harness catches.
type EventDriven interface {
	// EventDriven reports whether event-calendar execution is safe.
	EventDriven() bool
}

// Speculator marks EventDriven schedulers that may launch copies of
// running tasks (speculative backups). Whether a backup is warranted depends
// on the running tasks' progress, which every completion changes, so the
// event loop also invokes a Speculator on every slot where an arrival or a
// completion fired.
type Speculator interface {
	// LaunchesBackups reports whether Schedule may back up running tasks.
	LaunchesBackups() bool
}

// RunStarter is implemented by schedulers that keep state across Schedule
// calls of one run, such as watch lists or armed wake-ups. The engine calls
// StartRun once at the start of every Run, before the first Schedule call,
// so one instance can serve successive runs. Such an instance still must
// not be shared by concurrently running engines.
type RunStarter interface {
	StartRun()
}

// GatedLauncher marks schedulers that may launch gated reduce copies —
// copies of reduce tasks whose job's map phase has not completed (the
// paper's constraint 1g, used by the offline Algorithm 1). The event loop
// counts unscheduled reduce tasks behind a closed map gate as launchable
// work only for schedulers implementing this interface; all others are
// skipped while only gated work remains.
type GatedLauncher interface {
	// LaunchesGatedCopies reports whether Schedule may gate-launch reduces.
	LaunchesGatedCopies() bool
}

// LoopMode selects the engine's execution loop.
type LoopMode int

const (
	// LoopAuto (the default) runs the event loop.
	LoopAuto LoopMode = iota
	// LoopNaive runs the naive slot-by-slot reference loop, which invokes
	// the scheduler on every slot with a free machine and an alive job.
	// Used by the equivalence tests and the benchmark gate's speedup ratio.
	LoopNaive
)

// String implements fmt.Stringer.
func (m LoopMode) String() string {
	switch m {
	case LoopAuto:
		return "auto"
	case LoopNaive:
		return "naive"
	default:
		return fmt.Sprintf("LoopMode(%d)", int(m))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Machines is M, the number of machines in the cluster. Required > 0.
	Machines int
	// Speed is the machine speed for resource-augmentation experiments
	// (Definition 1). A copy with workload p takes ceil(p/Speed) slots.
	// Zero means 1.0 (unit speed).
	Speed float64
	// MaxSlots aborts a run that exceeds this many slots (safety net against
	// scheduler starvation bugs). Zero means a generous default.
	MaxSlots int64
	// Seed drives all stochastic choices (copy workloads, scheduler
	// tie-breaking). Runs with equal seeds and schedulers are identical.
	Seed int64
	// Loop selects the execution loop; LoopAuto is correct for production
	// runs. LoopNaive exists so tests and validation runs can compare the
	// event loop against the reference.
	Loop LoopMode
}

const defaultMaxSlots = 50_000_000

// maxMaxSlots bounds Config.MaxSlots so slot arithmetic (finish = slot +
// duration, with duration clamped to MaxSlots+1) cannot overflow int64.
const maxMaxSlots = int64(1) << 61

// Errors reported by the engine.
var (
	ErrNoMachines   = errors.New("cluster: config needs at least one machine")
	ErrNoScheduler  = errors.New("cluster: nil scheduler")
	ErrSlotOverflow = errors.New("cluster: exceeded MaxSlots without finishing all jobs")
	ErrNoFreeSlots  = errors.New("cluster: launch exceeds free machines")
	ErrGateViolated = errors.New("cluster: reduce copy launched before map phase done without gating")
	// ErrNonFiniteWorkload reports a duration distribution that produced a
	// NaN or infinite sample. Converting such a value to slots would be
	// platform-defined (out-of-range float→int conversion), so the engine
	// fails the run instead of guessing.
	ErrNonFiniteWorkload = errors.New("cluster: duration distribution produced a non-finite workload")
)

// copyRecord is one running (or gated) copy of a task occupying a machine.
// It is a pointer-free value stored inside its taskRun's copies slice (the
// owning task and job live on the taskRun), so the copy arena is invisible
// to the garbage collector's scan and write-barrier machinery.
type copyRecord struct {
	seq      int64 // launch sequence, for deterministic ordering
	workload float64
	finish   int64 // completion slot; -1 while gated
	started  int64 // slot at which the countdown began (-1 while gated)
	launched int64 // slot at which the copy occupied its machine
	gated    bool  // waiting for the owner's map phase to finish
}

// gatedRef locates one gated copy awaiting its job's map gate: the copy at
// tr.copies[idx]. Indices stay valid across copies-slice growth, unlike
// element pointers.
type gatedRef struct {
	tr  *taskRun
	idx int32
}

// JobRecord is the per-job outcome of a run.
type JobRecord struct {
	ID          int
	Weight      float64
	Arrival     int64
	Finish      int64
	Flowtime    int64
	Tasks       int
	TotalCopies int // copies ever launched, including clones
}

// Result summarizes a completed simulation.
type Result struct {
	Scheduler     string
	Machines      int
	Speed         float64
	Slots         int64 // slot at which the last job finished (0 if no jobs)
	Jobs          []JobRecord
	TotalCopies   int64 // all copies launched
	CloneCopies   int64 // copies beyond the first per task
	MachineSlots  int64 // busy machine-slots consumed (occupancy integral)
	ArrivedJobs   int
	FinishedJobs  int
	WastedCopyWrk float64 // workload of killed copies (cloning overhead)
}

// Engine runs one simulation. It works in memory recycled from earlier
// runs and recycles it in turn, so an Engine is good for one Run call (see
// Run); build a new one per simulation.
type Engine struct {
	cfg           Config
	sched         Scheduler
	eventDriven   bool // sched implements EventDriven and opted in
	speculative   bool // sched implements Speculator and opted in
	gatedLaunches bool // sched implements GatedLauncher and opted in

	slot    int64
	free    int
	seq     int64
	arrived int

	// workspace holds the run's recycled memory: sorted specs, job and task
	// slabs, alive set, calendar and scratch. Run releases it for reuse and
	// clears this field.
	*workspace
	nextPending int // cursor into pending: first spec not yet admitted
	nextTask    int // first task record of the slab not yet materialized
	aliveCount  int

	// Launchable-work counters: unscheduled tasks across alive jobs, split
	// by what the gate allows. The event loop skips scheduler invocations
	// while every counter relevant to the scheduler is zero — by the
	// EventDriven contract such an invocation could neither launch nor draw
	// randomness.
	unschedMap   int // unscheduled map tasks
	unschedOpen  int // unscheduled reduce tasks with the map gate open
	unschedGated int // unscheduled reduce tasks behind a closed map gate

	// wake is the earliest slot at which the scheduler asked to be invoked
	// through Context.WakeAt (noWake when none). Each invocation clears it;
	// a wake-up that falls due while the scheduler cannot be invoked (no
	// free machine or no alive job) stays due until it is.
	wake int64

	durations *rng.Source // stream for copy workload sampling
	schedRand *rng.Source // stream handed to the scheduler
	randUsed  bool        // scheduler touched schedRand this slot

	ctx Context // reused scheduler view (avoids a per-slot allocation)
	err error   // first fatal error raised inside a scheduler callback

	busy         int64
	totalCopies  int64
	cloneCopies  int64
	wastedWrk    float64
	finishedJobs int
	lastFinish   int64 // slot of the latest job completion
}

// New prepares an engine over the given job specs. Specs are copied and
// sorted by arrival time; they must each validate. The engine takes its
// working memory from a free list shared by all engines and releases it
// when Run finishes; an engine that is never run leaves its memory to the
// garbage collector.
func New(cfg Config, sched Scheduler, specs []job.Spec) (*Engine, error) {
	if cfg.Machines <= 0 {
		return nil, ErrNoMachines
	}
	if sched == nil {
		return nil, ErrNoScheduler
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if cfg.Speed < 0 || math.IsNaN(cfg.Speed) {
		return nil, fmt.Errorf("cluster: invalid speed %v", cfg.Speed)
	}
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = defaultMaxSlots
	}
	if cfg.MaxSlots < 0 || cfg.MaxSlots > maxMaxSlots {
		return nil, fmt.Errorf("cluster: MaxSlots %d outside (0, 2^61]", cfg.MaxSlots)
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	root := rng.New(cfg.Seed)
	ed, _ := sched.(EventDriven)
	sp, _ := sched.(Speculator)
	gl, _ := sched.(GatedLauncher)
	e := &Engine{
		cfg:           cfg,
		sched:         sched,
		eventDriven:   ed != nil && ed.EventDriven(),
		gatedLaunches: gl != nil && gl.LaunchesGatedCopies(),
		wake:          noWake,
		free:          cfg.Machines,
		workspace:     acquireWorkspace(specs),
		durations:     root.Split("durations"),
		schedRand:     root.Split("scheduler"),
	}
	e.speculative = e.eventDriven && sp != nil && sp.LaunchesBackups()
	e.ctx = Context{engine: e}
	return e, nil
}

// noWake is the wake field's "no wake-up armed" value.
const noWake = math.MaxInt64

// Run executes the simulation to completion and returns the result. The
// execution loop is selected by Config.Loop (see the package comment); both
// loops produce the identical Result for a given scheduler, seed, and spec
// set.
//
// Run may be called once: when it returns, on success or error, the
// engine's job, task and calendar memory goes back to a free list that
// later engines draw from, and every *job.Job and *job.Task the run handed out
// becomes invalid. A second call returns an error. The returned Result
// holds only values and stays valid.
func (e *Engine) Run() (*Result, error) {
	if e.workspace == nil {
		return nil, errRunTwice
	}
	res, err := e.run()
	e.release()
	return res, err
}

// run executes the configured loop.
func (e *Engine) run() (*Result, error) {
	if rs, ok := e.sched.(RunStarter); ok {
		rs.StartRun()
	}
	if e.cfg.Loop == LoopNaive {
		return e.runNaive()
	}
	return e.runEvents()
}

// release hands the engine's workspace back to the free list. It is not
// deferred in Run: a run a scheduler panicked out of may have left the
// workspace half-updated, so it is dropped rather than reused.
func (e *Engine) release() {
	e.workspace.release(e.arrived, e.nextTask)
	e.workspace = nil
}

// errRunTwice reports a second Run call on one engine.
var errRunTwice = errors.New("cluster: Run called twice on one engine")

// runEvents is the discrete-event loop: the calendar of copy completions,
// the arrival cursor and the scheduler's wake-up define the only slots at
// which anything can happen, and the scheduler is invoked only on slots
// where it might act (see invocationDue). All intervening slots are
// accounted in bulk.
func (e *Engine) runEvents() (*Result, error) {
	total := len(e.pending)
	for e.finishedJobs < total {
		if e.slot > e.cfg.MaxSlots {
			return nil, fmt.Errorf("%w: slot %d, %d/%d jobs finished",
				ErrSlotOverflow, e.slot, e.finishedJobs, total)
		}
		e.cal.advance(e.slot)
		fired := e.admitArrivals()
		if e.processCompletions() {
			fired = true
		}
		quiet := true
		if e.free > 0 && e.aliveCount > 0 && e.invocationDue(fired) {
			launchedBefore := e.totalCopies
			e.randUsed = false
			e.wake = noWake
			e.sched.Schedule(&e.ctx)
			if e.err != nil {
				return nil, e.err
			}
			quiet = e.eventDriven && e.totalCopies == launchedBefore && !e.randUsed
		}
		e.busy += int64(e.cfg.Machines - e.free)
		next := e.slot + 1
		if e.finishedJobs < total && quiet {
			if t, ok := e.nextEventSlot(); !ok {
				// No future arrival, completion or wake-up can ever occur
				// while jobs remain unfinished: the run is starved (for
				// example, only gated copies are left). Jump past MaxSlots
				// so the overflow guard reports it immediately.
				next = e.cfg.MaxSlots + 1
			} else if t > next {
				// Slots next..t-1 are eventless; account their occupancy in
				// bulk (the busy level cannot change between events) and
				// land exactly on the next event.
				e.busy += int64(e.cfg.Machines-e.free) * (t - next)
				next = t
			}
		}
		e.slot = next
	}
	return e.result(), nil
}

// invocationDue reports whether the event loop must invoke the scheduler on
// the current slot, given a free machine and an alive job; fired reports
// whether an arrival or a completion happened on it. Schedulers that are not
// EventDriven are invoked on every such slot.
func (e *Engine) invocationDue(fired bool) bool {
	if !e.eventDriven || e.wake <= e.slot {
		return true
	}
	return e.launchableWork() || (fired && e.speculative)
}

// launchableWork reports whether any alive job has an unscheduled task the
// scheduler is permitted to launch right now.
func (e *Engine) launchableWork() bool {
	return e.unschedMap > 0 || e.unschedOpen > 0 ||
		(e.gatedLaunches && e.unschedGated > 0)
}

// runNaive is the reference loop: it steps every slot and invokes the
// scheduler whenever a machine is free and a job is alive. Wake-ups are
// ignored — the scheduler sees every slot anyway.
func (e *Engine) runNaive() (*Result, error) {
	total := len(e.pending)
	for e.finishedJobs < total {
		if e.slot > e.cfg.MaxSlots {
			return nil, fmt.Errorf("%w: slot %d, %d/%d jobs finished",
				ErrSlotOverflow, e.slot, e.finishedJobs, total)
		}
		e.cal.advance(e.slot)
		e.admitArrivals()
		e.processCompletions()
		if e.free > 0 && e.aliveCount > 0 {
			e.sched.Schedule(&e.ctx)
			if e.err != nil {
				return nil, e.err
			}
		}
		e.busy += int64(e.cfg.Machines - e.free)
		e.slot++
	}
	return e.result(), nil
}

// nextEventSlot returns the earliest future slot at which the event loop
// may have to act: the next pending arrival, the next live copy completion,
// or the scheduler's wake-up if it lies in the future (a wake-up already due
// waits for an event that frees a machine or admits a job). ok is false
// when none exists.
func (e *Engine) nextEventSlot() (int64, bool) {
	t, ok := int64(0), false
	if e.wake > e.slot && e.wake != noWake {
		t, ok = e.wake, true
	}
	if e.nextPending < len(e.pending) {
		if a := e.pending[e.nextPending].Arrival; !ok || a < t {
			t, ok = a, true
		}
	}
	if tr := e.cal.peek(); tr != nil {
		if f := tr.bestFinish; !ok || f < t {
			t, ok = f, true
		}
	}
	return t, ok
}

// admitArrivals materializes jobs whose arrival slot has come and reports
// whether any arrived. The cursor walk keeps per-arrival work O(1) without
// re-slicing pending (which would pin the backing array's head while
// shifting the window one spec at a time).
func (e *Engine) admitArrivals() bool {
	start := e.nextPending
	for e.nextPending < len(e.pending) && e.pending[e.nextPending].Arrival <= e.slot {
		spec := e.pending[e.nextPending]
		e.nextPending++
		j := &e.jobs[e.arrived]
		lo, hi := e.nextTask, e.nextTask+spec.TotalTasks()
		if err := job.Init(j, spec, e.tasks[lo:hi:hi], e.ptrs[3*lo:3*hi:3*hi]); err != nil {
			// Specs were validated in New; this is unreachable in practice.
			panic(fmt.Sprintf("cluster: invalid spec slipped through: %v", err))
		}
		e.nextTask = hi
		e.alivePos[j] = len(e.alive)
		e.alive = append(e.alive, j)
		e.aliveCount++
		e.arrived++
		e.unschedMap += spec.MapTasks
		if j.MapPhaseDone() { // no map tasks: the reduce gate starts open
			e.unschedOpen += spec.ReduceTask
		} else {
			e.unschedGated += spec.ReduceTask
		}
	}
	return e.nextPending != start
}

// processCompletions completes every task whose earliest copy finishes at
// the current slot, in deterministic (finish, seq) order of those copies,
// and reports whether any did.
func (e *Engine) processCompletions() bool {
	done := false
	for {
		tr := e.cal.peek()
		if tr == nil || tr.bestFinish > e.slot {
			return done
		}
		e.cal.pop()
		e.completeTask(tr)
		done = true
	}
}

// completeTask finishes tr's task at the current slot: the best copy wins,
// sibling copies are killed (their remaining workload is wasted cloning
// overhead), machines are freed, reduce gates open, finished jobs retire.
func (e *Engine) completeTask(tr *taskRun) {
	winner := int(tr.best)
	t := tr.task
	owner := tr.owner
	for i := range tr.copies {
		owner.MarkCopyStopped(t)
		e.free++
		if i == winner {
			continue
		}
		c := &tr.copies[i]
		if c.started >= 0 {
			done := float64(e.slot-c.started) * e.cfg.Speed
			if rem := c.workload - done; rem > 0 {
				e.wastedWrk += rem
			}
		} else {
			e.wastedWrk += c.workload
		}
	}
	t.Runtime = nil
	e.releaseRun(tr)
	owner.MarkDone(t, e.slot)

	if t.ID.Phase == job.PhaseMap && owner.MapPhaseDone() {
		// The map gate just opened: pending unscheduled reduces become
		// launchable and already-launched gated copies start their countdown.
		n := owner.Unscheduled(job.PhaseReduce)
		e.unschedGated -= n
		e.unschedOpen += n
		e.openGate(owner)
	}
	if owner.Done() {
		e.retireJob(owner)
	}
}

// openGate starts the countdown of any gated reduce copies of j, in launch
// order.
func (e *Engine) openGate(j *job.Job) {
	gated, ok := e.gatedJobs[j]
	if !ok {
		return
	}
	for _, g := range gated {
		c := &g.tr.copies[g.idx]
		c.gated = false
		c.started = e.slot
		c.finish = e.slot + e.durationSlots(c.workload)
		e.activate(g.tr, int(g.idx))
	}
	delete(e.gatedJobs, j)
}

// activate enters the active copy tr.copies[idx] into the calendar: it
// becomes its task's best copy if it finishes before the current one (ties
// by launch sequence), pushing the task when this is its first active copy.
func (e *Engine) activate(tr *taskRun, idx int) {
	c := &tr.copies[idx]
	switch {
	case tr.best < 0:
		tr.best, tr.bestFinish, tr.bestSeq = int32(idx), c.finish, c.seq
		e.cal.push(tr)
	case c.finish < tr.bestFinish || (c.finish == tr.bestFinish && c.seq < tr.bestSeq):
		tr.best = int32(idx)
		e.cal.decrease(tr, c.finish, c.seq)
	}
}

// retireJob removes a finished job from the alive set in amortized O(1):
// the job's slot (found via alivePos) becomes a nil hole, and the slice is
// compacted — preserving arrival order — once holes outnumber live jobs.
func (e *Engine) retireJob(j *job.Job) {
	if i, ok := e.alivePos[j]; ok {
		e.alive[i] = nil
		delete(e.alivePos, j)
		e.aliveCount--
		if len(e.alive) >= 32 && e.aliveCount*2 < len(e.alive) {
			e.compactAlive()
		}
	}
	e.finishedJobs++
	e.lastFinish = e.slot
}

// compactAlive rewrites alive without holes and refreshes alivePos.
func (e *Engine) compactAlive() {
	live := e.alive[:0]
	for _, a := range e.alive {
		if a != nil {
			e.alivePos[a] = len(live)
			live = append(live, a)
		}
	}
	for i := len(live); i < len(e.alive); i++ {
		e.alive[i] = nil // release references past the new length
	}
	e.alive = live
}

// durationSlots converts a finite workload into occupied slots at the
// configured machine speed. Every copy takes at least one slot; durations
// beyond the MaxSlots horizon are clamped to MaxSlots+1, which cannot
// complete within any legal run and therefore trips the overflow guard
// instead of overflowing int64 slot arithmetic.
func (e *Engine) durationSlots(workload float64) int64 {
	f := math.Ceil(workload / e.cfg.Speed)
	if f < 1 {
		return 1
	}
	if f > float64(e.cfg.MaxSlots) {
		return e.cfg.MaxSlots + 1
	}
	return int64(f)
}

// launch starts n copies of task t owned by j. Reduce copies launched before
// the owner's map phase completes must set gated; they occupy machines
// immediately but progress only after the gate opens (constraint 1g).
//
// A launch refused for a full cluster, a closed gate or a finished task
// draws nothing. Otherwise the n workloads are drawn in one batched call —
// bit-identical to n successive Sample calls on the same stream — and
// validated before any engine state changes; a non-finite sample fails the
// run with ErrNonFiniteWorkload.
func (e *Engine) launch(j *job.Job, t *job.Task, n int, gated bool) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if n > e.free {
		return 0, fmt.Errorf("%w: want %d, free %d", ErrNoFreeSlots, n, e.free)
	}
	if t.ID.Phase == job.PhaseReduce && !j.MapPhaseDone() && !gated {
		return 0, ErrGateViolated
	}
	if t.State == job.TaskDone {
		// Refused before sampling, so the rejected call draws nothing.
		return 0, fmt.Errorf("cluster: launching copy of finished task %v", t.ID)
	}
	if t.ID.Phase == job.PhaseMap {
		gated = false // map tasks are never gated
	}
	if gated && j.MapPhaseDone() {
		gated = false // gate already open
	}
	if cap(e.sampleBuf) < n {
		e.sampleBuf = make([]float64, n+16)
	}
	buf := e.sampleBuf[:n]
	sampleInto(e.taskDist(j, t), buf, e.durations)
	for _, w := range buf {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, e.fail(fmt.Errorf("%w: task %v sampled %v", ErrNonFiniteWorkload, t.ID, w))
		}
	}
	wasUnscheduled := t.State == job.TaskUnscheduled
	launched := 0
	for i := 0; i < n; i++ {
		if err := j.MarkLaunched(t, e.slot); err != nil {
			return launched, err
		}
		tr, _ := t.Runtime.(*taskRun)
		if tr == nil {
			tr = e.newRun()
			tr.task, tr.owner = t, j
			t.Runtime = tr
		}
		idx := len(tr.copies)
		tr.copies = append(tr.copies, copyRecord{
			seq:      e.seq,
			workload: buf[i],
			launched: e.slot,
			started:  -1,
			finish:   -1,
			gated:    gated,
		})
		e.seq++
		e.free--
		e.totalCopies++
		if t.TotalCopies > 1 {
			e.cloneCopies++
		}
		if gated {
			e.gatedJobs[j] = append(e.gatedJobs[j], gatedRef{tr: tr, idx: int32(idx)})
		} else {
			c := &tr.copies[idx]
			c.started = e.slot
			c.finish = e.slot + e.durationSlots(c.workload)
			e.activate(tr, idx)
		}
		launched++
	}
	if wasUnscheduled && launched > 0 {
		switch {
		case t.ID.Phase == job.PhaseMap:
			e.unschedMap--
		case j.MapPhaseDone():
			e.unschedOpen--
		default:
			e.unschedGated--
		}
	}
	return launched, nil
}

// fail records the first fatal engine error so Run can surface it even when
// the scheduler swallows the Launch error, and returns err for the caller.
func (e *Engine) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return err
}

// taskDist returns the ground-truth duration distribution for t.
func (e *Engine) taskDist(j *job.Job, t *job.Task) distSampler {
	if t.ID.Phase == job.PhaseMap {
		return j.Spec.MapDist
	}
	return j.Spec.ReduceDist
}

// distSampler is the subset of dist.Distribution the engine needs.
type distSampler interface {
	Sample(*rng.Source) float64
}

// batchSampler matches dist.BatchSampler without importing the package.
type batchSampler interface {
	SampleN(dst []float64, src *rng.Source)
}

// sampleInto fills dst with successive draws from d, using the batched path
// when the distribution provides one.
func sampleInto(d distSampler, dst []float64, src *rng.Source) {
	if b, ok := d.(batchSampler); ok {
		b.SampleN(dst, src)
		return
	}
	for i := range dst {
		dst[i] = d.Sample(src)
	}
}

// result builds the final Result.
func (e *Engine) result() *Result {
	res := &Result{
		Scheduler:     e.sched.Name(),
		Machines:      e.cfg.Machines,
		Speed:         e.cfg.Speed,
		Slots:         e.lastFinish,
		Jobs:          make([]JobRecord, 0, e.arrived),
		TotalCopies:   e.totalCopies,
		CloneCopies:   e.cloneCopies,
		MachineSlots:  e.busy,
		ArrivedJobs:   e.arrived,
		FinishedJobs:  e.finishedJobs,
		WastedCopyWrk: e.wastedWrk,
	}
	for i := range e.jobs[:e.arrived] {
		j := &e.jobs[i]
		var copies int
		for _, t := range j.Tasks {
			copies += t.TotalCopies
		}
		res.Jobs = append(res.Jobs, JobRecord{
			ID:          j.Spec.ID,
			Weight:      j.Spec.Weight,
			Arrival:     j.Spec.Arrival,
			Finish:      j.FinishSlot,
			Flowtime:    j.Flowtime(),
			Tasks:       j.Spec.TotalTasks(),
			TotalCopies: copies,
		})
	}
	return res
}
