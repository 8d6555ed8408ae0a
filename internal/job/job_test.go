package job

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"mrclone/internal/dist"
)

func detDist(t *testing.T, v float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewDeterministic(v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func validSpec(t *testing.T) Spec {
	t.Helper()
	return Spec{
		ID:         1,
		Arrival:    0,
		Weight:     2,
		MapTasks:   3,
		ReduceTask: 2,
		MapDist:    detDist(t, 10),
		ReduceDist: detDist(t, 20),
	}
}

func TestSpecValidate(t *testing.T) {
	base := validSpec(t)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero weight", func(s *Spec) { s.Weight = 0 }},
		{"negative weight", func(s *Spec) { s.Weight = -1 }},
		{"negative map tasks", func(s *Spec) { s.MapTasks = -1 }},
		{"negative reduce tasks", func(s *Spec) { s.ReduceTask = -2 }},
		{"no tasks", func(s *Spec) { s.MapTasks, s.ReduceTask = 0, 0 }},
		{"map tasks without dist", func(s *Spec) { s.MapDist = nil }},
		{"reduce tasks without dist", func(s *Spec) { s.ReduceDist = nil }},
		{"negative arrival", func(s *Spec) { s.Arrival = -5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec(t)
			tc.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("want ErrBadSpec, got %v", err)
			}
		})
	}
}

func TestMapOnlyJobIsValid(t *testing.T) {
	s := validSpec(t)
	s.ReduceTask = 0
	s.ReduceDist = nil
	if err := s.Validate(); err != nil {
		t.Fatalf("map-only job rejected: %v", err)
	}
	j, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Spec.PhaseStats(PhaseReduce); got != (Stats{}) {
		t.Errorf("empty reduce phase stats = %+v, want zero", got)
	}
}

func TestEffectiveWorkload(t *testing.T) {
	// phi = m*(Em + r*sm) + ri*(Er + r*sr); deterministic dists have s=0.
	s := validSpec(t)
	if got, want := s.EffectiveWorkload(5), 3.0*10+2.0*20; got != want {
		t.Errorf("EffectiveWorkload = %v, want %v", got, want)
	}
	// With a nonzero-variance distribution the deviation factor matters.
	u, err := dist.NewUniform(0, 20) // mean 10, sd 20/sqrt(12)
	if err != nil {
		t.Fatal(err)
	}
	s.MapDist = u
	sd := 20 / math.Sqrt(12)
	want := 3*(10+2*sd) + 2*20
	if got := s.EffectiveWorkload(2); math.Abs(got-want) > 1e-9 {
		t.Errorf("EffectiveWorkload = %v, want %v", got, want)
	}
}

func TestLifecycle(t *testing.T) {
	j, err := New(validSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Unscheduled(PhaseMap); got != 3 {
		t.Fatalf("initial unscheduled map = %d", got)
	}
	if j.MapPhaseDone() || j.Done() {
		t.Fatal("fresh job reports phases done")
	}

	mt := j.Task(TaskID{Job: 1, Phase: PhaseMap, Index: 0})
	if mt == nil {
		t.Fatal("map task 0 missing")
	}
	if err := j.MarkLaunched(mt, 5); err != nil {
		t.Fatal(err)
	}
	if mt.State != TaskRunning || mt.LaunchSlot != 5 || mt.Copies != 1 {
		t.Fatalf("after launch: %+v", mt)
	}
	if got := j.Unscheduled(PhaseMap); got != 2 {
		t.Fatalf("unscheduled map after launch = %d", got)
	}
	// Second copy of the same task does not change the unscheduled count.
	if err := j.MarkLaunched(mt, 6); err != nil {
		t.Fatal(err)
	}
	if got := j.Unscheduled(PhaseMap); got != 2 {
		t.Fatalf("unscheduled map after clone = %d", got)
	}
	if mt.Copies != 2 || j.RunningCopies != 2 {
		t.Fatalf("copies=%d running=%d, want 2/2", mt.Copies, j.RunningCopies)
	}

	j.MarkCopyStopped(mt)
	j.MarkDone(mt, 30)
	j.MarkCopyStopped(mt)
	if mt.State != TaskDone || mt.FinishSlot != 30 {
		t.Fatalf("after done: %+v", mt)
	}
	if j.RunningCopies != 0 {
		t.Fatalf("running copies = %d, want 0", j.RunningCopies)
	}
	if err := j.MarkLaunched(mt, 31); err == nil {
		t.Fatal("launching a finished task should error")
	}

	// Finish everything; job completion and flowtime.
	for _, task := range j.Tasks {
		if task.State != TaskDone {
			if err := j.MarkLaunched(task, 40); err != nil {
				t.Fatal(err)
			}
			j.MarkCopyStopped(task)
			j.MarkDone(task, 50)
		}
	}
	if !j.MapPhaseDone() || !j.Done() {
		t.Fatal("job should be done")
	}
	if got := j.FinishSlot; got != 50 {
		t.Fatalf("finish slot = %d, want 50", got)
	}
	if got := j.Flowtime(); got != 50 {
		t.Fatalf("flowtime = %d, want 50", got)
	}
}

func TestFlowtimeBeforeFinish(t *testing.T) {
	j, err := New(validSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Flowtime(); got != -1 {
		t.Fatalf("flowtime before finish = %d, want -1", got)
	}
}

func TestTaskLookup(t *testing.T) {
	j, err := New(validSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		id   TaskID
		want bool
	}{
		{TaskID{Job: 1, Phase: PhaseMap, Index: 0}, true},
		{TaskID{Job: 1, Phase: PhaseMap, Index: 2}, true},
		{TaskID{Job: 1, Phase: PhaseMap, Index: 3}, false},
		{TaskID{Job: 1, Phase: PhaseReduce, Index: 1}, true},
		{TaskID{Job: 1, Phase: PhaseReduce, Index: 2}, false},
		{TaskID{Job: 2, Phase: PhaseMap, Index: 0}, false},
		{TaskID{Job: 1, Phase: Phase(9), Index: 0}, false},
		{TaskID{Job: 1, Phase: PhaseMap, Index: -1}, false},
	}
	for _, tc := range cases {
		got := j.Task(tc.id)
		if (got != nil) != tc.want {
			t.Errorf("Task(%v) = %v, want present=%v", tc.id, got, tc.want)
		}
		if got != nil && got.ID != tc.id {
			t.Errorf("Task(%v) returned task %v", tc.id, got.ID)
		}
	}
}

func TestRemainingEffectiveWorkloadAndPriority(t *testing.T) {
	j, err := New(validSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	// All unscheduled: U = phi.
	if got, want := j.RemainingEffectiveWorkload(0), j.Spec.EffectiveWorkload(0); got != want {
		t.Fatalf("U = %v, want %v", got, want)
	}
	mt := j.Task(TaskID{Job: 1, Phase: PhaseMap, Index: 0})
	if err := j.MarkLaunched(mt, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := j.RemainingEffectiveWorkload(0), 2.0*10+2.0*20; got != want {
		t.Fatalf("U after one launch = %v, want %v", got, want)
	}
	if got, want := j.Priority(0), 2.0/60.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("priority = %v, want %v", got, want)
	}
	// Exhaust the unscheduled pool: priority becomes the +Inf sentinel.
	for _, task := range j.Tasks {
		if task.State == TaskUnscheduled {
			if err := j.MarkLaunched(task, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := j.Priority(0); got < 1e300 {
		t.Fatalf("priority with zero remaining = %v, want sentinel", got)
	}
}

func TestUnscheduledAndRunningTaskLists(t *testing.T) {
	j, err := New(validSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j.AppendUnscheduled(nil, PhaseMap)); got != 3 {
		t.Fatalf("unscheduled map list = %d", got)
	}
	mt := j.Task(TaskID{Job: 1, Phase: PhaseMap, Index: 1})
	if err := j.MarkLaunched(mt, 0); err != nil {
		t.Fatal(err)
	}
	um := j.AppendUnscheduled(nil, PhaseMap)
	if len(um) != 2 {
		t.Fatalf("unscheduled map after launch = %d", len(um))
	}
	for _, task := range um {
		if task.ID.Index == 1 {
			t.Error("launched task still listed unscheduled")
		}
	}
	rm := j.AppendRunning(nil, PhaseMap)
	if len(rm) != 1 || rm[0].ID.Index != 1 {
		t.Fatalf("running map list = %v", rm)
	}
	if got := len(j.AppendRunning(nil, PhaseReduce)); got != 0 {
		t.Fatalf("running reduce = %d", got)
	}
}

func TestAccumulatedHigherPriorityWorkload(t *testing.T) {
	mk := func(id int, w float64, mTasks int, mMean float64) Spec {
		d, err := dist.NewDeterministic(mMean)
		if err != nil {
			t.Fatal(err)
		}
		return Spec{ID: id, Weight: w, MapTasks: mTasks, MapDist: d}
	}
	// phi: A=10, B=40, C=100. priorities: A=1/10, B=1/40, C=2/100=1/50.
	specs := []Spec{
		mk(0, 1, 1, 10),
		mk(1, 1, 4, 10),
		mk(2, 2, 10, 10),
	}
	// For A (highest priority), only A counts.
	if got, want := AccumulatedHigherPriorityWorkload(specs, 0, 0), 10.0; got != want {
		t.Errorf("fs_A = %v, want %v", got, want)
	}
	// For B: A and B.
	if got, want := AccumulatedHigherPriorityWorkload(specs, 1, 0), 50.0; got != want {
		t.Errorf("fs_B = %v, want %v", got, want)
	}
	// For C: everyone.
	if got, want := AccumulatedHigherPriorityWorkload(specs, 2, 0), 150.0; got != want {
		t.Errorf("fs_C = %v, want %v", got, want)
	}
}

// Property: counters never go negative and unscheduled+launched bookkeeping
// stays consistent under random operation sequences.
func TestCounterConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		j, err := New(validSpec(t))
		if err != nil {
			return false
		}
		for _, op := range ops {
			idx := int(op) % len(j.Tasks)
			task := j.Tasks[idx]
			switch op % 3 {
			case 0:
				_ = j.MarkLaunched(task, int64(op))
			case 1:
				if task.Copies > 0 {
					j.MarkCopyStopped(task)
				}
			case 2:
				if task.State == TaskRunning {
					j.MarkDone(task, int64(op))
				}
			}
			if j.Unscheduled(PhaseMap) < 0 || j.Unscheduled(PhaseReduce) < 0 ||
				j.Unfinished(PhaseMap) < 0 || j.Unfinished(PhaseReduce) < 0 ||
				j.RunningCopies < 0 {
				return false
			}
		}
		// Recount from task states and compare to the cached counters.
		var unschedM, unschedR, unfinM, unfinR int
		for _, task := range j.Tasks {
			if task.State == TaskUnscheduled {
				if task.ID.Phase == PhaseMap {
					unschedM++
				} else {
					unschedR++
				}
			}
			if task.State != TaskDone {
				if task.ID.Phase == PhaseMap {
					unfinM++
				} else {
					unfinR++
				}
			}
		}
		return unschedM == j.Unscheduled(PhaseMap) &&
			unschedR == j.Unscheduled(PhaseReduce) &&
			unfinM == j.Unfinished(PhaseMap) &&
			unfinR == j.Unfinished(PhaseReduce)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseMap.String() != "map" || PhaseReduce.String() != "reduce" {
		t.Error("phase strings wrong")
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase should still stringify")
	}
	id := TaskID{Job: 3, Phase: PhaseReduce, Index: 7}
	if id.String() != "J3/reduce/7" {
		t.Errorf("TaskID.String() = %q", id.String())
	}
	states := map[TaskState]string{
		TaskUnscheduled: "unscheduled",
		TaskRunning:     "running",
		TaskDone:        "done",
		TaskState(99):   "TaskState(99)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("TaskState(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestInitOverRecycledMemory pins Init's contract: it overwrites every
// field, so a job built in memory a finished job used equals one built in
// fresh memory, and it rejects slabs of the wrong size.
func TestInitOverRecycledMemory(t *testing.T) {
	first := validSpec(t)
	second := validSpec(t)
	second.ID, second.MapTasks, second.ReduceTask = 7, 2, 3
	slab := make([]Task, first.TotalTasks())
	ptrs := make([]*Task, 3*first.TotalTasks())
	var j Job
	if err := Init(&j, first, slab, ptrs); err != nil {
		t.Fatal(err)
	}
	for _, task := range j.Tasks {
		if task.ID.Phase == PhaseReduce {
			break
		}
		if err := j.MarkLaunched(task, 1); err != nil {
			t.Fatal(err)
		}
		j.MarkCopyStopped(task)
		j.MarkDone(task, 5)
	}
	j.Tasks[3].Runtime = "engine state"
	if err := Init(&j, second, slab, ptrs); err != nil {
		t.Fatal(err)
	}
	want, err := New(second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&j, want) {
		t.Errorf("Init over recycled memory:\ngot  %+v\nwant %+v", j, *want)
	}
	if err := Init(&j, second, slab[:4], ptrs); err == nil {
		t.Error("Init accepted a task slab of the wrong size")
	}
}
