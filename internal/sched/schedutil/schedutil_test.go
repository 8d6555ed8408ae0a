package schedutil

import (
	"math"
	"testing"
	"testing/quick"

	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
)

func mkJob(t *testing.T, id int, weight float64, maps int, mean float64) *job.Job {
	t.Helper()
	d, err := dist.NewDeterministic(mean)
	if err != nil {
		t.Fatal(err)
	}
	j, err := job.New(job.Spec{ID: id, Weight: weight, MapTasks: maps, MapDist: d})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestByPriorityDesc(t *testing.T) {
	// priorities w/U: A: 1/(2*10)=0.05, B: 4/(2*10)=0.2, C: 1/(1*10)=0.1
	a := mkJob(t, 0, 1, 2, 10)
	b := mkJob(t, 1, 4, 2, 10)
	c := mkJob(t, 2, 1, 1, 10)
	jobs := []*job.Job{a, b, c}
	ByPriorityDesc(jobs, 0)
	wantOrder := []int{1, 2, 0}
	for i, j := range jobs {
		if j.Spec.ID != wantOrder[i] {
			t.Fatalf("position %d: job %d, want %d", i, j.Spec.ID, wantOrder[i])
		}
	}
}

func TestByPriorityDescTieBreak(t *testing.T) {
	a := mkJob(t, 7, 1, 1, 10)
	b := mkJob(t, 3, 1, 1, 10)
	jobs := []*job.Job{a, b}
	ByPriorityDesc(jobs, 0)
	if jobs[0].Spec.ID != 3 {
		t.Fatalf("ties must break by ascending ID, got %d first", jobs[0].Spec.ID)
	}
}

func TestByOfflinePriorityDesc(t *testing.T) {
	// phi: A = 3*10 = 30 (w 1 => p=1/30), B = 1*10 (w 1 => 1/10).
	a := mkJob(t, 0, 1, 3, 10)
	b := mkJob(t, 1, 1, 1, 10)
	jobs := []*job.Job{a, b}
	ByOfflinePriorityDesc(jobs, 0)
	if jobs[0].Spec.ID != 1 {
		t.Fatalf("smaller job must rank first, got %d", jobs[0].Spec.ID)
	}
}

func TestPickRandom(t *testing.T) {
	j := mkJob(t, 0, 1, 10, 5)
	tasks := j.AppendUnscheduled(nil, job.PhaseMap)
	src := rng.New(1)

	got := PickRandom(tasks, 4, src)
	if len(got) != 4 {
		t.Fatalf("picked %d, want 4", len(got))
	}
	seen := map[*job.Task]bool{}
	for _, task := range got {
		if seen[task] {
			t.Fatal("duplicate pick")
		}
		seen[task] = true
	}
	if got := PickRandom(tasks, 100, src); len(got) != 10 {
		t.Fatalf("over-pick returned %d, want all 10", len(got))
	}
	if got := PickRandom(tasks, 0, src); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := PickRandom(tasks, -3, src); got != nil {
		t.Fatalf("k<0 returned %v", got)
	}
	// Input slice must be unmodified (same pointers in same order).
	again := j.AppendUnscheduled(nil, job.PhaseMap)
	for i := range tasks {
		if tasks[i] != again[i] {
			t.Fatal("PickRandom mutated its input")
		}
	}
}

func TestLargestRemainderExact(t *testing.T) {
	cases := []struct {
		shares []float64
		total  int
		want   []int
	}{
		{[]float64{2.5, 2.5, 5}, 10, []int{3, 2, 5}}, // tie on .5 -> lower index first
		{[]float64{1.2, 1.2, 1.6}, 4, []int{1, 1, 2}},
		{[]float64{0, 0, 4}, 4, []int{0, 0, 4}},
		{[]float64{3, 3, 3}, 9, []int{3, 3, 3}},
		{nil, 5, []int{}},
		{[]float64{1.5}, 0, []int{0}},
		{[]float64{-2, 3.5, 0.5}, 4, []int{0, 4, 0}}, // negatives clamp to 0
	}
	for i, tc := range cases {
		got := LargestRemainder(tc.shares, tc.total)
		if len(got) != len(tc.want) {
			t.Errorf("case %d: len %d, want %d", i, len(got), len(tc.want))
			continue
		}
		for k := range got {
			if got[k] != tc.want[k] {
				t.Errorf("case %d: got %v, want %v", i, got, tc.want)
				break
			}
		}
	}
}

// Property: when the share mass equals the total (the scheduler's contract —
// fractional g_i always sum to M), the rounded shares sum to exactly total,
// are non-negative, deviate from their fractional share by less than 1, and
// zero shares get zero machines.
func TestLargestRemainderProperty(t *testing.T) {
	f := func(raw []uint16, totalRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		total := int(totalRaw%200) + 1
		var mass float64
		shares := make([]float64, len(raw))
		for i, r := range raw {
			shares[i] = float64(r)
			mass += shares[i]
		}
		if mass == 0 {
			return true
		}
		for i := range shares {
			shares[i] = shares[i] / mass * float64(total)
		}
		got := LargestRemainder(shares, total)
		sum := 0
		for i, g := range got {
			if g < 0 {
				return false
			}
			if shares[i] == 0 && g != 0 {
				return false
			}
			if math.Abs(float64(g)-shares[i]) >= 1+1e-9 {
				return false
			}
			sum += g
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWithUnscheduledTasksAndTotalWeight(t *testing.T) {
	a := mkJob(t, 0, 2, 1, 5)
	b := mkJob(t, 1, 3, 1, 5)
	// Exhaust a's unscheduled pool.
	mt := a.Tasks[0]
	if err := a.MarkLaunched(mt, 0); err != nil {
		t.Fatal(err)
	}
	got := WithUnscheduledTasks([]*job.Job{a, b})
	if len(got) != 1 || got[0] != b {
		t.Fatalf("filter = %v", got)
	}
	if w := TotalWeight([]*job.Job{a, b}); w != 5 {
		t.Fatalf("total weight = %v, want 5", w)
	}
}
