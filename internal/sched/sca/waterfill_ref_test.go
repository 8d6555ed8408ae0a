package sca

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"mrclone/internal/dist"
	"mrclone/internal/job"
)

// refAllocation and refGainHeap are the water-filling as it ran before
// gains were cached: container/heap, with Less recomputing both gains
// through Speedup.At on every comparison. waterFill must grant the same
// copies.
type refAllocation struct {
	j      *job.Job
	t      *job.Task
	mean   float64
	weight float64
	copies int
	index  int
}

func refGain(cfg Config, a *refAllocation) float64 {
	k := float64(a.copies)
	if a.copies >= cfg.MaxClonesPerTask {
		return 0
	}
	return a.weight * a.mean * (1/cfg.Speedup.At(k) - 1/cfg.Speedup.At(k+1))
}

type refGainHeap struct {
	items []*refAllocation
	cfg   Config
}

func (h refGainHeap) Len() int { return len(h.items) }
func (h refGainHeap) Less(i, j int) bool {
	gi, gj := refGain(h.cfg, h.items[i]), refGain(h.cfg, h.items[j])
	if gi != gj {
		return gi > gj
	}
	a, b := h.items[i], h.items[j]
	if a.j.Spec.ID != b.j.Spec.ID {
		return a.j.Spec.ID < b.j.Spec.ID
	}
	return a.t.ID.Index < b.t.ID.Index
}
func (h refGainHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}
func (h *refGainHeap) Push(x any) {
	a := x.(*refAllocation)
	a.index = len(h.items)
	h.items = append(h.items, a)
}
func (h *refGainHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
}

func refWaterFill(cfg Config, allocs []refAllocation, budget int) {
	if budget <= 0 || len(allocs) == 0 {
		return
	}
	items := make([]*refAllocation, len(allocs))
	for i := range allocs {
		allocs[i].index = i
		items[i] = &allocs[i]
	}
	h := &refGainHeap{items: items, cfg: cfg}
	heap.Init(h)
	for budget > 0 && h.Len() > 0 {
		top := h.items[0]
		if refGain(cfg, top) <= 0 {
			break
		}
		top.copies++
		budget--
		heap.Fix(h, 0)
	}
}

// flatSpeedup stops paying after two copies, so an infinite mean times
// its zero marginal term makes a NaN gain, which compares unordered.
type flatSpeedup struct{}

func (flatSpeedup) At(k float64) float64 { return max(1, min(k, 2)) }

// TestWaterFillMatchesReference compares per-task copy counts from the
// cached-gain heap and the reference across random alive sets, weights,
// means (ties, zero and infinite included), clone caps 1-8, speedup models
// and budgets.
func TestWaterFillMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	weights := []float64{0.5, 1, 1, 2, 3, 11}
	means := []float64{0, 10, 20, 20, 100, 1e300, math.Inf(1)}
	speedups := []dist.Speedup{
		dist.ParetoSpeedup{Alpha: 1.2}, dist.ParetoSpeedup{Alpha: 2},
		dist.ParetoSpeedup{Alpha: 3.5}, flatSpeedup{},
	}
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		cfg := Config{Speedup: speedups[r.Intn(len(speedups))], MaxClonesPerTask: 1 + r.Intn(8)}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var alloc []allocation
		var ref []refAllocation
		for _, id := range r.Perm(1 + r.Intn(6)) {
			d := dist.Deterministic{Value: means[r.Intn(len(means))]}
			j, err := job.New(job.Spec{
				ID: id, Weight: weights[r.Intn(len(weights))],
				MapTasks: 1 + r.Intn(10), MapDist: d,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ti := range r.Perm(len(j.Tasks)) {
				if r.Intn(4) == 0 {
					continue // not in this slot's alive set
				}
				task := j.Tasks[ti]
				mean, w := d.Mean(), j.Spec.Weight
				alloc = append(alloc, allocation{j: j, t: task, we: w * mean, copies: 1})
				ref = append(ref, refAllocation{j: j, t: task, mean: mean, weight: w, copies: 1})
			}
		}
		budget := r.Intn(3*len(alloc) + 5)
		s.waterFill(alloc, budget)
		refWaterFill(s.cfg, ref, budget)
		for i := range alloc {
			if alloc[i].copies != ref[i].copies {
				t.Fatalf("trial %d (cap %d, %T, budget %d): task %v got %d copies, reference %d",
					trial, cfg.MaxClonesPerTask, cfg.Speedup, budget, alloc[i].t.ID,
					alloc[i].copies, ref[i].copies)
			}
		}
	}
}
