package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"mrclone/internal/runner"
	"mrclone/internal/service/spec"
	"mrclone/internal/trace"
)

// Every workload simulates a Table-II trace with generator seed 1, scaled to
// a job count over the full Table-II span. With 300 jobs it is the bench
// trace of bench_test.go and BENCH_BASELINE.json, and 600 machines keep the
// paper's ratio of machines to jobs. The workload seed moves the cells' seeds
// (the sampled task durations), the scheduler order and the request mix,
// never the trace's job structure: the heavy-tailed task counts would
// otherwise move the cost of a cell by tens of percent from seed to seed,
// more than any bound.

// eventDriven lists the six schedulers the event calendar serves;
// speculation lists the slot-stepping baselines.
var (
	eventDriven = []string{"srptms+c", "sca", "dolly", "fair", "srpt", "offline"}
	speculation = []string{"mantri", "late"}
	allScheds   = append(append([]string(nil), eventDriven...), speculation...)
)

// request is one spec submission and the artifact format fetched for it.
type request struct {
	client int
	index  int    // position in the client's sequence
	kind   string // cold, resubmit, recombine or partial
	format string // json or aggregate
	body   []byte // spec JSON, the only input the program receives
}

// traceParams are the generator parameters of the jobs-job trace.
func traceParams(jobs int) trace.Params {
	p := trace.GoogleParams()
	p.Jobs = jobs
	return p
}

func benchWorkload(jobs int) spec.Workload {
	p := traceParams(jobs)
	return spec.Workload{Trace: &p}
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func points(machines []int) []spec.Point {
	out := make([]spec.Point, len(machines))
	for i, m := range machines {
		out[i] = spec.Point{X: float64(m), Machines: m}
	}
	return out
}

func schedulers(names []string) []spec.Scheduler {
	out := make([]spec.Scheduler, len(names))
	for i, n := range names {
		out[i] = spec.Scheduler{Name: n}
	}
	return out
}

func marshalSpec(s spec.Spec) []byte {
	s.Version = spec.Version
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("marshal spec: %v", err)) // plain structs always marshal
	}
	return b
}

// seedPool hands out matrix base seeds whose replicate cell seeds never
// repeat within a run, so every cold cell really is cold.
type seedPool struct {
	rnd  *rand.Rand
	used map[int64]bool
}

func newSeedPool(rnd *rand.Rand) *seedPool { return &seedPool{rnd: rnd, used: map[int64]bool{}} }

func (p *seedPool) base(runs int) int64 {
	for {
		b := p.rnd.Int64N(1<<40) + 1
		fresh := true
		for r := 0; r < runs; r++ {
			if p.used[runner.CellSeed(b, 0, r)] {
				fresh = false
			}
		}
		if !fresh {
			continue
		}
		for r := 0; r < runs; r++ {
			p.used[runner.CellSeed(b, 0, r)] = true
		}
		return b
	}
}

// Event sweep: the six event-driven schedulers at three cluster sizes, under-
// over- and at the paper's load ratio of two machines per job.
const (
	sweepJobs = 300
	sweepRuns = 1
)

var sweepMachines = []int{sweepJobs, 2 * sweepJobs, 4 * sweepJobs}

// newSweepStream returns the event-sweep request generator: every matrix
// has fresh cell seeds and a seeded scheduler order.
func newSweepStream(seed int64) func() request {
	rnd := newRand(seed, 1)
	seeds := newSeedPool(rnd)
	i := 0
	return func() request {
		names := append([]string(nil), eventDriven...)
		rnd.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		body := marshalSpec(spec.Spec{
			Workload:   benchWorkload(sweepJobs),
			Schedulers: schedulers(names),
			Points:     points(sweepMachines),
			Runs:       sweepRuns,
			BaseSeed:   seeds.base(sweepRuns),
		})
		i++
		return request{index: i - 1, kind: "cold", format: "json", body: body}
	}
}

// Speculation baselines: Mantri and LATE matrices alternate. A Mantri matrix
// is six cells, a LATE matrix one long cell that leaves the second cell
// worker idle, so the two take comparable host time while Mantri contributes
// six times the cells. Their latencies overlap, so neither the median nor the
// tail sits on the edge between two modes.
const (
	specJobs       = 300
	specMantriRuns = 2
	specLateEvery  = 2
)

var (
	specMantriMachines = []int{specJobs, 2 * specJobs, 4 * specJobs}
	specLateMachines   = []int{specJobs}
)

func newSpeculationStream(seed int64) func() request {
	rnd := newRand(seed, 2)
	seeds := newSeedPool(rnd)
	i := 0
	return func() request {
		s := spec.Spec{
			Workload:   benchWorkload(specJobs),
			Schedulers: schedulers([]string{"mantri"}),
			Points:     points(specMantriMachines),
			Runs:       specMantriRuns,
		}
		if i%specLateEvery == specLateEvery-1 {
			s.Schedulers = schedulers([]string{"late"})
			s.Points = points(specLateMachines)
			s.Runs = 1
		}
		s.BaseSeed = seeds.base(s.Runs)
		i++
		return request{index: i - 1, kind: "cold", format: "json", body: marshalSpec(s)}
	}
}

// Warm gateway mix: a corpus of small event-driven matrices computed during
// set-up on both shards, then two clients mixing exact resubmits, unseen
// recombinations of corpus cells and specs with a few uncached cells.
const (
	warmJobs       = 60
	warmCorpusSeed = 8 // corpus base seeds; two matrices each
	warmRuns       = 2 // replicates of corpus and recombined matrices
	warmRecombine  = 0.05
	warmPartial    = 0.02
	// warmPartialStride is where partial requests' seed strides start, far
	// from the default stride, so each one's second replicate is new.
	warmPartialStride = 1 << 20
)

var warmMachines = []int{warmJobs / 2, warmJobs, 2 * warmJobs, 4 * warmJobs}

// warmCorpus returns the set-up matrices: for each corpus seed, the six
// event-driven schedulers split in two seeded halves, each at every size.
// Together they cover every (scheduler, size, seed) cell recombinations use.
func warmCorpus(seed int64) ([]request, []int64) {
	rnd := newRand(seed, 3)
	seeds := newSeedPool(rnd)
	var out []request
	var bases []int64
	for k := 0; k < warmCorpusSeed; k++ {
		b := seeds.base(warmRuns)
		bases = append(bases, b)
		names := append([]string(nil), eventDriven...)
		rnd.Shuffle(len(names), func(a, c int) { names[a], names[c] = names[c], names[a] })
		for _, half := range [][]string{names[:3], names[3:]} {
			out = append(out, request{
				index: len(out), kind: "corpus", format: "json",
				body: marshalSpec(spec.Spec{
					Workload:   benchWorkload(warmJobs),
					Schedulers: schedulers(half),
					Points:     points(warmMachines),
					Runs:       warmRuns,
					BaseSeed:   b,
				}),
			})
		}
	}
	return out, bases
}

// orderedSubset draws a random non-empty ordered subset of at most maxLen of
// items.
func orderedSubset[T any](rnd *rand.Rand, items []T, maxLen int) []T {
	perm := rnd.Perm(len(items))
	n := 1 + rnd.IntN(min(maxLen, len(items)))
	out := make([]T, n)
	for i := range out {
		out[i] = items[perm[i]]
	}
	return out
}

// newWarmStream returns client c's request generator. Its choices depend only
// on the seed, the client and the position in the sequence, never on timing.
func newWarmStream(seed int64, client int) func() request {
	corpus, bases := warmCorpus(seed)
	rnd := newRand(seed, 10+uint64(client))
	history := make([][]byte, 0, len(corpus))
	seen := map[string]bool{}
	for _, c := range corpus {
		history = append(history, c.body)
		seen[string(c.body)] = true
	}
	partials := 0
	i := 0
	return func() request {
		req := request{client: client, index: i, format: "json"}
		i++
		if rnd.IntN(2) == 1 {
			req.format = "aggregate"
		}
		u := rnd.Float64()
		switch {
		case u < warmRecombine:
			req.kind = "recombine"
			for {
				body := marshalSpec(spec.Spec{
					Workload:   benchWorkload(warmJobs),
					Schedulers: schedulers(orderedSubset(rnd, eventDriven, len(eventDriven))),
					Points:     points(orderedSubset(rnd, warmMachines, len(warmMachines))),
					Runs:       warmRuns,
					BaseSeed:   bases[rnd.IntN(len(bases))],
				})
				if !seen[string(body)] {
					req.body = body
					break
				}
			}
		case u < warmRecombine+warmPartial:
			// Two replicates of one scheduler at one or two corpus sizes: the
			// first replicate's cells are cached, the second's seed is offset
			// by a stride no other request uses (parity keeps the two clients
			// apart), so one or two cells are new.
			req.kind = "partial"
			req.body = marshalSpec(spec.Spec{
				Workload:   benchWorkload(warmJobs),
				Schedulers: schedulers(orderedSubset(rnd, eventDriven, 1)),
				Points:     points(orderedSubset(rnd, warmMachines, 2)),
				Runs:       2,
				BaseSeed:   bases[rnd.IntN(len(bases))],
				SeedStride: warmPartialStride + 2*int64(partials) + int64(client),
			})
			partials++
		default:
			req.kind = "resubmit"
			req.body = history[rnd.IntN(len(history))]
			return req
		}
		seen[string(req.body)] = true
		history = append(history, req.body)
		return req
	}
}

// describe is a short human-readable summary of a spec body for failure
// messages.
func describe(body []byte) string {
	sp, err := spec.Parse(body)
	if err != nil {
		return "unparseable spec"
	}
	names := make([]string, len(sp.Schedulers))
	for i, s := range sp.Schedulers {
		names[i] = s.Name
	}
	return fmt.Sprintf("[%s]x%d pts x%d runs base %d",
		strings.Join(names, ","), len(sp.Points), sp.Runs, sp.BaseSeed)
}
