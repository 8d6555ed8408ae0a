package cluster_test

// Workspace reuse: every engine run works in memory recycled from earlier
// runs, so a run must not be able to tell which runs came before it —
// finished or failed, on a smaller trace or a larger one.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/dist"
	"mrclone/internal/job"
	"mrclone/internal/rng"
	"mrclone/internal/runner"
	"mrclone/internal/sched"
)

// nanDist passes Spec validation (finite moments) but samples NaN.
type nanDist struct{}

func (nanDist) Sample(*rng.Source) float64 { return math.NaN() }
func (nanDist) Mean() float64              { return 3 }
func (nanDist) StdDev() float64            { return 0 }

// reuseRun is one engine run of the interleaved sequence.
type reuseRun struct {
	name    string
	sched   string
	specs   []job.Spec
	cfg     cluster.Config
	wantErr error // nil for a run that must finish

	// leavesAll requires the run to stop with tasks on the calendar's wheel
	// and in its overflow heap, and with gated copies.
	leavesAll bool
}

func (r reuseRun) run(t *testing.T) (*cluster.Result, error) {
	t.Helper()
	s, err := sched.Build(r.sched, sched.Params{Epsilon: 0.9, DeviationFactor: 3, GateReduces: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(r.cfg, s, r.specs)
	if err != nil {
		t.Fatal(err)
	}
	res, live, err := cluster.RunReportingLive(eng)
	if r.leavesAll && (live.Wheel == 0 || live.Overflow == 0 || live.GatedJobs == 0) {
		t.Fatalf("%s: stopped with %+v; want every kind left live", r.name, live)
	}
	return res, err
}

// TestEngineWorkspaceReuse interleaves, on one goroutine, successful runs of
// every scheduler on a 60-job and a 300-job trace with runs that fail midway
// (a MaxSlots overflow with tasks left on the calendar's wheel and in its
// overflow heap and with gated copies, a non-finite workload), and
// requires every successful Result to equal the same run made in reverse
// order — that is, after a different predecessor left its workspace behind.
// It then runs one matrix twice through the runner's worker pool with a
// failed run in between; the artifacts must be byte-identical.
func TestEngineWorkspaceReuse(t *testing.T) {
	small, err := mixedTrace(t, 60).Specs()
	if err != nil {
		t.Fatal(err)
	}
	large, err := mixedTrace(t, 300).Specs()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := append([]job.Spec(nil), small...)
	for i := len(poisoned) / 2; i < len(poisoned); i++ {
		if poisoned[i].MapTasks > 0 {
			poisoned[i].MapDist = nanDist{}
			break
		}
	}
	// Offline with gated reduces, stopped 9,000 slots after the first
	// arrival, leaves tasks on the calendar's wheel and gated copies behind.
	// An extra job arriving 500 slots before the stop, whose one task runs
	// far past MaxSlots (so its duration is clamped to MaxSlots+1), leaves
	// a task in the overflow heap beyond the wheel's span.
	first := large[0].Arrival
	for _, s := range large {
		first = min(first, s.Arrival)
	}
	long, err := dist.NewDeterministic(1e9)
	if err != nil {
		t.Fatal(err)
	}
	withLong := append(append([]job.Spec(nil), large...),
		job.Spec{ID: 1 << 20, Arrival: first + 8500, Weight: 1, MapTasks: 1, MapDist: long})
	overflow := reuseRun{name: "overflow", sched: "offline", specs: withLong,
		cfg:     cluster.Config{Machines: 600, Seed: 3, MaxSlots: first + 9000},
		wantErr: cluster.ErrSlotOverflow, leavesAll: true}
	nonFinite := reuseRun{name: "non-finite", sched: "srptms+c", specs: poisoned,
		cfg: cluster.Config{Machines: 120, Seed: 4}, wantErr: cluster.ErrNonFiniteWorkload}

	var runs []reuseRun
	for i, name := range sched.Names() {
		runs = append(runs,
			reuseRun{name: name + "/60", sched: name, specs: small, cfg: cluster.Config{Machines: 120, Seed: 7}},
			reuseRun{name: name + "/300", sched: name, specs: large, cfg: cluster.Config{Machines: 600, Seed: 1}})
		if i%2 == 0 {
			runs = append(runs, overflow)
		} else {
			runs = append(runs, nonFinite)
		}
	}

	forward := make([]*cluster.Result, len(runs))
	for i, r := range runs {
		forward[i] = checkedRun(t, r)
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if got := checkedRun(t, runs[i]); !reflect.DeepEqual(got, forward[i]) {
			t.Errorf("%s: result depends on the runs before it:\nforward %+v\nreverse %+v",
				runs[i].name, forward[i], got)
		}
	}

	matrix := runner.Spec{
		Specs:    small,
		Points:   []runner.Point{{X: 30, Machines: 30}, {X: 120, Machines: 120}},
		Runs:     2,
		BaseSeed: 11,
	}
	for _, name := range sched.Names() {
		matrix.Schedulers = append(matrix.Schedulers, runner.SchedulerSpec{
			Name: name, Params: sched.Params{Epsilon: 0.9, DeviationFactor: 3, GateReduces: true},
		})
	}
	once := matrixArtifact(t, matrix)
	checkedRun(t, overflow)
	if second := matrixArtifact(t, matrix); !bytes.Equal(once, second) {
		t.Error("matrix artifact differs between two runs through the worker pool")
	}
}

// checkedRun runs r and checks its outcome against r.wantErr.
func checkedRun(t *testing.T, r reuseRun) *cluster.Result {
	t.Helper()
	res, err := r.run(t)
	if r.wantErr != nil {
		if !errors.Is(err, r.wantErr) {
			t.Fatalf("%s: want %v, got %v", r.name, r.wantErr, err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res
}

// matrixArtifact runs spec at parallelism 4 and returns its JSON and CSV
// artifacts.
func matrixArtifact(t *testing.T, spec runner.Spec) []byte {
	t.Helper()
	res, err := runner.Run(context.Background(), spec, runner.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
