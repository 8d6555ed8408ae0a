package mrclone

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	p := GoogleTraceParams()
	p.Jobs = 60
	tr, err := GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestQuickstartFlow(t *testing.T) {
	tr := smallTrace(t)
	sim, err := NewSimulation(tr,
		WithMachines(200),
		WithScheduler("srptms+c"),
		WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishedJobs != 60 {
		t.Fatalf("finished %d/60", res.FinishedJobs)
	}
	sum, err := Summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanFlowtime <= 0 || sum.WeightedFlowtime <= 0 {
		t.Fatalf("bad summary %+v", sum)
	}
	cdf, err := FlowtimeCDF(res, 0, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdf) != 10 {
		t.Fatalf("cdf points %d", len(cdf))
	}
}

func TestAllSchedulersViaFacade(t *testing.T) {
	tr := smallTrace(t)
	names := SchedulerNames()
	if len(names) != 8 {
		t.Fatalf("scheduler names: %v", names)
	}
	for _, name := range names {
		sim, err := NewSimulation(tr,
			WithMachines(150),
			WithScheduler(name),
			WithSchedulerParams(SchedulerParams{Epsilon: 0.6, DeviationFactor: 3, GateReduces: true}),
			WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	tr := smallTrace(t)
	if _, err := NewSimulation(nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewSimulation(&Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewSimulation(tr, WithMachines(0)); err == nil {
		t.Error("machines=0 accepted")
	}
	if _, err := NewSimulation(tr, WithSpeed(-1)); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := NewSimulation(tr, WithCustomScheduler(nil)); err == nil {
		t.Error("nil custom scheduler accepted")
	}
	sim, err := NewSimulation(tr, WithMachines(100), WithScheduler("bogus"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("bogus scheduler name accepted at Run")
	}
	if _, err := NewSimulationFromSpecs(nil); err == nil {
		t.Error("empty specs accepted")
	}
}

// greedy is a custom scheduler exercising the public extension point: it
// launches one copy of every unscheduled task in arrival order.
type greedy struct{}

func (greedy) Name() string { return "greedy-custom" }

func (greedy) Schedule(ctx *SchedulerContext) {
	for _, j := range ctx.AliveJobs() {
		for _, task := range j.AppendUnscheduled(nil, PhaseMap) {
			if ctx.FreeMachines() == 0 {
				return
			}
			if _, err := ctx.Launch(j, task, 1, false); err != nil {
				return
			}
		}
		if !j.MapPhaseDone() {
			continue
		}
		for _, task := range j.AppendUnscheduled(nil, PhaseReduce) {
			if ctx.FreeMachines() == 0 {
				return
			}
			if _, err := ctx.Launch(j, task, 1, false); err != nil {
				return
			}
		}
	}
}

func TestCustomScheduler(t *testing.T) {
	// A custom scheduler that launches everything greedily.
	tr := smallTrace(t)
	sim, err := NewSimulation(tr,
		WithMachines(500),
		WithCustomScheduler(greedy{}),
		WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishedJobs != 60 {
		t.Fatalf("finished %d", res.FinishedJobs)
	}
	if res.Scheduler != "greedy-custom" {
		t.Fatalf("scheduler name %q", res.Scheduler)
	}
}

// TestSchedulerInstanceReuse runs one Mantri (and one LATE) instance
// through two successive Run calls: the per-run watch state must not leak
// from the first run into the second, and both must match a fresh
// instance.
func TestSchedulerInstanceReuse(t *testing.T) {
	tr := smallTrace(t)
	for _, name := range []string{"mantri", "late"} {
		inst, err := NewScheduler(name, SchedulerParams{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(opt Option) *Result {
			sim, err := NewSimulation(tr, WithMachines(120), WithSeed(3), opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := run(WithCustomScheduler(inst))
		if first.CloneCopies == 0 {
			t.Fatalf("%s: no backups launched; the reuse test lost its power", name)
		}
		if second := run(WithCustomScheduler(inst)); !reflect.DeepEqual(first, second) {
			t.Errorf("%s: second run of one instance differs from the first", name)
		}
		if fresh := run(WithScheduler(name)); !reflect.DeepEqual(first, fresh) {
			t.Errorf("%s: reused instance differs from a fresh one", name)
		}
	}
}

func TestTraceCSVRoundTripViaFacade(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(tr.Rows) {
		t.Fatal("round trip lost rows")
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := smallTrace(t)
	runOnce := func() FlowtimeSummary {
		sim, err := NewSimulation(tr, WithMachines(120), WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Summarize(res)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same seed, different summaries: %+v vs %+v", a, b)
	}
}

func TestRunMatrixPublicAPI(t *testing.T) {
	tr := smallTrace(t)
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	spec := MatrixSpec{
		Specs: specs,
		Schedulers: []MatrixSchedulerSpec{
			{Name: "srptms+c", Params: SchedulerParams{Epsilon: 0.9, DeviationFactor: 3}},
			{Name: "fair"},
		},
		Points:   []MatrixPoint{{X: 120, Machines: 120}},
		Runs:     2,
		BaseSeed: 9,
	}
	var done int
	res, err := RunMatrix(context.Background(), spec,
		WithParallelism(2),
		WithRawResults(),
		WithProgress(func(d, total int) {
			done = d
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Errorf("progress reached %d, want 4", done)
	}
	for si := range spec.Schedulers {
		agg := res.Aggregate(si, 0)
		if agg.Jobs == 0 || agg.MeanFlowtime <= 0 {
			t.Errorf("scheduler %d: empty aggregate %+v", si, agg)
		}
		if _, err := res.CDF(si, 0, 0, 300, 5); err != nil {
			t.Errorf("scheduler %d: CDF: %v", si, err)
		}
	}
	// The matrix cell must agree with the single-simulation API at the
	// same seed.
	sim, err := NewSimulation(tr, WithMachines(120), WithSeed(9),
		WithSchedulerParams(SchedulerParams{Epsilon: 0.9, DeviationFactor: 3}))
	if err != nil {
		t.Fatal(err)
	}
	single, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(single)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cell(0, 0, 0).Summary; got != sum {
		t.Errorf("matrix cell %+v != single run %+v", got, sum)
	}

	if _, err := RunMatrix(context.Background(), spec, WithParallelism(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
}

func TestExperimentPresets(t *testing.T) {
	full := FullExperimentOptions()
	if full.Machines != 12000 {
		t.Errorf("full machines %d", full.Machines)
	}
	quick := QuickExperimentOptions()
	if quick.Machines != 1600 {
		t.Errorf("quick machines %d", quick.Machines)
	}
}
