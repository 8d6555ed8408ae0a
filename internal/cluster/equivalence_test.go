package cluster_test

// Equivalence harness for the engine's two execution loops. For every
// registered scheduler — event-driven (SRPTMS+C, SCA, Fair, SRPT, Offline,
// Dolly) and speculative with wake-up timers (Mantri, LATE) alike — the
// event calendar (LoopAuto) and the naive slot-by-slot reference
// (LoopNaive) must produce Results identical field-for-field: per-job
// finish slots, busy integral, copy counts, wasted workload, final slot.
//
// On top of pairwise loop agreement, TestPinnedAggregates pins the absolute
// values these workloads produced before the discrete-event core landed
// (captured from the per-slot engine of the previous revision), so a change
// that breaks all loops identically — or perturbs the sampling stream —
// still fails.

import (
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/sched"
	"mrclone/internal/trace"
)

// mixedTrace builds a small Google-calibrated workload containing both map
// and reduce tasks with staggered arrivals.
func mixedTrace(t *testing.T, jobs int) *trace.Trace {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs = jobs
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var reduces int
	for _, row := range tr.Rows {
		reduces += row.ReduceTasks
	}
	if reduces == 0 {
		t.Fatal("trace has no reduce tasks; equivalence test needs a mixed workload")
	}
	return tr
}

func runLoop(t *testing.T, name string, loop cluster.LoopMode, machines int, seed int64,
	tr *trace.Trace) *cluster.Result {
	t.Helper()
	s, err := sched.Build(name, sched.Params{
		Epsilon:         0.9,
		DeviationFactor: 3,
		GateReduces:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{
		Machines: machines,
		Seed:     seed,
		Loop:     loop,
	}, s, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// loopModes is every execution loop, reference first.
var loopModes = []struct {
	name string
	mode cluster.LoopMode
}{
	{"naive", cluster.LoopNaive},
	{"events", cluster.LoopAuto},
}

func TestLoopEquivalence(t *testing.T) {
	tr := mixedTrace(t, 40)
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := runLoop(t, name, cluster.LoopNaive, 100, 7, tr)
			for _, lm := range loopModes[1:] {
				got := runLoop(t, name, lm.mode, 100, 7, tr)
				if ref.Slots != got.Slots {
					t.Errorf("%s: final slot differs: naive %d, %s %d",
						lm.name, ref.Slots, lm.name, got.Slots)
				}
				if ref.MachineSlots != got.MachineSlots {
					t.Errorf("%s: busy integral differs: naive %d, %s %d",
						lm.name, ref.MachineSlots, lm.name, got.MachineSlots)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("%s: results differ:\nnaive: %+v\n%s: %+v",
						lm.name, ref, lm.name, got)
				}
			}
		})
	}
}

// TestLoopEquivalenceUnderload exercises the regime where event skipping
// matters most: a lightly loaded cluster with long stretches of empty slots
// between arrivals.
func TestLoopEquivalenceUnderload(t *testing.T) {
	tr := mixedTrace(t, 12)
	for _, name := range []string{"srptms+c", "mantri"} {
		ref := runLoop(t, name, cluster.LoopNaive, 2000, 3, tr)
		for _, lm := range loopModes[1:] {
			got := runLoop(t, name, lm.mode, 2000, 3, tr)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s/%s: underloaded results differ", name, lm.name)
			}
		}
	}
}

// aggregate reduces a Result to the pinned scalar fingerprint.
type aggregate struct {
	finMax int64
	flow   int64
	total  int64
	clone  int64
	busy   int64
	wasted float64
}

func aggregateOf(res *cluster.Result) aggregate {
	a := aggregate{
		total:  res.TotalCopies,
		clone:  res.CloneCopies,
		busy:   res.MachineSlots,
		wasted: res.WastedCopyWrk,
	}
	for _, j := range res.Jobs {
		a.flow += j.Flowtime
		if j.Finish > a.finMax {
			a.finMax = j.Finish
		}
	}
	return a
}

// Pinned aggregates captured from the pre-event-core engine (per-slot loop)
// on mixedTrace(40 jobs), 100 machines, seed 7. Wasted workload is compared
// to 1e-6 absolute: the accumulation order of killed-copy remainders is part
// of the contract.
var pinnedAggregates = map[string]aggregate{
	"dolly":    {finMax: 45515, flow: 69501, total: 1662, clone: 99, busy: 1835154, wasted: 3950.003775},
	"fair":     {finMax: 45870, flow: 63065, total: 1563, clone: 0, busy: 1830414, wasted: 0.000000},
	"late":     {finMax: 42277, flow: 52716, total: 1675, clone: 112, busy: 1877352, wasted: 82461.147756},
	"mantri":   {finMax: 45720, flow: 68080, total: 1572, clone: 9, busy: 1820851, wasted: 17679.189042},
	"offline":  {finMax: 45902, flow: 65519, total: 1563, clone: 0, busy: 2809802, wasted: 0.000000},
	"sca":      {finMax: 45650, flow: 61157, total: 2855, clone: 1292, busy: 2113633, wasted: 175854.464956},
	"srpt":     {finMax: 45902, flow: 63232, total: 1563, clone: 0, busy: 1824515, wasted: 0.000000},
	"srptms+c": {finMax: 46594, flow: 57034, total: 2763, clone: 1200, busy: 2053334, wasted: 118409.364751},
}

// Same capture on the underloaded workload: mixedTrace(12 jobs), 2000
// machines, seed 3.
var pinnedUnderload = map[string]aggregate{
	"srptms+c": {finMax: 33975, flow: 11322, total: 872, clone: 763, busy: 694920, wasted: 350189.276569},
	"mantri":   {finMax: 36441, flow: 21259, total: 109, clone: 0, busy: 126522, wasted: 0.000000},
}

func assertAggregate(t *testing.T, name string, got, want aggregate) {
	t.Helper()
	gw, ww := got.wasted, want.wasted
	got.wasted, want.wasted = 0, 0
	if got != want {
		t.Errorf("%s: aggregate drifted from pinned capture:\ngot  %+v\nwant %+v", name, got, want)
	}
	if d := gw - ww; d > 1e-6 || d < -1e-6 {
		t.Errorf("%s: wasted workload drifted: got %.6f, want %.6f", name, gw, ww)
	}
}

// TestPinnedAggregates asserts that the production loop still reproduces the
// exact aggregates of the pre-event-core engine. A deliberate
// semantics-changing commit must re-pin these tables (the failure message
// prints the new values); anything else that trips this test has changed
// simulation results and is a bug.
func TestPinnedAggregates(t *testing.T) {
	tr := mixedTrace(t, 40)
	for _, name := range sched.Names() {
		want, ok := pinnedAggregates[name]
		if !ok {
			t.Errorf("%s: no pinned aggregate; capture one for new schedulers", name)
			continue
		}
		got := aggregateOf(runLoop(t, name, cluster.LoopAuto, 100, 7, tr))
		assertAggregate(t, name, got, want)
	}
	tr12 := mixedTrace(t, 12)
	for name, want := range pinnedUnderload {
		got := aggregateOf(runLoop(t, name, cluster.LoopAuto, 2000, 3, tr12))
		assertAggregate(t, "underload/"+name, got, want)
	}
}
