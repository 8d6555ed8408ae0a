package cluster_test

// Differential tests for the wake-up path: Mantri and LATE run on the event
// loop, invoked only on event slots, slots with launchable work and the
// slots their wake-up timers name, and must reproduce the naive loop — which
// invokes them on every slot with a free machine — field for field. Both
// must also reproduce the full-scan reference implementations in
// speculative_ref_test.go, which catch a wrong watch list or group
// look-ahead that the two loops would share.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mrclone/internal/cluster"
	"mrclone/internal/job"
	"mrclone/internal/rng"
	"mrclone/internal/sched/late"
	"mrclone/internal/sched/mantri"
	"mrclone/internal/trace"
)

// speculativeConfig builds one Mantri or LATE configuration and its
// full-scan reference.
type speculativeConfig struct {
	name  string
	build func() (cluster.Scheduler, error)
	ref   func() cluster.Scheduler
}

func mantriConfig(cfg mantri.Config) speculativeConfig {
	return speculativeConfig{
		name:  fmt.Sprintf("mantri%+v", cfg),
		build: func() (cluster.Scheduler, error) { return mantri.New(cfg) },
		ref:   func() cluster.Scheduler { return newRefMantri(cfg) },
	}
}

func lateConfig(cfg late.Config) speculativeConfig {
	return speculativeConfig{
		name:  fmt.Sprintf("late%+v", cfg),
		build: func() (cluster.Scheduler, error) { return late.New(cfg) },
		ref:   func() cluster.Scheduler { return newRefLATE(cfg) },
	}
}

// speculativeConfigs covers the defaults and the edges of every knob that
// moves a wake-up: the check cadence, the observation window, Mantri's
// confidence threshold, LATE's speculative budget and slow-task threshold
// (0 selects the default; 0.001 puts tasks right at the phase mean).
var speculativeConfigs = []speculativeConfig{
	mantriConfig(mantri.Config{}),
	mantriConfig(mantri.Config{CheckIntervalSlots: 1, MinObservationSlots: 1, Delta: 0.05}),
	mantriConfig(mantri.Config{CheckIntervalSlots: 7, MinObservationSlots: 3, Delta: 0.9}),
	lateConfig(late.Config{}),
	lateConfig(late.Config{SpeculativeCap: 0.02, MinObservationSlots: 1, SlowTaskThreshold: 0.001}),
	lateConfig(late.Config{SpeculativeCap: 1, MinObservationSlots: 3, SlowTaskThreshold: 0.5}),
}

func runScheduler(t testing.TB, s cluster.Scheduler, loop cluster.LoopMode,
	cfg cluster.Config, specs []job.Spec) *cluster.Result {
	t.Helper()
	cfg.Loop = loop
	eng, err := cluster.New(cfg, s, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertLoopsAgree runs sc on both loops, and with withRef also its
// reference on the naive loop, and requires identical Results.
func assertLoopsAgree(t testing.TB, sc speculativeConfig, cfg cluster.Config, specs []job.Spec,
	withRef bool) {
	t.Helper()
	build := func() cluster.Scheduler {
		s, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := runScheduler(t, build(), cluster.LoopNaive, cfg, specs)
	results := map[string]*cluster.Result{"events": runScheduler(t, build(), cluster.LoopAuto, cfg, specs)}
	if withRef {
		results["reference"] = runScheduler(t, sc.ref(), cluster.LoopNaive, cfg, specs)
	}
	for name, res := range results {
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("%s %+v: %s differs from the naive loop:\nnaive: copies %d, slots %d, busy %d\n%s: copies %d, slots %d, busy %d",
				sc.name, cfg, name, ref.TotalCopies, ref.Slots, ref.MachineSlots,
				name, res.TotalCopies, res.Slots, res.MachineSlots)
		}
	}
}

func traceSpecs(t testing.TB, jobs int, seed int64) []job.Spec {
	t.Helper()
	p := trace.GoogleParams()
	p.Jobs = jobs
	p.Seed = seed
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestSpeculativeWakeEquivalence is the grid: 60- and 300-job traces, from
// heavily overloaded (jobs/3 machines) to mostly idle (4×jobs machines),
// six seeds, unit and augmented speed, every speculative configuration.
// The full-scan references run on the 60-job traces only: on 300 jobs
// they take seconds per cell.
func TestSpeculativeWakeEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13}
	for _, jobs := range []int{60, 300} {
		if jobs > 60 && testing.Short() {
			continue
		}
		for _, seed := range seeds {
			specs := traceSpecs(t, jobs, seed)
			for _, machines := range []int{jobs / 3, jobs, 2 * jobs, 4 * jobs} {
				for _, speed := range []float64{1, 1.7} {
					cfg := cluster.Config{Machines: machines, Speed: speed, Seed: seed}
					for _, sc := range speculativeConfigs {
						t.Run(fmt.Sprintf("jobs%d/seed%d/m%d/speed%g/%s", jobs, seed, machines, speed, sc.name),
							func(t *testing.T) {
								t.Parallel()
								assertLoopsAgree(t, sc, cfg, specs, jobs <= 60)
							})
					}
				}
			}
		}
	}
}

// speculative is what Mantri and LATE implement.
type speculative interface {
	cluster.Scheduler
	cluster.EventDriven
	cluster.Speculator
	cluster.RunStarter
}

// clockedScheduler forwards to a speculative scheduler and publishes the
// slot of each invocation, so a test distribution can size a copy to end on
// a chosen slot.
type clockedScheduler struct {
	speculative
	now *int64
}

func (c clockedScheduler) Schedule(ctx *cluster.Context) {
	*c.now = ctx.Now()
	c.speculative.Schedule(ctx)
}

// clockedReference is clockedScheduler for a reference implementation.
type clockedReference struct {
	ref cluster.Scheduler
	now *int64
}

func (c clockedReference) Name() string { return c.ref.Name() }
func (c clockedReference) Schedule(ctx *cluster.Context) {
	*c.now = ctx.Now()
	c.ref.Schedule(ctx)
}

// scripted is a hand-made duration distribution: copy i draws values[i],
// and a zero value, or any draw past the list, sizes the copy to end on
// slot finish — so a backup ties with an original that ends there. The
// scheduler-visible moments are fixed: the given mean, no spread.
type scripted struct {
	now    *int64
	finish int64
	values []float64
	mean   float64
	drawn  int
}

func (d *scripted) Sample(*rng.Source) float64 {
	i := d.drawn
	d.drawn++
	if i < len(d.values) && d.values[i] > 0 {
		return d.values[i]
	}
	return float64(max(1, d.finish-*d.now))
}
func (d *scripted) Mean() float64   { return d.mean }
func (d *scripted) StdDev() float64 { return 0 }

// scriptedJob describes one job of a scripted workload.
type scriptedJob struct {
	arrival         int64
	maps, reduces   int
	mapVals, redVal []float64
}

// assertScriptedAgree runs a scripted workload under sc on both loops and
// its reference on the naive loop, requires identical Results, and
// returns the number of backups launched.
func assertScriptedAgree(t testing.TB, sc speculativeConfig, machines int, finish int64,
	mean float64, jobs []scriptedJob) int64 {
	t.Helper()
	var res [3]*cluster.Result
	for i, loop := range []cluster.LoopMode{cluster.LoopNaive, cluster.LoopAuto, cluster.LoopNaive} {
		now := new(int64)
		specs := make([]job.Spec, len(jobs))
		for k, sj := range jobs {
			specs[k] = job.Spec{ID: k, Arrival: sj.arrival, Weight: 1,
				MapTasks: sj.maps, ReduceTask: sj.reduces,
				MapDist:    &scripted{now: now, finish: finish, values: sj.mapVals, mean: mean},
				ReduceDist: &scripted{now: now, finish: finish, values: sj.redVal, mean: mean}}
		}
		var s cluster.Scheduler = clockedReference{ref: sc.ref(), now: now}
		if i < 2 {
			prod, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			s = clockedScheduler{speculative: prod.(speculative), now: now}
		}
		res[i] = runScheduler(t, s, loop, cluster.Config{Machines: machines, Seed: 1, MaxSlots: 1 << 20}, specs)
	}
	for i, name := range []string{"events", "reference"} {
		if !reflect.DeepEqual(res[0], res[i+1]) {
			t.Fatalf("%d machines, finish %d, mean %v, jobs %+v, %s: %s differs from the naive loop:\nnaive: %+v\n%s: %+v",
				machines, finish, mean, jobs, sc.name, name, res[0], name, res[i+1])
		}
	}
	return res[0].CloneCopies
}

// remainingFlips reports whether BestProgress's float estimates
// elapsed*(1-f)/f of two copies that end on the same slot order one way on
// some slot and the other way on another, over the slots on which both
// have progress.
func remainingFlips(startA, startB, finish int64) bool {
	rem := func(now, start int64) float64 {
		e := float64(now - start)
		f := e / float64(finish-start)
		return e * (1 - f) / f
	}
	var less, more bool
	for now := max(startA, startB) + 1; now < finish; now++ {
		a, b := rem(now, startA), rem(now, startB)
		less = less || a < b
		more = more || b < a
	}
	return less && more
}

// randomSpeculative draws a Mantri or LATE configuration with knobs near
// their edges. LATE, whose look-ahead has more ways to go wrong, is drawn
// twice as often.
func randomSpeculative(r *rand.Rand) speculativeConfig {
	if r.Intn(3) == 0 {
		return mantriConfig(mantri.Config{
			CheckIntervalSlots:  1 + r.Int63n(7),
			MinObservationSlots: 1 + r.Int63n(8),
			Delta:               []float64{0.05, 0.25, 0.9}[r.Intn(3)],
		})
	}
	return lateConfig(late.Config{
		SpeculativeCap:      []float64{0.1, 1, 1}[r.Intn(3)],
		SlowTaskThreshold:   []float64{0.001, 0.01, 0.05, 0.25}[r.Intn(4)],
		MinObservationSlots: []int64{1, 2, 4, 8}[r.Intn(4)],
	})
}

// TestSpeculativeWakeTiedCopies hand-builds copies of one task that end on
// the same slot. A job's first map task runs from slot 0 to slot finish, a
// few short tasks stagger the start of the rest, and every later copy is
// sized to end on finish, so each backup ties with its original: the
// task's reported best copy is decided by the float comparison of two
// equal remaining times, which flips between the observed original and the
// not-yet-observed backup from one slot to the next. For Mantri a flip to
// the original makes the task eligible for another backup; for LATE it
// moves the phase mean that decides whether a sibling task is slow. A
// seeded sweep over staggers, finish slots, cluster sizes and
// configurations makes both effects occur.
func TestSpeculativeWakeTiedCopies(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var backups int64
	for range 8000 {
		vals := []float64{float64(20 + r.Intn(120))}
		for range 1 + r.Intn(5) {
			vals = append(vals, float64(1+r.Intn(8)))
		}
		jobs := []scriptedJob{{maps: 2 * len(vals), mapVals: vals}}
		backups += assertScriptedAgree(t, randomSpeculative(r), 2+r.Intn(9), int64(vals[0]), 10, jobs)
	}
	if backups == 0 {
		t.Fatal("no scenario launched a tied backup; the test lost its power")
	}
	// The ties are live: the comparison of an original started at slot 0
	// and a tied backup started a few slots later flips for some finish
	// slots in range.
	var live bool
	for finish := int64(20); finish < 140 && !live; finish++ {
		live = remainingFlips(0, 6, finish) || remainingFlips(3, 7, finish)
	}
	if !live {
		t.Fatal("float remaining-time comparison never flips for tied copies")
	}
}

// FuzzSpeculativeWake runs the three-way comparison on small random
// workloads: up to four jobs with staggered arrivals, map and reduce tasks
// with scripted integer durations (zero entries tie with the common finish
// slot), a small cluster and a random Mantri or LATE configuration.
func FuzzSpeculativeWake(f *testing.F) {
	f.Add([]byte{3, 0, 40, 9, 0, 4, 2, 60, 3, 1, 5, 0, 7, 0, 2, 9})
	f.Add([]byte{5, 1, 90, 4, 0, 8, 3, 2, 6, 1, 40, 1, 1, 0, 3, 0, 5, 0, 0, 8})
	f.Add([]byte{2, 7, 25, 2, 0, 3, 0, 1, 2, 0, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		r := rand.New(rand.NewSource(int64(data[1])))
		sc := randomSpeculative(r)
		machines := 1 + int(data[0]%10)
		finish := 20 + int64(data[2])
		mean := 1 + float64(data[3]%16)
		var jobs []scriptedJob
		rest := data[4:]
		for len(rest) >= 3 && len(jobs) < 4 {
			sj := scriptedJob{arrival: int64(rest[0] % 30), maps: int(rest[1] % 9), reduces: int(rest[2] % 4)}
			rest = rest[3:]
			if sj.maps+sj.reduces == 0 {
				sj.maps = 1
			}
			jobs = append(jobs, sj)
		}
		if len(jobs) == 0 {
			return
		}
		var vals []float64
		for _, b := range rest {
			vals = append(vals, float64(b%24))
		}
		for i := range jobs {
			jobs[i].mapVals, jobs[i].redVal = vals, vals
		}
		assertScriptedAgree(t, sc, machines, finish, mean, jobs)
	})
}

// TestSpeculativeRunStartResets reuses one instance after a run cut short
// by MaxSlots halfway, which leaves its watch state mid-flight: the next
// full run must still match a fresh instance's.
func TestSpeculativeRunStartResets(t *testing.T) {
	specs := traceSpecs(t, 60, 4)
	cfg := cluster.Config{Machines: 60, Seed: 4}
	for _, sc := range speculativeConfigs {
		fresh, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		want := runScheduler(t, fresh, cluster.LoopAuto, cfg, specs)
		inst, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		cut := cfg
		cut.MaxSlots = want.Slots / 2
		eng, err := cluster.New(cut, inst, specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err == nil {
			t.Fatalf("%s: run was not cut short; the test lost its power", sc.name)
		}
		if got := runScheduler(t, inst, cluster.LoopAuto, cfg, specs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused instance differs from a fresh one", sc.name)
		}
	}
}

// countingScheduler counts the invocations of a speculative scheduler.
type countingScheduler struct {
	speculative
	calls *int
}

func (c countingScheduler) Schedule(ctx *cluster.Context) {
	*c.calls++
	c.speculative.Schedule(ctx)
}

// TestSpeculativeWakeInvocations pins that Mantri and LATE really run on
// their wake-ups: on the event loop they are invoked on a small fraction
// of the slots the naive loop invokes them on. A scheduler that silently
// fell back to per-slot invocations would produce the same Results, and
// with allocation-free scans nearly the same speed, so only the count
// shows it.
func TestSpeculativeWakeInvocations(t *testing.T) {
	specs := traceSpecs(t, 300, 1)
	for _, sc := range []speculativeConfig{speculativeConfigs[0], speculativeConfigs[3]} {
		var calls [2]int
		for i, loop := range []cluster.LoopMode{cluster.LoopNaive, cluster.LoopAuto} {
			s, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			runScheduler(t, countingScheduler{speculative: s.(speculative), calls: &calls[i]},
				loop, cluster.Config{Machines: 600, Seed: 1}, specs)
		}
		t.Logf("%s: %d invocations on the naive loop, %d on the event loop", sc.name, calls[0], calls[1])
		if calls[1]*3 > calls[0] {
			t.Errorf("%s: %d event-loop invocations, over a third of the naive loop's %d",
				sc.name, calls[1], calls[0])
		}
	}
}
