// Command perfbench is the repository's end-to-end benchmark. One request is
// one spec's JSON bytes going in and artifact bytes coming out; a workload is
// a seeded stream of such requests driven against the simulation service
// in-process (cold workloads) or over loopback HTTP through a gateway in
// front of two shards (warm workload). Every artifact byte is checked.
//
// With -trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with -trace 1 the same workload runs with spans
// recorded around each of the benchmark's calls into the program, followed by
// per-layer probes, and the JSON carries the per-layer metrics. Human-readable
// lines before it print every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// DefaultSeed is the seed the pinned digests in pins.json were made with;
// HeldOutSeed is the seed a later gain claim must also hold on.
const (
	DefaultSeed = 1
	HeldOutSeed = 9137
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // directory for run data and span files
}

func main() {
	var o options
	var trace int
	var pin string
	flag.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for run data and span files")
	flag.StringVar(&pin, "pin", "", "write the default-seed digests to this file instead of measuring")
	flag.Parse()
	o.traced = trace == 1
	if pin != "" {
		if err := writePins(pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 || o.out == "" {
		return errors.New("need -seconds > 0 and -out")
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	// The run's data dirs are left in place: deleting tens of thousands of
	// files on a filesystem mounted with online discard slows the fsyncs of
	// whatever runs next. Remove the -out directory by hand.
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}

	r := &runCtx{opts: o, dir: dir, pins: pins.Workloads[o.workload]}
	if o.seed != DefaultSeed {
		r.pins = nil
	}
	if o.traced {
		r.tr = newTracer()
	}
	rep, err := w(r)
	if err != nil {
		return err
	}
	if r.tr != nil {
		name := fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)
		if err := r.tr.writeFile(filepath.Join(o.out, name)); err != nil {
			return err
		}
		for _, l := range r.tr.selfTimes() {
			fmt.Printf("%s self_ms.%s %.3f ms (%d spans)\n", o.workload, l.layer, l.ms, l.n)
		}
	}
	return rep.print(o)
}

// report is what a workload run hands back for printing.
type report struct {
	attempted int
	failed    int
	problems  []string          // whole-run check failures, one line each
	e2e       map[string]metric // end-to-end metrics (also printed when traced)
	layers    map[string]metric // per-layer metrics; traced runs only
	notes     []string          // extra human-readable lines
}

func (rep *report) fail(format string, args ...any) {
	rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
}

func (rep *report) print(o options) error {
	for _, n := range rep.notes {
		fmt.Printf("%s %s\n", o.workload, n)
	}
	for _, p := range rep.problems {
		fmt.Printf("%s CHECK FAILED: %s\n", o.workload, p)
	}
	fmt.Printf("%s error_rate %.6f ratio (%d failed of %d attempted)\n",
		o.workload, errorRate(rep.attempted, rep.failed), rep.failed, rep.attempted)
	printMetrics(o.workload, rep.e2e)
	out := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    min(rep.failed+len(rep.problems), rep.attempted),
		Metrics:   rep.e2e,
	}
	if o.traced {
		printMetrics(o.workload, rep.layers)
		out.Metrics = rep.layers
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", workload, n, metrics[n].Value, metrics[n].Unit)
	}
}

// runCtx is the state shared by one run's phases.
type runCtx struct {
	opts options
	dir  string
	pins *workloadPins // nil unless running the default seed
	tr   *tracer       // nil when untraced
	// copies is the per-scheduler copy count of the cell replays.
	copies map[string]int64
}

func (r *runCtx) windowLength() time.Duration {
	return time.Duration(r.opts.seconds * float64(time.Second))
}
