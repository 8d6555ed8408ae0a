package main

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantPct  float64
		wantRank int // 1-based rank of the reported value
	}{
		{n: 11, wantPct: 100.0 / 11, wantRank: 1},
		{n: 20, wantPct: 50, wantRank: 10},
		{n: 100, wantPct: 90, wantRank: 90},
		{n: 1000, wantPct: 99, wantRank: 990},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // descending: the function must sort
		}
		v, pct, ok := tailPercentile(samples)
		if !ok || pct != tc.wantPct || v != float64(tc.wantRank) {
			t.Errorf("n=%d: got value %v pct %v ok %v, want rank %d pct %v",
				tc.n, v, pct, ok, tc.wantRank, tc.wantPct)
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if beyond != minBeyondTail {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyondTail)
		}
	}
	if _, _, ok := tailPercentile(make([]float64, minBeyondTail)); ok {
		t.Errorf("%d samples leave no percentile with %d beyond it", minBeyondTail, minBeyondTail)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestTallyCountsWrongBytes checks error_rate accounting: failed, refused and
// wrong-byte requests each count once against the attempted requests.
func TestTallyCountsWrongBytes(t *testing.T) {
	next := newSweepStream(DefaultSeed)
	q := next()
	ref := artifacts{json: []byte(`{"cells":[]}`), csv: []byte("a,b\n"), agg: []byte("c,d\n")}
	hash := mustHash(q.body)
	byHash := map[string]*distinct{hash: {hash: hash, body: q.body, ref: ref}}

	good := func() *artifacts {
		a := artifacts{json: bytes.Clone(ref.json), csv: bytes.Clone(ref.csv), agg: bytes.Clone(ref.agg)}
		return &a
	}
	flipped := good()
	flipped.csv[0] ^= 1
	warmQ := q
	warmQ.format = "aggregate"
	wrongAgg := ref.agg[:len(ref.agg)-1]

	outs := []outcome{
		{req: q, lat: time.Millisecond, got: served{hash: hash, all: good()}},
		{req: q, lat: time.Millisecond, got: served{hash: hash, all: flipped}},
		{req: q, err: errors.New("HTTP 429"), got: served{}},
		{req: q, got: served{hash: "other", all: good()}},
		{req: warmQ, lat: 2 * time.Millisecond, got: served{hash: hash, digest: sum(ref.agg)}},
		{req: warmQ, got: served{hash: hash, digest: sum(wrongAgg)}},
	}
	rep := &report{attempted: len(outs)}
	samples := tally(rep, outs, byHash, map[string]bool{})
	if rep.failed != 4 || correct(samples) != 2 || len(samples) != len(outs) {
		t.Fatalf("failed %d, correct %d of %d; want 4 and 2 of %d",
			rep.failed, correct(samples), len(samples), len(outs))
	}
	if got := errorRate(rep.attempted, rep.failed); got != 4.0/6 {
		t.Errorf("error rate %v, want 4/6", got)
	}

	// A whole-spec check failure (pin, resubmit, owner) fails every request
	// of the spec.
	rep = &report{attempted: len(outs)}
	if samples := tally(rep, outs, byHash, map[string]bool{hash: true}); correct(samples) != 0 || rep.failed != 6 {
		t.Errorf("bad spec: failed %d, correct %d; want 6 and 0", rep.failed, correct(samples))
	}
}

func correct(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

func TestStreamsAreDeterministic(t *testing.T) {
	type gen func(seed int64) func() request
	streams := map[string]gen{
		"event-sweep":           newSweepStream,
		"speculation-baselines": newSpeculationStream,
		"warm-gateway-mix/0":    func(s int64) func() request { return newWarmStream(s, 0) },
		"warm-gateway-mix/1":    func(s int64) func() request { return newWarmStream(s, 1) },
	}
	draw := func(g gen, seed int64) [][]byte {
		next := g(seed)
		var out [][]byte
		for i := 0; i < 200; i++ {
			q := next()
			out = append(out, append([]byte(q.format+" "), q.body...))
		}
		return out
	}
	for name, g := range streams {
		a, b, c := draw(g, DefaultSeed), draw(g, DefaultSeed), draw(g, HeldOutSeed)
		same, differs := true, false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differs = differs || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: the same seed gave different requests", name)
		}
		if !differs {
			t.Errorf("%s: seeds %d and %d gave the same requests", name, DefaultSeed, HeldOutSeed)
		}
	}
	c0, _ := warmCorpus(DefaultSeed)
	c1, _ := warmCorpus(HeldOutSeed)
	if bytes.Equal(c0[0].body, c1[0].body) {
		t.Error("warm corpus does not depend on the seed")
	}
}

// TestStreamsAreValidAndCold checks that every generated spec parses and that
// cold streams never repeat a spec (a repeat would be served warm).
func TestStreamsAreValidAndCold(t *testing.T) {
	for name, g := range map[string]func(int64) func() request{
		"event-sweep": newSweepStream, "speculation-baselines": newSpeculationStream,
	} {
		next := g(HeldOutSeed)
		seen := map[string]bool{}
		for i := 0; i < 100; i++ {
			h := mustHash(next().body)
			if h == "" || seen[h] {
				t.Fatalf("%s: request %d is invalid or repeats a spec", name, i)
			}
			seen[h] = true
		}
	}
	next := newWarmStream(HeldOutSeed, 1)
	kinds := map[string]int{}
	for i := 0; i < 2000; i++ {
		q := next()
		if mustHash(q.body) == "" {
			t.Fatalf("warm request %d is invalid", i)
		}
		kinds[q.kind]++
	}
	for _, k := range []string{"resubmit", "recombine", "partial"} {
		if kinds[k] == 0 {
			t.Errorf("warm stream never produced a %s request: %v", k, kinds)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Layer: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "b", Start: 30, End: 50},
		{ID: 3, Parent: 1, Layer: "c", Start: 20, End: 25},
	}}
	got := map[string]float64{}
	for _, l := range tr.selfTimes() {
		got[l.layer] = l.ms * 1e6
	}
	want := map[string]float64{"request": 60, "a": 25, "b": 20, "c": 5}
	for k, v := range want {
		if d := got[k] - v; d > 1e-6 || d < -1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", k, got[k], v)
		}
	}
}

// TestSlicedPeakCountsRequests checks that peak_rss_mib follows the request
// count, not the clock: a run twice as slow, whose memory grows by the same
// amount per request, reports the same value; and that a lone spike in one
// slice of a flat run does not move the median.
func TestSlicedPeakCountsRequests(t *testing.T) {
	run := func(perReq time.Duration, growth float64, spikeAt int) float64 {
		var done []time.Duration
		var samples []rssSample
		for i := 1; i <= 100; i++ {
			done = append(done, time.Duration(i)*perReq)
		}
		for at := time.Duration(0); at <= 100*perReq; at += perReq / 4 {
			mib := 20 + growth*float64(at/perReq)
			if int(at/perReq) == spikeAt {
				mib += 50
			}
			samples = append(samples, rssSample{at: at, mib: mib})
		}
		return slicedPeak(samples, done, 100)
	}
	fast, slow := run(10*time.Millisecond, 1, -1), run(20*time.Millisecond, 1, -1)
	if fast != slow {
		t.Errorf("fast run %v MiB, slow run %v MiB: the value follows the clock", fast, slow)
	}
	if want := 20.0 + 55; fast != want {
		t.Errorf("median of slice peaks = %v MiB, want %v", fast, want)
	}
	if spiked := run(10*time.Millisecond, 0, 5); spiked != 20 {
		t.Errorf("one spike moved the median of a flat run to %v MiB", spiked)
	}
}
