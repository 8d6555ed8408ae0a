package dist

import (
	"math"
	"math/rand"
	"testing"

	"mrclone/internal/rng"
)

// powAlphas are the tail indexes the exactness checks cover: the trace's
// task-count range below 1, the Pow special cases y = -1 and y = -0.5, the
// trace's within-job alpha of 2.5, and a light tail.
var powAlphas = []float64{0.3, 0.9, 1, 1.5, 2, 2.5, 7}

// powEdges are inputs at the edges of the samplers' domain (0, 1] and the
// special cases math.Pow handles before its general algorithm.
var powEdges = []float64{
	1, math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 1), 0x1p-53, 0x1p-1022,
	math.Nextafter(0x1p-1022, 0), math.SmallestNonzeroFloat64, 1e-300, 1e-10,
	0, math.Copysign(0, -1), -1, -0.25, 2, 3.5, 1e300, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// checkFixedPow fails unless fixedPow reproduces math.Pow(x, y) bit for bit.
func checkFixedPow(t *testing.T, y, x float64) {
	t.Helper()
	got, want := newFixedPow(y).at(x), math.Pow(x, y)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("Pow(%v, %v): fixed %v (%#x), math.Pow %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFixedPowMatchesPow checks the prepared exponent against math.Pow on
// edge inputs and on random bit patterns in (0, 1] — uniform over the
// representable values, so subnormals and tiny inputs are well covered —
// for the samplers' exponents -1/alpha and a few special exponents.
func TestFixedPowMatchesPow(t *testing.T) {
	ys := []float64{0.5, -0.5, 2, -2, 0, 1, 1.5, -1.75, 1e-20, 1e20, math.Inf(1), math.NaN()}
	for _, a := range powAlphas {
		ys = append(ys, -1/a, 1/a)
	}
	r := rand.New(rand.NewSource(1))
	one := math.Float64bits(1)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, y := range ys {
		for _, x := range powEdges {
			checkFixedPow(t, y, x)
		}
		for i := 0; i < n; i++ {
			checkFixedPow(t, y, math.Float64frombits(1+uint64(r.Int63n(int64(one)))))
			checkFixedPow(t, y, 1-r.Float64())
		}
	}
}

// TestPreparedBoundedParetoExact checks the constructor's sampler against
// the bare inverse-CDF formula on the same stream, draw for draw, and its
// cached moments against the literal's.
func TestPreparedBoundedParetoExact(t *testing.T) {
	for _, a := range powAlphas {
		d, err := NewBoundedPareto(1, 500, a)
		if err != nil {
			t.Fatal(err)
		}
		lit := BoundedPareto{Lo: 1, Hi: 500, Alpha: a}
		if d.Mean() != lit.Mean() || d.StdDev() != lit.StdDev() {
			t.Fatalf("alpha %v: cached moments (%v, %v), literal (%v, %v)",
				a, d.Mean(), d.StdDev(), lit.Mean(), lit.StdDev())
		}
		const n = 4096
		bare := make([]float64, n)
		src := rng.New(int64(a * 10))
		theta := math.Pow(lit.Lo/lit.Hi, a)
		for i := range bare {
			bare[i] = min(lit.Lo*math.Pow(1-src.Float64()*(1-theta), -1/a), lit.Hi)
		}
		samplers := map[string]func(dst []float64, src *rng.Source){
			"prepared SampleN": d.(BatchSampler).SampleN,
			"literal SampleN":  lit.SampleN,
			"prepared Sample": func(dst []float64, src *rng.Source) {
				for i := range dst {
					dst[i] = d.Sample(src)
				}
			},
			"literal Sample": func(dst []float64, src *rng.Source) {
				for i := range dst {
					dst[i] = lit.Sample(src)
				}
			},
		}
		for name, fill := range samplers {
			got := make([]float64, n)
			fill(got, rng.New(int64(a*10)))
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(bare[i]) {
					t.Fatalf("alpha %v, %s draw %d: %v, bare formula %v", a, name, i, got[i], bare[i])
				}
			}
		}
	}
}

// FuzzFixedPow checks the prepared exponent against math.Pow on arbitrary
// (y, x) pairs; the seed corpus holds the samplers' exponents at the edge
// inputs.
func FuzzFixedPow(f *testing.F) {
	for _, a := range powAlphas {
		for _, x := range powEdges {
			f.Add(-1/a, x)
		}
	}
	f.Fuzz(func(t *testing.T, y, x float64) {
		checkFixedPow(t, y, x)
	})
}
