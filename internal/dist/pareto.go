package dist

import (
	"fmt"
	"math"

	"mrclone/internal/rng"
)

// Pareto is the type-I Pareto distribution with minimum Xm and tail index
// Alpha: P(X > x) = (Xm/x)^Alpha for x >= Xm. It is the paper's straggler
// model — machine service-time degradation is heavy-tailed — and the
// distribution under which min-of-k cloning has the closed-form speedup
// implemented by ParetoSpeedup.
//
// The mean is Alpha*Xm/(Alpha-1) for Alpha > 1 and +Inf otherwise; the
// standard deviation is finite only for Alpha > 2.
type Pareto struct {
	Xm, Alpha float64
}

var _ Distribution = Pareto{}

// NewPareto returns a Pareto distribution with minimum xm > 0 and tail index
// alpha > 0.
func NewPareto(xm, alpha float64) (Distribution, error) {
	if math.IsNaN(xm) || math.IsInf(xm, 0) || xm <= 0 {
		return nil, fmt.Errorf("%w: pareto minimum %v", ErrBadParam, xm)
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 0 {
		return nil, fmt.Errorf("%w: pareto alpha %v", ErrBadParam, alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// Sample implements Distribution by inverting the CDF: Xm * (1-U)^(-1/Alpha).
func (p Pareto) Sample(src *rng.Source) float64 {
	u := 1 - src.Float64() // (0, 1]: avoids the infinite draw at U = 1
	return p.Xm * math.Pow(u, -1/p.Alpha)
}

// SampleN implements BatchSampler.
func (p Pareto) SampleN(dst []float64, src *rng.Source) {
	exp := -1 / p.Alpha
	for i := range dst {
		dst[i] = p.Xm * math.Pow(1-src.Float64(), exp)
	}
}

// Mean implements Distribution.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// StdDev implements Distribution.
func (p Pareto) StdDev() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	return p.Xm / (p.Alpha - 1) * math.Sqrt(p.Alpha/(p.Alpha-2))
}

// BoundedPareto is the Pareto distribution truncated to the support
// [Lo, Hi]. Truncation keeps every moment finite for any Alpha > 0, which is
// what lets the trace generator use tail indexes below 1 for task counts
// (Table II's mean of 26.31 tasks against a cap of 500 needs alpha < 1).
type BoundedPareto struct {
	Lo, Hi, Alpha float64
}

var _ Distribution = BoundedPareto{}

// NewBoundedPareto returns a Pareto distribution truncated to [lo, hi],
// requiring 0 < lo < hi and alpha > 0. The returned sampler caches what a
// draw does not depend on — the truncation constant and the split of the
// exponent -1/alpha that math.Pow would redo per call — and the analytic
// moments. It matters because the engine samples one duration per task
// copy, millions of draws per experiment, and reads a job's phase moments
// every run.
func NewBoundedPareto(lo, hi, alpha float64) (Distribution, error) {
	if math.IsNaN(lo) || math.IsInf(lo, 0) || lo <= 0 {
		return nil, fmt.Errorf("%w: bounded pareto lower bound %v", ErrBadParam, lo)
	}
	if math.IsNaN(hi) || math.IsInf(hi, 0) || hi <= lo {
		return nil, fmt.Errorf("%w: bounded pareto bounds [%v, %v]", ErrBadParam, lo, hi)
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 0 {
		return nil, fmt.Errorf("%w: bounded pareto alpha %v", ErrBadParam, alpha)
	}
	b := BoundedPareto{Lo: lo, Hi: hi, Alpha: alpha}
	p := b.prepare()
	p.mean, p.stdDev = b.Mean(), b.StdDev()
	return p, nil
}

// preparedBoundedPareto is a BoundedPareto with every term a draw does not
// depend on precomputed, and its moments cached; every value it returns is
// bit-identical to the literal's.
type preparedBoundedPareto struct {
	BoundedPareto
	span         float64  // 1-(Lo/Hi)^Alpha
	pow          fixedPow // x^(-1/Alpha)
	mean, stdDev float64
}

// prepare precomputes b's sampling terms. It leaves the moments zero, so
// the literal's SampleN can prepare once per batch without computing them.
func (b BoundedPareto) prepare() preparedBoundedPareto {
	return preparedBoundedPareto{
		BoundedPareto: b,
		span:          1 - math.Pow(b.Lo/b.Hi, b.Alpha),
		pow:           newFixedPow(-1 / b.Alpha),
	}
}

// draw maps one uniform u in [0, 1) to a variate, exactly as Sample does.
func (b *preparedBoundedPareto) draw(u float64) float64 {
	x := b.Lo * b.pow.at(1-u*b.span)
	if x > b.Hi {
		return b.Hi // guards round-off at the upper edge
	}
	return x
}

// Sample implements Distribution.
func (b preparedBoundedPareto) Sample(src *rng.Source) float64 {
	return b.draw(src.Float64())
}

// SampleN implements BatchSampler: the engine's hottest sampling path.
func (b preparedBoundedPareto) SampleN(dst []float64, src *rng.Source) {
	for i := range dst {
		dst[i] = b.draw(src.Float64())
	}
}

// Mean implements Distribution with the cached moment.
func (b preparedBoundedPareto) Mean() float64 { return b.mean }

// StdDev implements Distribution with the cached moment.
func (b preparedBoundedPareto) StdDev() float64 { return b.stdDev }

// Sample implements Distribution by inverting the truncated CDF:
// Lo * (1 - U*(1-(Lo/Hi)^Alpha))^(-1/Alpha), which maps U=0 to Lo and U->1
// to Hi, so every draw lies inside the support.
func (b BoundedPareto) Sample(src *rng.Source) float64 {
	theta := math.Pow(b.Lo/b.Hi, b.Alpha)
	x := b.Lo * math.Pow(1-src.Float64()*(1-theta), -1/b.Alpha)
	if x > b.Hi {
		return b.Hi // guards round-off at the upper edge
	}
	return x
}

// SampleN implements BatchSampler, preparing the sampling terms once per
// batch (Sample recomputes the truncation constant per draw).
func (b BoundedPareto) SampleN(dst []float64, src *rng.Source) {
	b.prepare().SampleN(dst, src)
}

// Mean implements Distribution.
func (b BoundedPareto) Mean() float64 { return b.moment(1) }

// StdDev implements Distribution.
func (b BoundedPareto) StdDev() float64 {
	m := b.moment(1)
	v := b.moment(2) - m*m
	if v <= 0 {
		return 0 // round-off on nearly degenerate supports
	}
	return math.Sqrt(v)
}

// moment returns E[X^k] for the truncated Pareto:
//
//	E[X^k] = Alpha*Lo^Alpha/(1-(Lo/Hi)^Alpha) * (Hi^(k-Alpha)-Lo^(k-Alpha))/(k-Alpha)
//
// with the k = Alpha limit Alpha*Lo^Alpha/(1-(Lo/Hi)^Alpha) * ln(Hi/Lo).
func (b BoundedPareto) moment(k float64) float64 {
	theta := math.Pow(b.Lo/b.Hi, b.Alpha)
	c := b.Alpha * math.Pow(b.Lo, b.Alpha) / (1 - theta)
	if d := k - b.Alpha; math.Abs(d) > 1e-9 {
		return c * (math.Pow(b.Hi, d) - math.Pow(b.Lo, d)) / d
	}
	return c * math.Log(b.Hi/b.Lo)
}
