package dist

import (
	"math"
	"runtime"
)

// fixedPow evaluates math.Pow(x, y) for one exponent y fixed in advance,
// bit for bit. Go's portable math.Pow spends much of a call classifying y
// and splitting it into integer and fractional parts; with y fixed that
// work is done once, by newFixedPow, and each call of at runs only the
// x-dependent tail of the same algorithm: Exp(yf*Log(x)) for the fraction, then repeated squaring
// for the integer part. For the trace's within-job alpha of 2.5 that is
// exactly 1/Exp(0.4*Log(x)).
//
// Inputs Pow treats specially (x = 1, zero, negative, infinite or NaN) and
// exponents it treats specially (including ±0.5, which it computes with
// Sqrt) go through math.Pow itself, as does every input on platforms whose
// math.Pow is not the portable algorithm.
type fixedPow struct {
	y     float64
	split bool    // the tail below applies; otherwise defer to math.Pow
	yi    int64   // integer part of |y|, after Pow's rounding of the fraction
	yf    float64 // fractional part of |y|, in (-0.5, 0.5]
}

// newFixedPow prepares y the way math.Pow would on every call.
func newFixedPow(y float64) fixedPow {
	p := fixedPow{y: y}
	switch {
	case runtime.GOARCH == "s390x": // math.Pow is assembly there
	case y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0):
	default:
		yi, yf := math.Modf(math.Abs(y))
		if yi >= 1<<63 {
			break // Pow's overflow shortcut
		}
		if yf > 0.5 {
			yf--
			yi++
		}
		p.split, p.yi, p.yf = true, int64(yi), yf
	}
	return p
}

// at returns math.Pow(x, p.y).
func (p fixedPow) at(x float64) float64 {
	if !p.split || !(x > 0 && x <= math.MaxFloat64) || x == 1 {
		return math.Pow(x, p.y)
	}
	a1 := 1.0
	ae := 0
	if p.yf != 0 {
		a1 = math.Exp(p.yf * math.Log(x))
	}
	if p.yi != 0 {
		x1, xe := math.Frexp(x)
		for i := p.yi; i != 0; i >>= 1 {
			if xe < -1<<12 || 1<<12 < xe {
				ae += xe
				break
			}
			if i&1 == 1 {
				a1 *= x1
				ae += xe
			}
			x1 *= x1
			xe <<= 1
			if x1 < .5 {
				x1 += x1
				xe--
			}
		}
	}
	if p.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	if ae == 0 {
		return a1 // Ldexp(a1, 0) == a1 for every float64
	}
	return math.Ldexp(a1, ae)
}
