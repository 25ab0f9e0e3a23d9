package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a streaming aggregate over a sequence of observations: count,
// Welford mean/variance, extremes, a t-based 95% confidence interval on the
// mean, and P50/P90/P99 quantile estimates. It retains O(1) state regardless
// of how many values are observed — the Monte-Carlo campaigns in
// internal/campaign fold tens of thousands of replicates into one Summary
// without keeping any of them — and it is a pure value type: the zero value
// is an empty summary, copies are independent, and Observe never allocates.
//
// The mean and variance use Welford's online algorithm, which is numerically
// stable for long streams. The quantiles use the P² algorithm (Jain &
// Chlamtac, CACM 1985): five markers per tracked quantile, adjusted with a
// piecewise-parabolic prediction as values stream in. P² estimates are exact
// while the observation count is at most five and approximate beyond that;
// for the tightly clustered integer metrics a campaign aggregates they stay
// within a marker spacing of the exact order statistic. Every operation is
// deterministic in the observation order, which the campaign layer fixes to
// replicate order independent of worker scheduling.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64

	q50 p2Estimator
	q90 p2Estimator
	q99 p2Estimator
}

// Observe folds one value into the summary.
func (s *Summary) Observe(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
		s.q50.init(0.50)
		s.q90.init(0.90)
		s.q99.init(0.99)
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	// float64() rounds the product, so arm64 cannot fuse it into an FMA.
	s.m2 += float64(delta * (x - s.mean))

	s.q50.observe(x)
	s.q90.observe(x)
	s.q99.observe(x)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min and Max return the extremes (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n < 1 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the two-sided 95% Student-t confidence
// interval on the mean: mean ± CI95() covers the expected value at the 95%
// level under the usual normality assumption. It is 0 with fewer than two
// observations (no variance estimate exists).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCritical95(s.n-1) * s.StdErr()
}

// Quantile returns the streaming estimate of the p-quantile for the tracked
// targets 0.5, 0.9 and 0.99. Other targets are not tracked and report NaN.
func (s *Summary) Quantile(p float64) float64 {
	switch p {
	case 0.5:
		return s.q50.value()
	case 0.9:
		return s.q90.value()
	case 0.99:
		return s.q99.value()
	default:
		return math.NaN()
	}
}

// String renders the summary in one line: mean ±CI95 [min..max] (n=count).
func (s *Summary) String() string {
	return fmt.Sprintf("%s ±%s [%s..%s] (n=%d)",
		Format(s.mean), Format(s.CI95()), Format(s.min), Format(s.max), s.n)
}

// tTable holds the two-sided 95% Student-t critical values for small degrees
// of freedom; beyond the table the normal limit applies.
var tTable = [...]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
	16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
	21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
	26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom: exact table values through df = 30, then a monotone
// large-df approximation that converges to the normal 1.9600.
func tCritical95(df int64) float64 {
	if df < 1 {
		return 0
	}
	if df < int64(len(tTable)) {
		return tTable[df]
	}
	// Fitted tail: t(df) ≈ z + (z³+z)/(4·df), the leading term of the
	// Cornish-Fisher expansion, accurate to ~0.001 for df > 30.
	const z = 1.959964
	return z + (z*z*z+z)/(4*float64(df))
}

// p2Estimator is one P² quantile tracker: five markers whose heights bracket
// the target quantile, adjusted per observation. All state is inline arrays
// so the estimator is copyable and Observe is allocation-free.
type p2Estimator struct {
	p       float64
	n       int64
	heights [5]float64
	pos     [5]float64
}

// init resets the estimator for a target quantile.
func (e *p2Estimator) init(p float64) {
	*e = p2Estimator{p: p}
}

// observe folds one value in.
func (e *p2Estimator) observe(x float64) {
	if e.n < 5 {
		// Collection phase: store and keep sorted.
		i := int(e.n)
		e.heights[i] = x
		for i > 0 && e.heights[i-1] > e.heights[i] {
			e.heights[i-1], e.heights[i] = e.heights[i], e.heights[i-1]
			i--
		}
		e.n++
		if e.n == 5 {
			for j := range e.pos {
				e.pos[j] = float64(j + 1)
			}
		}
		return
	}

	// Locate the cell containing x and update the extreme markers.
	var k int
	switch {
	case x < e.heights[0]:
		e.heights[0] = x
		k = 0
	case x >= e.heights[4]:
		e.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.heights[k+1] {
				break
			}
		}
	}
	e.n++
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}

	// Desired marker positions for the current count.
	// float64() rounds each product, so arm64 cannot fuse it into an FMA.
	np := float64(float64(e.n-1)*e.p) + 1
	desired := [5]float64{
		1,
		1 + float64(float64(e.n-1)*e.p/2),
		np,
		1 + float64(float64(e.n-1)*(1+e.p)/2),
		float64(e.n),
	}

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := desired[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := e.parabolic(i, sign)
			if e.heights[i-1] < h && h < e.heights[i+1] {
				e.heights[i] = h
			} else {
				e.heights[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving marker
// i one position in direction sign.
func (e *p2Estimator) parabolic(i int, sign float64) float64 {
	num1 := e.pos[i] - e.pos[i-1] + sign
	num2 := e.pos[i+1] - e.pos[i] - sign
	den := e.pos[i+1] - e.pos[i-1]
	// float64() rounds the product, so arm64 cannot fuse it into an FMA.
	return e.heights[i] + float64(sign/den*(num1*(e.heights[i+1]-e.heights[i])/(e.pos[i+1]-e.pos[i])+
		num2*(e.heights[i]-e.heights[i-1])/(e.pos[i]-e.pos[i-1])))
}

// linear is the fallback height prediction when the parabolic one would
// violate marker ordering.
func (e *p2Estimator) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return e.heights[i] + sign*(e.heights[j]-e.heights[i])/(e.pos[j]-e.pos[i])
}

// value returns the current quantile estimate. With five or fewer
// observations it is the exact order statistic (nearest-rank on the sorted
// collection buffer); beyond that, the centre marker's height.
func (e *p2Estimator) value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n <= 5 {
		vals := e.heights[:e.n]
		if !sort.Float64sAreSorted(vals) {
			// Collection buffer is kept sorted by observe; defensive only.
			sort.Float64s(vals)
		}
		rank := int(math.Ceil(e.p * float64(e.n)))
		if rank < 1 {
			rank = 1
		}
		return vals[rank-1]
	}
	return e.heights[2]
}
