package main

import (
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is how the benchmark's spreads are
// judged. Fewer than two values give that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const parts = 4
	m := n + 1
	var q [parts - 1]float64
	for i := 1; i < parts; i++ {
		j := min(max(i*m/parts, 1), n-1)
		delta := i*m - j*parts
		q[i-1] = (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return q[0], q[1], q[2]
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
