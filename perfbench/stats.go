package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-quantile (0 < p < 1) of xs, with the
// count of samples strictly beyond its rank. A run whose tail quantile
// has fewer than minBeyond samples past it reports no tail at all, so
// callers check beyond against minBeyond.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// minBeyond is the number of samples a reported percentile must leave
// past it.
const minBeyond = 10

// checkedPercentile is percentile that fails when the tail is too thin.
func checkedPercentile(xs []float64, p float64) (float64, int, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return v, beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p*100, len(xs), beyond, minBeyond)
	}
	return v, beyond, nil
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// cpuMSPerReq divides process CPU time (user+sys) by completed
// requests.
func cpuMSPerReq(cpu time.Duration, completed int) float64 {
	if completed <= 0 {
		return math.NaN()
	}
	return float64(cpu) / float64(time.Millisecond) / float64(completed)
}

// median of xs (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// by the same "exclusive" method as Python's statistics.quantiles(xs,
// n=4), so spreads printed here match an outside recomputation.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
