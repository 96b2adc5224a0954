package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so the spread
// printed here is the one the acceptance rule is stated in. Fewer than two
// values have no spread: all three cut points are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank percentile of v (p in (0,1)). A
// percentile is only meaningful with at least ten samples beyond it; with
// fewer it returns 0, which the per-layer tables read as "not resolved at
// this sample count".
func percentile(v []float64, p float64) float64 {
	n := len(v)
	if float64(n)*(1-p) < 10 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b with an idle denominator reading as 0 rather than NaN:
// layer metrics are emitted on every workload, including those that never
// reach the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
