package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of vals by the nearest-rank
// rule; vals is sorted in place. Empty input yields NaN so a missing
// measurement can never pass for a zero.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (exclusive
// method), which is what the acceptance procedure computes spreads with.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func p50(v []float64) float64 { return quantile(v, 0.50) }
func p99(v []float64) float64 { return quantile(v, 0.99) }
