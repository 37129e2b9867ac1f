package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (q in [0,1]) of xs by linear
// interpolation between closest ranks; NaN for an empty sample. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond is the number of samples of an n-sample set that lie strictly
// above its p-th percentile (p in percent).
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9)) // 1e-9: 100-99.9 is not exact
}

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest of tailPercentiles that has at least
// ten samples beyond it in an n-sample set, and false when even the
// median has fewer.
func highestTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}
