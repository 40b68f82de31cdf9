package main

import (
	"math"
	"sort"
)

// dist summarises one metric's samples the way every number in the ledger
// is reported: the median, the quartiles around it and the sample count.
type dist struct {
	Median float64
	Q1, Q3 float64
	N      int
}

// summarize returns the median and quartiles of xs (zero dist for none).
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := sorted(xs)
	return dist{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile (0 <= q <= 1) off an ascending slice by
// linear interpolation between the two closest ranks, so the median of an
// even count is the mean of the middle pair.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b with 0 for an empty base, so a metric of a layer a
// workload never enters reads 0 and not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
