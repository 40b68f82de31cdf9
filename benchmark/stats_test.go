package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{1, 3}, 0.5, 2},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.99, 4.96},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(sorted(c.xs), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	d := summarize(xs)
	if d.Median != 5 || d.Q1 != 3 || d.Q3 != 7 || d.N != 5 {
		t.Errorf("summarize = %+v, want median 5, quartiles 3 and 7, n 5", d)
	}
	if xs[0] != 9 || xs[4] != 7 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
	if z := summarize(nil); z != (dist{}) {
		t.Errorf("summarize(nil) = %+v, want zero", z)
	}
}

func TestRatioOfEmptyBaseIsZero(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Errorf("ratio(3,0) = %v, ratio(3,2) = %v", ratio(3, 0), ratio(3, 2))
	}
}
