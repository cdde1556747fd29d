package main

import (
	"math"
	"testing"
)

func TestUnionNS(t *testing.T) {
	cases := []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"empty", nil, 0},
		{"single", []interval{{5, 9}}, 4},
		{"disjoint", []interval{{10, 20}, {0, 5}}, 15},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"touching", []interval{{0, 5}, {5, 8}}, 8},
		{"chain", []interval{{0, 4}, {3, 7}, {6, 10}, {20, 21}}, 11},
	}
	for _, c := range cases {
		if got := unionNS(c.ivs); got != c.want {
			t.Errorf("%s: unionNS = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestUnionNSLeavesInputOrder(t *testing.T) {
	ivs := []interval{{10, 20}, {0, 5}}
	unionNS(ivs)
	if ivs[0] != (interval{10, 20}) {
		t.Fatalf("unionNS reordered its input: %v", ivs)
	}
}

func TestSumNS(t *testing.T) {
	if got := sumNS([]interval{{0, 10}, {5, 15}}); got != 20 {
		t.Fatalf("sumNS = %d, want 20 (overlap counted per interval)", got)
	}
}

func TestStragglerNS(t *testing.T) {
	byRound := map[int][]float64{
		1: {10, 20, 30},     // max 30 - median 20
		2: {5},              // a lone call waits on no one
		3: {1, 2, 3, 10},    // max 10 - median 2.5
		4: {},               // no calls
		5: {7, 7, 7, 7, 7},  // no straggler
		6: {100, 40, 60, 0}, // max 100 - median 50
	}
	if got, want := stragglerNS(byRound), 10+7.5+50.0; got != want {
		t.Fatalf("stragglerNS = %v, want %v", got, want)
	}
	if got := stragglerNS(nil); got != 0 {
		t.Fatalf("stragglerNS(nil) = %v, want 0", got)
	}
}

// The quartiles are pinned to Python's statistics.quantiles(xs, n=4),
// which defines the spread the benchmark is accepted by.
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0}, []float64{1.25, 3.5, 9.0}},
		{[]float64{2, 1}, []float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, []float64{1.5, 3, 4.5}},
		{[]float64{4}, []float64{4, 4, 4}},
	}
	for _, c := range cases {
		got := quantiles(c.xs, 4)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	for _, q := range quantiles(nil, 4) {
		if !math.IsNaN(q) {
			t.Fatalf("quantiles(nil) = %v, want NaNs", quantiles(nil, 4))
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		if got := quantiles(c.xs, 4)[1]; got != c.want {
			t.Errorf("middle quartile of %v = %v, want the median %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median(nil) is not NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 0, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 20}, {90, 36}, {100, 40}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Fatal("percentile of no samples is not NaN")
	}
}

// A percentile is never reported without the sample count it rests on.
func TestSetPercentilesReportsSampleCount(t *testing.T) {
	m := metricSet{}
	m.setPercentiles("x_ms", "ms", []float64{1, 2, 3, 4})
	m.setPercentiles("none_ms", "ms", nil)
	want := map[string]metric{
		"x_ms.p50":    {2.5, "ms"},
		"x_ms.p90":    {3.7, "ms"},
		"x_ms.n":      {4, "count"},
		"none_ms.p50": {0, "ms"},
		"none_ms.p90": {0, "ms"},
		"none_ms.n":   {0, "count"},
	}
	if len(m) != len(want) {
		t.Fatalf("got metrics %v, want %v", m, want)
	}
	for k, w := range want {
		if g := m[k]; g.Unit != w.Unit || math.Abs(g.Value-w.Value) > 1e-12 {
			t.Errorf("%s = %+v, want %+v", k, g, w)
		}
	}
}

func TestGmean(t *testing.T) {
	if got := gmean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Fatalf("gmean = %v, want 10", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, math.NaN()}, {-1, 4}} {
		if !math.IsNaN(gmean(xs)) {
			t.Errorf("gmean(%v) is not NaN", xs)
		}
	}
}
