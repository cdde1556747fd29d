package main

import (
	"math"
	"sort"
)

// interval is a half-open [start, end) span in nanoseconds of the
// probe clock.
type interval struct{ start, end int64 }

// unionNS returns the total length covered by the intervals, counting
// overlapping stretches once.
func unionNS(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// sumNS returns the summed length of the intervals, overlaps counted
// once per interval.
func sumNS(ivs []interval) int64 {
	var total int64
	for _, iv := range ivs {
		total += iv.end - iv.start
	}
	return total
}

// stragglerNS sums, over rounds, the slowest call's duration minus the
// round's median call duration: the time each round waited on its
// slowest client beyond a typical one. Rounds are keyed by index; a
// round with a single call contributes nothing.
func stragglerNS(byRound map[int][]float64) float64 {
	keys := make([]int, 0, len(byRound))
	for k := range byRound {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total float64
	for _, k := range keys {
		d := byRound[k]
		if len(d) == 0 {
			continue
		}
		max := d[0]
		for _, v := range d[1:] {
			if v > max {
				max = v
			}
		}
		total += max - median(d)
	}
	return total
}

// quantiles cuts xs into n groups of equal probability and returns the
// n-1 cut points, computed like Python's statistics.quantiles with its
// default "exclusive" method, which the benchmark's acceptance spread
// is defined by. A single value is every cut point; no values give
// NaNs.
func quantiles(xs []float64, n int) []float64 {
	out := make([]float64, n-1)
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	case 1:
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}

// median is the middle value of xs (mean of the two middle values for
// an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	r := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(r))
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[lo] + (r-float64(lo))*(d[lo+1]-d[lo])
}

// gmean is the geometric mean of positive values; NaN when any value
// is not positive or there are none.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
