package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The end-to-end times are reported at a reference host speed, because
// a shared host's speed for identical work moves by a third within
// minutes, more than a benchmark bound allows. Before each untraced
// run the benchmark times the yardstick, a fixed piece of work written
// in this package, so no change to the program moves it; every
// end-to-end time is scaled by yardstickRefS over the invocation's
// median yardstick time. A program that gets faster reads faster; a
// host that gets slower for everything does not move the figures.

// yardstickRefS is the yardstick's median time on the reference host, a
// 2-vCPU Intel Xeon virtual machine, at GOMAXPROCS 2: the speed the
// end-to-end times are reported at.
const yardstickRefS = 0.17

// yardstickRows is the size of each goroutine's fixed data set.
const yardstickRows = 4096

// yardstick runs the fixed work on procs goroutines at once, as the
// engine's clients do, and returns its wall time in seconds.
func yardstick(procs int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			yardstickSink[g%len(yardstickSink)] = stumps(uint64(g+1)) + matmul(uint64(g+1))
		}(g)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// yardstickSink keeps the compiler from dropping the work.
var yardstickSink [64]float64

// stumps finds the best single split of a fixed pseudo-random target
// over each of eight features, twenty times, sorting and allocating as
// a tree learner does.
func stumps(seed uint64) float64 {
	s := seed
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
	x := make([][]float64, 8)
	for f := range x {
		x[f] = make([]float64, yardstickRows)
		for i := range x[f] {
			x[f][i] = next()
		}
	}
	y := make([]float64, yardstickRows)
	for i := range y {
		y[i] = math.Sin(6*x[0][i]) + x[1][i]*x[2][i] + 0.1*next()
	}
	best := math.Inf(1)
	for rep := 0; rep < 20; rep++ {
		for _, col := range x {
			idx := make([]int, yardstickRows)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
			var sum, sq float64
			for _, i := range idx {
				sum += y[i]
				sq += y[i] * y[i]
			}
			var ls, lq float64
			for k, i := range idx[:len(idx)-1] {
				ls += y[i]
				lq += y[i] * y[i]
				n := float64(k + 1)
				m := float64(len(idx)) - n
				best = math.Min(best, lq-ls*ls/n+(sq-lq)-(sum-ls)*(sum-ls)/m)
			}
		}
	}
	return best
}

// matmul multiplies two fixed 160×160 matrices four times, the dense
// arithmetic of the optimizer's surrogate model.
func matmul(seed uint64) float64 {
	const n = 160
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64((uint64(i)*seed)%97) / 97
		b[i] = float64((uint64(i)*7+seed)%89) / 89
	}
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	}
	return c[n*n/2]
}
