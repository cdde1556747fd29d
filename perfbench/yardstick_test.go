package main

import (
	"math"
	"testing"
	"time"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fl"
)

func TestYardstickTimesItsWork(t *testing.T) {
	if s := yardstick(2); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("yardstick took %v s", s)
	}
}

// End-to-end times are reported at the reference speed: every time is
// multiplied by the scale, every count and size left as measured.
func TestEndToEndMetricsScaleTimesOnly(t *testing.T) {
	run := func(wall time.Duration) *runSample {
		return &runSample{
			seed:   1,
			setup:  setupTimes{generate: 0.25},
			wallNS: int64(wall),
			cpuS:   3,
			rt:     runtimeStats{allocBytes: 5e6},
			naive:  []float64{2},
			results: []*core.Result{{
				TestMSE: 1,
				History: []core.IterationRecord{{Elapsed: time.Second}, {Elapsed: 4 * time.Second}},
				Comms:   fl.Stats{Rounds: 3, BytesDown: 100, BytesUp: 50},
			}},
		}
	}
	runs := []*runSample{run(2 * time.Second), run(2 * time.Second)}
	for _, scale := range []float64{1, 0.5} {
		m := metricSet{}
		endToEndMetrics(m, []int64{1}, runs, scale)
		want := map[string]float64{
			"setup_s":            0.25 * scale,
			"run_s":              2 * scale,
			"cpu_s":              3 * scale,
			"evals_per_s":        2 / (4 * scale),
			"alloc_mb":           5,
			"bytes_down":         100,
			"bytes_up":           50,
			"rounds":             3,
			"test_rel_mse_gmean": 0.5,
		}
		for name, w := range want {
			if got := m[name].Value; math.Abs(got-w) > 1e-12 {
				t.Errorf("scale %v: %s = %v, want %v", scale, name, got, w)
			}
		}
	}
}
