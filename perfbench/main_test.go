package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"fedforecaster/internal/core"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/search"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shrink returns w at a size that runs in about a second: the
// smallest series the generator allows, two candidate batches, one run
// seed.
func shrink(w workload) workload {
	w.seeds = 1
	fams := make([]family, len(w.families))
	for i, f := range w.families {
		f.data = f.data.Scaled(0)
		f.cfg.Iterations = 2 * f.cfg.BatchSize
		fams[i] = f
	}
	w.families = fams
	return w
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	var got, want []string
	for _, w := range readSpec(t).Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
		}
	}
}

// A tiny pass of every workload, untraced and traced, emits exactly
// the metrics BENCHMARK.json declares for that mode, each finite and
// tagged with its declared unit, and passes every correctness check:
// traced twins and the optimizer replay included. Untraced, even a
// span too short for a second run repeats the run seed, so the
// same-seed check runs.
func TestTinyWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			rep, err := bench(shrink(w), 3, time.Nanosecond, traced, "../kb.json")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < len(w.families) {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed: %v",
					w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
			}
			if !traced && rep.Attempted != 2*len(w.families) {
				t.Errorf("%s: %d engine runs attempted untraced, want the run seed twice (%d)",
					w.name, rep.Attempted, 2*len(w.families))
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s unit %q, declared %q", w.name, traced, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, d.Name, got.Value)
				}
			}
		}
	}
}

func TestSameTwinDetectsDifferences(t *testing.T) {
	base := func() *core.Result {
		return &core.Result{
			BestConfig: search.Config{Algorithm: search.AlgoLasso, Values: map[string]float64{"alpha": 0.1}},
			History:    []core.IterationRecord{{GlobalLoss: 1}, {GlobalLoss: 0.5}},
			Comms:      fl.Stats{Rounds: 3, Calls: 6, BytesDown: 100, BytesUp: 50},
		}
	}
	if err := sameTwin(base(), base()); err != nil {
		t.Fatalf("identical runs differ: %v", err)
	}
	for name, mutate := range map[string]func(*core.Result){
		"loss":        func(r *core.Result) { r.History[1].GlobalLoss = math.Nextafter(0.5, 1) },
		"history":     func(r *core.Result) { r.History = r.History[:1] },
		"comms":       func(r *core.Result) { r.Comms.BytesUp++ },
		"best config": func(r *core.Result) { r.BestConfig.Values["alpha"] = 0.2 },
	} {
		r := base()
		mutate(r)
		if sameTwin(base(), r) == nil {
			t.Errorf("a changed %s went unnoticed", name)
		}
	}
}

// The transport wrapper must not change what the server bills: it
// reports the wrapped transport's wire format.
func TestTimedTransportForwardsWire(t *testing.T) {
	wire := fl.WireOpts{Version: 1}
	var tr fl.Transport = timedTransport{fl.NewInProcWire(nil, wire), newProbe()}
	wt, ok := tr.(fl.WireTransport)
	if !ok || wt.Wire() != wire {
		t.Fatalf("wrapped transport reports wire %v (ok=%v), want %v", wt, ok, wire)
	}
}
