package main

import (
	"runtime"
	"strings"
)

// opGroups maps each client operation's message kind to the layer
// metric it is billed to.
var opGroups = map[string]string{
	"props/range":        "metafeatures",
	"props/metafeatures": "metafeatures",
	"props/importances":  "importances",
	"eval/prepare":       "prepare",
	"eval/config":        "eval",
	"fit/final":          "final",
}

// phaseMetrics maps the engine's phase names to their metric names.
var phaseMetrics = map[string]string{
	"meta-features":  "phase.metafeatures_s",
	"recommend":      "phase.recommend_s",
	"feature-select": "phase.featureselect_s",
	"optimize":       "phase.optimize_s",
	"final-fit":      "phase.finalfit_s",
}

// layerRun is the per-layer breakdown of one traced run: totals in
// vals, per-operation samples (in milliseconds) in samples.
type layerRun struct {
	vals    map[string]float64
	samples map[string][]float64
}

// tracedLayers derives one traced run's layer metrics from its probe,
// its results and its optimizer replay.
func tracedLayers(r *runSample) layerRun {
	p := r.probe
	v := map[string]float64{}
	smp := map[string][]float64{}
	wall := float64(r.wallNS) / 1e9

	var ops []interval
	for _, g := range opGroups {
		v["client."+g+"_s"] = 0
	}
	v["client.importances_calls"], v["client.eval_calls"] = 0, 0
	for _, o := range p.ops {
		ops = append(ops, o.interval)
		d := float64(o.end - o.start)
		g := opGroups[o.kind]
		switch g {
		case "":
			continue
		case "importances":
			v["client.importances_calls"]++
		case "eval":
			v["client.eval_calls"]++
			smp["client.eval_ms"] = append(smp["client.eval_ms"], d/1e6)
		}
		v["client."+g+"_s"] += d / 1e9
	}
	opSum, opUnion := float64(sumNS(ops))/1e9, float64(unionNS(ops))/1e9
	v["client.op_s"] = opSum
	v["client.concurrency"] = ratio(opSum, opUnion)
	// Op wall time beyond what the available cores could have run
	// while ops were in flight: the least time ops waited for a CPU.
	v["sched.wait_s"] = max(0, opSum-float64(runtime.GOMAXPROCS(0))*opUnion)
	smp["client.candidate_ms"] = p.candMS

	var calls []interval
	byRound := map[int][]float64{}
	failed := 0
	for _, c := range p.calls {
		calls = append(calls, c.interval)
		d := float64(c.end - c.start)
		smp["fl.call_ms"] = append(smp["fl.call_ms"], d/1e6)
		byRound[c.round] = append(byRound[c.round], d)
		if c.failed {
			failed++
		}
	}
	callSum := float64(sumNS(calls)) / 1e9
	v["fl.calls"] = float64(len(calls))
	v["fl.self_s"] = callSum - opSum
	v["fl.failed_frac"] = ratio(float64(failed), float64(len(calls)))
	v["server.self_s"] = wall - float64(unionNS(calls))/1e9
	v["server.self_frac"] = v["server.self_s"] / wall

	var bytes, commCalls float64
	var unique, iters int
	for i, res := range r.results {
		if res == nil {
			continue
		}
		bytes += float64(res.Comms.BytesDown + res.Comms.BytesUp)
		commCalls += float64(res.Comms.Calls)
		unique += r.bo[i].unique
		iters += len(res.History)
		smp["bayesopt.propose_ms"] = append(smp["bayesopt.propose_ms"], r.bo[i].proposeMS...)
	}
	v["fl.bytes_per_call"] = ratio(bytes, commCalls)
	v["bayesopt.unique_ratio"] = ratio(float64(unique), float64(iters))
	var propose float64
	for _, ms := range smp["bayesopt.propose_ms"] {
		propose += ms / 1e3
	}
	v["bayesopt.propose_s"] = propose

	v["round.count"] = float64(p.rounds)
	v["round.wall_s"] = float64(p.roundWall) / 1e9
	v["round.straggler_s"] = stragglerNS(byRound) / 1e9
	for phase, name := range phaseMetrics {
		v[name] = float64(p.phaseNS[phase]) / 1e9
	}
	return layerRun{vals: v, samples: smp}
}

// layerMetrics reports the per-layer metrics of a traced invocation:
// per-run totals as medians over the traced runs, per-operation
// percentiles over every traced run's samples, runtime counters from
// the untraced twins, set-up parts over all runs.
func layerMetrics(m metricSet, untraced, traced []*runSample) {
	vals := map[string][]float64{}
	samples := map[string][]float64{}
	for _, r := range traced {
		if !complete(r) {
			continue
		}
		lr := tracedLayers(r)
		for k, x := range lr.vals {
			vals[k] = append(vals[k], x)
		}
		for k, xs := range lr.samples {
			samples[k] = append(samples[k], xs...)
		}
	}
	for k, xs := range vals {
		m.set(k, layerUnit(k), median(xs))
	}
	for _, k := range []string{"client.eval_ms", "client.candidate_ms", "fl.call_ms", "bayesopt.propose_ms"} {
		m.setPercentiles(k, "ms", samples[k])
	}

	var gcCPU, gcCycles, mallocs []float64
	for _, r := range untraced {
		gcCPU = append(gcCPU, r.rt.gcCPU)
		gcCycles = append(gcCycles, r.rt.gcCycles)
		mallocs = append(mallocs, r.rt.mallocs)
	}
	m.set("gc.cpu_s", "s", median(gcCPU))
	m.set("gc.cycles", "count", median(gcCycles))
	m.set("heap.mallocs", "count", median(mallocs))

	var gen, load, train, connect []float64
	for _, r := range append(append([]*runSample(nil), untraced...), traced...) {
		gen = append(gen, r.setup.generate)
		load = append(load, r.setup.load)
		train = append(train, r.setup.train)
		connect = append(connect, r.setup.connect)
	}
	m.set("synth.generate_s", "s", median(gen))
	m.set("metalearn.load_s", "s", median(load))
	m.set("metalearn.train_s", "s", median(train))
	m.set("fl.connect_s", "s", median(connect))
}

// layerUnit derives a per-run total's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_calls"), name == "fl.calls", name == "round.count":
		return "count"
	case name == "fl.bytes_per_call":
		return "B"
	default:
		return "ratio"
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
