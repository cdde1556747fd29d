// Command perfbench is the repository benchmark. It runs one named
// Algorithm-1 workload repeatedly for a fixed wall-clock span, checks
// every run's result, and prints its metrics, each with its unit, as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 55 --trace 0
//
// With --trace 0 every run is untraced and goes through the engine's
// public entry points; the line holds the end-to-end metrics, with
// times at a reference host speed (see yardstick.go). With
// --trace 1 each untraced run is followed by a traced twin that must
// reproduce it exactly; the line holds the per-layer metrics, timed by
// wrappers around the program's public seams (see probe.go). The
// workloads and the reasons for them are in workloads.go and
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"fedforecaster/internal/core"
)

// maxProcs caps GOMAXPROCS so load comes from at most two cores on any
// machine.
const maxProcs = 2

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		name    = flag.String("workload", "", "workload to run: table3 or bo-tcp")
		seed    = flag.Int64("seed", 1, "workload seed: dataset seed = family seed + seed, engine seed = seed")
		seconds = flag.Int("seconds", 10, "wall-clock span to measure for")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("--seconds must be at least 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	rep, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, "kb.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runSample is one measured run: set-up, then one engine run per
// family of the workload, all at one workload seed.
type runSample struct {
	seed    int64
	setup   setupTimes
	wallNS  int64
	cpuS    float64
	rt      runtimeStats
	results []*core.Result // per family; nil where the run failed
	errs    []error        // per family; why the run failed
	naive   []float64      // per family: the persistence forecast's test MSE
	probe   *probe         // traced runs only
	bo      []boReplay     // traced runs only, per family
}

// report is what one invocation prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the result
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates named metrics.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// setPercentiles reports the median and 90th percentile of samples as
// name.p50 and name.p90, always together with their sample count
// name.n; with no samples both percentiles read 0.
func (m metricSet) setPercentiles(name, unit string, samples []float64) {
	p50, p90 := 0.0, 0.0
	if len(samples) > 0 {
		p50, p90 = percentile(samples, 50), percentile(samples, 90)
	}
	m.set(name+".p50", unit, p50)
	m.set(name+".p90", unit, p90)
	m.set(name+".n", "count", float64(len(samples)))
}

// bench measures workload w for the given span, cycling through the
// workload's run seeds. Untraced, it runs every run seed once, then
// repeats them, the first always and the rest while the next run fits
// in the span; a repeat must reproduce its seed's first run, and the
// yardstick is timed before each run. Traced,
// each untraced run is followed by a traced twin that must reproduce
// it, for at least one pair.
// Every engine run is checked; a failed check counts the run as failed
// and is reported on standard error without stopping the workload.
func bench(w workload, seed int64, span time.Duration, traced bool, kbPath string) (*report, error) {
	rep := &report{}
	seeds := w.runSeeds(seed)
	var untracedRuns, tracedRuns []*runSample
	var overhead, yard []float64
	reference := map[int64][]*core.Result{} // first successful result per seed and family
	fail := func(kind string, s *runSample, family int, err error) {
		rep.Failed++
		rep.notes = append(rep.notes, fmt.Sprintf("FAIL %s run of %s at seed %d: %v",
			kind, w.families[family].data.Name, s.seed, err))
	}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if !traced {
			yard = append(yard, yardstick(runtime.GOMAXPROCS(0)))
		}
		u, err := measureRun(w, seeds[i%len(seeds)], kbPath, nil)
		if err != nil {
			return nil, err
		}
		untracedRuns = append(untracedRuns, u)
		ref := reference[u.seed]
		if ref == nil {
			ref = make([]*core.Result, len(w.families))
			reference[u.seed] = ref
		}
		for f, res := range u.results {
			rep.Attempted++
			switch {
			case res == nil:
				fail("untraced", u, f, u.errs[f])
			case ref[f] == nil:
				ref[f] = res
			default:
				if err := sameRun(ref[f], res); err != nil {
					fail("untraced", u, f, fmt.Errorf("differs from an earlier run of the same seed: %w", err))
				}
			}
		}
		if traced {
			t, err := measureRun(w, u.seed, kbPath, newProbe())
			if err != nil {
				return nil, err
			}
			tracedRuns = append(tracedRuns, t)
			for f, res := range t.results {
				rep.Attempted++
				switch {
				case res == nil:
					fail("traced", t, f, t.errs[f])
				case u.results[f] == nil:
				default:
					if err := sameTwin(u.results[f], res); err != nil {
						fail("traced", t, f, fmt.Errorf("differs from its untraced twin: %w", err))
					} else if t.bo[f].err != nil {
						fail("traced", t, f, t.bo[f].err)
					}
				}
			}
			if complete(u) && complete(t) {
				overhead = append(overhead, float64(t.wallNS)/float64(u.wallNS)-1)
			}
		}
		// Untraced, the first run seed always runs twice, so every
		// invocation checks that a run reproduces itself.
		covered := traced || i >= len(seeds)
		if covered && time.Since(start)+time.Since(t0) > span {
			break
		}
	}
	m := metricSet{}
	if traced {
		layerMetrics(m, untracedRuns, tracedRuns)
		m.set("obs.overhead_frac", "ratio", median(overhead))
		m.set("error_rate", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	} else {
		scale := yardstickRefS / median(yard)
		runS := endToEndMetrics(m, seeds, untracedRuns, scale)
		q := quantiles(runS, 4)
		rep.notes = append(rep.notes,
			fmt.Sprintf("yardstick: median %.4f s over %d timings, reference %.4f s; end-to-end times scaled by %.4f",
				median(yard), len(yard), yardstickRefS, scale),
			fmt.Sprintf("run_s over %d run seeds: median %.4f s, quartiles %.4f..%.4f s",
				len(runS), q[1], q[0], q[2]))
		m.set("success_rate", "ratio", 1-float64(rep.Failed)/float64(rep.Attempted))
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = map[string]metric{}
	for _, name := range sortedNames(m) {
		v := m[name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("FAIL metric %s is %v", name, v.Value))
			v.Value = 0
		}
		rep.Metrics[name] = v
	}
	rep.notes = append(rep.notes, fmt.Sprintf("workload %s seed %d (run seeds %v): %d untraced and %d traced runs, %d engine runs attempted, %d failed",
		w.name, seed, seeds, len(untracedRuns), len(tracedRuns), rep.Attempted, rep.Failed))
	for _, r := range untracedRuns {
		line := fmt.Sprintf("  untraced run at seed %d: %.4f s", r.seed, float64(r.wallNS)/1e9)
		for f, res := range r.results {
			if res != nil {
				line += fmt.Sprintf(", %s %s test MSE %.4g of persistence's",
					w.families[f].data.Name, res.BestConfig.Algorithm, res.TestMSE/r.naive[f])
			}
		}
		rep.notes = append(rep.notes, line)
	}
	return rep, nil
}

// write prints the notes to standard error, then the metrics one per
// line and the result object as the last line to out.
func (r *report) write(out io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	var b strings.Builder
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(&b, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	js, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(js)
	b.WriteByte('\n')
	_, err = io.WriteString(out, b.String())
	return err
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measureRun sets the workload up at one run seed and runs every
// family once, timing the engine runs together. Only a set-up failure
// is returned as an error; an engine run that fails leaves a nil
// result and its error in errs. A non-nil probe makes the run traced.
func measureRun(w workload, seed int64, kbPath string, p *probe) (*runSample, error) {
	runtime.GC()
	fx, st, err := setup(w, seed, kbPath, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s := &runSample{
		seed:    seed,
		setup:   st,
		probe:   p,
		results: make([]*core.Result, len(w.families)),
		errs:    make([]error, len(w.families)),
	}
	for i, f := range w.families {
		s.naive = append(s.naive, persistenceMSE(fx.clients[i], f.cfg.Splits))
	}
	before, cpu0, t0 := readRuntime(), cpuSeconds(), time.Now()
	for i := range w.families {
		res, err := runFamily(w, fx, i, seed, p)
		if err == nil {
			err = checkResult(w.families[i], w.meta, res)
		}
		if err != nil {
			s.errs[i] = err
			continue
		}
		s.results[i] = res
	}
	s.wallNS = int64(time.Since(t0))
	s.cpuS = cpuSeconds() - cpu0
	s.rt = readRuntime().sub(before)
	if err := fx.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	if p != nil {
		s.bo = make([]boReplay, len(w.families))
		for i, res := range s.results {
			if res != nil {
				s.bo[i] = replayBO(w.families[i], w.meta, seed, res)
			}
		}
	}
	return s, nil
}

// endToEndMetrics derives the user-visible metrics from the untraced
// runs. Each run seed's value comes from the median of its runs
// (timings, memory) or from its first run (results, identical in every
// run); the metric is the median over run seeds, so every seed weighs
// the same however often it ran, and one seed whose search wanders
// into slow candidates does not move it. Forecast quality is the
// geometric mean over every seed and family of the test MSE relative
// to the persistence forecast's; set-up time is the median over all
// runs. Every time (set-up, run and CPU seconds, evaluations per
// second) is multiplied by scale, the host's speed relative to the
// reference host. It returns the per-seed run times.
func endToEndMetrics(m metricSet, seeds []int64, runs []*runSample, scale float64) (runS []float64) {
	var setupS []float64
	bySeed := map[int64][]*runSample{}
	for _, r := range runs {
		setupS = append(setupS, r.setup.total())
		if complete(r) {
			bySeed[r.seed] = append(bySeed[r.seed], r)
		}
	}
	perSeed := map[string][]float64{}
	add := func(name string, v float64) { perSeed[name] = append(perSeed[name], v) }
	var rel []float64
	for _, seed := range seeds {
		rs := bySeed[seed]
		if len(rs) == 0 {
			add("run_s", math.NaN())
			rel = append(rel, math.NaN())
			continue
		}
		add("run_s", scale*medianOf(rs, func(r *runSample) float64 { return float64(r.wallNS) / 1e9 }))
		add("cpu_s", scale*medianOf(rs, func(r *runSample) float64 { return r.cpuS }))
		add("alloc_mb", medianOf(rs, func(r *runSample) float64 { return r.rt.allocBytes / 1e6 }))
		var evals, secs, down, up, rounds float64
		for f, res := range rs[0].results {
			last := len(res.History) - 1
			evals += float64(last + 1)
			secs += medianOf(rs, func(r *runSample) float64 { return r.results[f].History[last].Elapsed.Seconds() })
			rel = append(rel, res.TestMSE/rs[0].naive[f])
			down += float64(res.Comms.BytesDown)
			up += float64(res.Comms.BytesUp)
			rounds += float64(res.Comms.Rounds)
		}
		add("evals_per_s", evals/(secs*scale))
		add("bytes_down", down)
		add("bytes_up", up)
		add("rounds", rounds)
	}
	m.set("setup_s", "s", median(setupS)*scale)
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("test_rel_mse_gmean", "ratio", gmean(rel))
	for _, d := range []struct{ name, unit string }{
		{"run_s", "s"},
		{"cpu_s", "s"},
		{"evals_per_s", "1/s"},
		{"alloc_mb", "MB"},
		{"bytes_down", "B"},
		{"bytes_up", "B"},
		{"rounds", "count"},
	} {
		v := median(perSeed[d.name])
		if len(perSeed[d.name]) < len(seeds) {
			v = math.NaN() // a run seed without a successful run
		}
		m.set(d.name, d.unit, v)
	}
	return perSeed["run_s"]
}

// medianOf is the median of f over the runs.
func medianOf(runs []*runSample, f func(*runSample) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// complete reports whether every engine run of the sample succeeded.
func complete(r *runSample) bool {
	for _, res := range r.results {
		if res == nil {
			return false
		}
	}
	return true
}

// runtimeStats are Go runtime counters over one run.
type runtimeStats struct {
	allocBytes, mallocs, gcCycles, gcCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: float64(s[0].Value.Uint64()),
		mallocs:    float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		gcCPU:      s[3].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
