package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"fedforecaster/internal/bayesopt"
	"fedforecaster/internal/core"
	"fedforecaster/internal/fl"
	"fedforecaster/internal/metalearn"
	"fedforecaster/internal/pipeline"
	"fedforecaster/internal/search"
	"fedforecaster/internal/synth"
	"fedforecaster/internal/timeseries"
)

// workload is one named benchmark input: the federations a run
// searches, one engine run each, and how their clients are reached.
type workload struct {
	name     string
	families []family
	// meta warm-starts every family from a Random Forest meta-model
	// trained on the committed knowledge base.
	meta bool
	// tcp serves the clients over loopback TCP, one connection each,
	// instead of in-process.
	tcp bool
	// seeds is how many run seeds one invocation covers. The work a
	// search does depends on its seed, so a workload's figures are
	// taken over several seeds to keep them steady.
	seeds int
}

// runSeeds returns the run seeds an invocation at seed covers:
// seed·n … seed·n+n−1, disjoint for distinct seeds.
func (w workload) runSeeds(seed int64) []int64 {
	out := make([]int64, w.seeds)
	for j := range out {
		out[j] = seed*int64(w.seeds) + int64(j)
	}
	return out
}

// family is one federation of a workload and the engine settings it
// is searched with. The engine seed is set per run.
type family struct {
	data synth.EvalDataset
	cfg  core.EngineConfig
}

// callTimeout bounds each TCP call; far above any call of a healthy run.
const callTimeout = time.Minute

func workloads() []workload {
	return []workload{table3Workload(), boTCPWorkload()}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// table3Workload is the paper as published on BOE-XUDLERD, the Table 3
// federation with the most clients, at paper scale (20 clients of 782
// days): meta-model warm start, q=1, 24 iterations, in-process,
// default wire, feature selection on. The other Table 3 families are left out because their
// run times do not hold still from seed to seed: the Energy ETF
// federation doubled a run's length, and on USBirthsDaily about one
// run in eight takes 10-12 s against 2.5-4 s for the rest, so an
// invocation's figures followed how many such runs it drew. bo-tcp
// still searches a births series.
func table3Workload() workload {
	return workload{
		name:     "table3",
		meta:     true,
		seeds:    20,
		families: []family{{evalDataset("BOE-XUDLERD"), core.DefaultEngineConfig()}},
	}
}

// boTCPWorkload makes the server's Bayesian optimization the
// bottleneck: a cold start over the three linear algorithms, no
// feature selection, q=1 and 300 iterations on a 1182-day births
// series split across two loopback TCP clients speaking wire v1. The
// births family's weekly cycle makes forecast quality steady from seed
// to seed; on the deposits family the best model's test MSE ranges
// from a fifth to three times persistence's.
func boTCPWorkload() workload {
	d := evalDataset("USBirthsDaily")
	d.Length, d.Clients = 1182, 2
	cfg := core.DefaultEngineConfig()
	cfg.Iterations = 300
	cfg.FeatureSelection = false
	cfg.WarmStart = false
	cfg.Spaces = spacesFor(search.AlgoLasso, search.AlgoHuber, search.AlgoQuantile)
	cfg.Wire = fl.WireOpts{Version: 1}
	return workload{name: "bo-tcp", tcp: true, seeds: 12, families: []family{{d, cfg}}}
}

func evalDataset(name string) synth.EvalDataset {
	for _, d := range synth.EvalDatasets() {
		if d.Name == name {
			return d
		}
	}
	panic("perfbench: no evaluation dataset " + name)
}

func spacesFor(algos ...string) []search.Space {
	var out []search.Space
	for _, a := range algos {
		sp, ok := search.SpaceFor(search.DefaultSpaces(), a)
		if !ok {
			panic("perfbench: no search space " + a)
		}
		out = append(out, sp)
	}
	return out
}

// setupTimes are the parts of one run's set-up, in seconds.
type setupTimes struct {
	generate, load, train, connect float64
}

func (s setupTimes) total() float64 { return s.generate + s.load + s.train + s.connect }

// fixture is one run's inputs: every family's client splits, the
// meta-model, and for TCP workloads the connected federation.
type fixture struct {
	clients [][]*timeseries.Series
	meta    *metalearn.MetaModel
	fed     *tcpFed
}

// setup generates the workload's data from the seed (dataset seed =
// family seed + seed), trains the meta-model from kbPath, and for TCP
// workloads connects the clients. A non-nil probe wraps the TCP client
// nodes so their operations are timed.
func setup(w workload, seed int64, kbPath string, p *probe) (*fixture, setupTimes, error) {
	var st setupTimes
	fx := &fixture{}
	t0 := time.Now()
	for _, f := range w.families {
		d := f.data
		d.Seed += seed
		clients, _, err := d.Generate()
		if err != nil {
			return nil, st, err
		}
		fx.clients = append(fx.clients, clients)
	}
	st.generate = time.Since(t0).Seconds()
	if w.meta {
		t0 = time.Now()
		kb, err := metalearn.Load(kbPath)
		if err != nil {
			return nil, st, fmt.Errorf("loading knowledge base: %w", err)
		}
		st.load = time.Since(t0).Seconds()
		t0 = time.Now()
		clf, err := metalearn.NewClassifier("Random Forest", seed)
		if err != nil {
			return nil, st, err
		}
		if fx.meta, err = metalearn.TrainMetaModel(kb, clf); err != nil {
			return nil, st, err
		}
		st.train = time.Since(t0).Seconds()
	}
	if w.tcp {
		t0 = time.Now()
		fed, err := connectTCP(fx.clients[0], w.families[0].cfg.Wire, seed, p)
		if err != nil {
			return nil, st, err
		}
		fx.fed = fed
		st.connect = time.Since(t0).Seconds()
	}
	return fx, st, nil
}

// close tears down the TCP federation, if any, and waits for its
// client goroutines to end.
func (fx *fixture) close() error {
	if fx.fed == nil {
		return nil
	}
	return fx.fed.Close()
}

// tcpFed is a loopback TCP federation in this process: one serving
// goroutine per client, each connected to a single-client
// fl.TCPTransport of its own, so transport index i is client i as it
// is in-process. tcpFed is the fl.Transport the server drives: client
// i's calls go to transport i, whose call timeout is set when it
// connects.
type tcpFed struct {
	trs  []*fl.TCPTransport
	wire fl.WireOpts
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error // guarded by mu: serving errors of the clients
}

// connectTCP connects one serving client per split, in order, each
// call on a connection bounded by callTimeout.
func connectTCP(clients []*timeseries.Series, wire fl.WireOpts, seed int64, p *probe) (*tcpFed, error) {
	fed := &tcpFed{wire: wire, stop: make(chan struct{})}
	for i, s := range clients {
		node := core.NewClientNode(s, seed+int64(i)*101)
		var c fl.Client = node
		if p != nil {
			c = timedClient{inner: node.WithObs(p, i), p: p}
		}
		tr, err := fed.connect(c)
		if err != nil {
			return nil, errors.Join(err, fed.Close())
		}
		tr.SetCallTimeout(callTimeout)
		fed.trs = append(fed.trs, tr)
	}
	return fed, nil
}

// connect starts serving c and accepts its connection on a fresh
// loopback listener.
func (fed *tcpFed) connect(c fl.Client) (*fl.TCPTransport, error) {
	type listened struct {
		tr  *fl.TCPTransport
		err error
	}
	addrCh := make(chan string, 1)
	done := make(chan listened, 1)
	go func() {
		tr, err := fl.ListenTCPWire("127.0.0.1:0", 1, 30*time.Second, addrCh, fed.wire)
		done <- listened{tr, err}
	}()
	select {
	case addr := <-addrCh:
		fed.wg.Add(1)
		go func() {
			defer fed.wg.Done()
			if err := fl.ServeTCPWire(addr, c, fed.stop, fed.wire); err != nil {
				fed.mu.Lock()
				fed.errs = append(fed.errs, err)
				fed.mu.Unlock()
			}
		}()
	case l := <-done:
		return nil, fmt.Errorf("listen: %w", l.err)
	}
	l := <-done
	if l.err != nil {
		return nil, fmt.Errorf("listen: %w", l.err)
	}
	return l.tr, nil
}

func (fed *tcpFed) NumClients() int { return len(fed.trs) }

func (fed *tcpFed) Call(i int, req fl.Message) (fl.Message, error) {
	if i < 0 || i >= len(fed.trs) {
		return fl.Message{}, fmt.Errorf("client index %d out of range", i)
	}
	return fed.trs[i].Call(0, req)
}

// Wire implements fl.WireTransport.
func (fed *tcpFed) Wire() fl.WireOpts { return fed.wire }

// Close closes every connection, stops the clients and waits for them.
func (fed *tcpFed) Close() error {
	var errs []error
	for _, tr := range fed.trs {
		errs = append(errs, tr.Close())
	}
	close(fed.stop)
	fed.wg.Wait()
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return errors.Join(append(errs, fed.errs...)...)
}

// runFamily performs engine run i of the fixture. Untraced (p == nil)
// it goes through the public entry points: Engine.Run in-process,
// Engine.RunWithServer over TCP. Traced, the same run is assembled from
// the benchmark's wrappers around each client and the transport, with
// p as the engine's recorder.
func runFamily(w workload, fx *fixture, i int, seed int64, p *probe) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg := w.families[i].cfg
	cfg.Seed = seed
	if p != nil {
		cfg.Recorder = p
	}
	var tr wireTransport
	switch {
	case w.tcp:
		tr = fx.fed
	case p == nil:
		return core.NewEngine(fx.meta, cfg).Run(fx.clients[i])
	default:
		nodes := make([]fl.Client, len(fx.clients[i]))
		for j, s := range fx.clients[i] {
			// The seed and recorder wiring of Engine.Run.
			node := core.NewClientNode(s, seed+int64(j)*101).WithObs(p, j)
			nodes[j] = timedClient{inner: node, p: p}
		}
		tr = fl.NewInProcWire(nodes, cfg.Wire)
	}
	if p != nil {
		tr = timedTransport{tr, p}
	}
	// The fixture owns the TCP federation; in-process transports hold
	// nothing to close.
	return core.NewEngine(fx.meta, cfg).RunWithServer(fl.NewServer(tr))
}

// checkResult reports why a run's result is not a defensible answer
// to the family's search, or nil.
func checkResult(f family, meta bool, res *core.Result) error {
	if !isFinite(res.TestMSE) || !isFinite(res.BestValidLoss) {
		return fmt.Errorf("non-finite result: test MSE %v, best valid loss %v", res.TestMSE, res.BestValidLoss)
	}
	if res.Iterations != f.cfg.Iterations || len(res.History) != f.cfg.Iterations {
		return fmt.Errorf("%d iterations (%d in history), budget %d", res.Iterations, len(res.History), f.cfg.Iterations)
	}
	best := math.Inf(1)
	for _, h := range res.History {
		best = math.Min(best, h.GlobalLoss)
	}
	if math.Float64bits(best) != math.Float64bits(res.BestValidLoss) {
		return fmt.Errorf("best valid loss %v is not the history minimum %v", res.BestValidLoss, best)
	}
	for _, sp := range searchSpaces(f, meta, res) {
		if sp.Algorithm == res.BestConfig.Algorithm {
			return nil
		}
	}
	return fmt.Errorf("best algorithm %q outside the searched space", res.BestConfig.Algorithm)
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// searchSpaces rebuilds the restricted space A' the engine searched:
// the configured spaces, narrowed to the meta-model's recommendations
// as in the engine's Phase II.
func searchSpaces(f family, meta bool, res *core.Result) []search.Space {
	spaces := f.cfg.Spaces
	if spaces == nil {
		spaces = search.DefaultSpaces()
	}
	if meta {
		var restricted []search.Space
		for _, name := range res.Recommended {
			if sp, ok := search.SpaceFor(spaces, name); ok {
				restricted = append(restricted, sp)
			}
		}
		if len(restricted) > 0 {
			spaces = restricted
		}
	}
	return spaces
}

// sameRun reports how two runs of one seed differ in their history
// losses or communication, or nil when they agree exactly.
func sameRun(a, b *core.Result) error {
	if len(a.History) != len(b.History) {
		return fmt.Errorf("history lengths %d and %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if math.Float64bits(a.History[i].GlobalLoss) != math.Float64bits(b.History[i].GlobalLoss) {
			return fmt.Errorf("iteration %d loss %v and %v", i, a.History[i].GlobalLoss, b.History[i].GlobalLoss)
		}
	}
	if a.Comms != b.Comms {
		return fmt.Errorf("comms %+v and %+v", a.Comms, b.Comms)
	}
	return nil
}

// sameTwin is sameRun plus an identical best configuration: what a
// traced run must share with its untraced twin.
func sameTwin(untraced, traced *core.Result) error {
	if err := sameRun(untraced, traced); err != nil {
		return err
	}
	if !reflect.DeepEqual(untraced.BestConfig, traced.BestConfig) {
		return fmt.Errorf("best config %v and %v", untraced.BestConfig, traced.BestConfig)
	}
	return nil
}

// boReplay is the Bayesian-optimization layer measured on its own.
type boReplay struct {
	proposeMS []float64
	unique    int
	err       error // why the replay diverged from the engine, if it did
}

// replayBO re-drives the engine's optimizer through its public API,
// New → Warm → ProposeBatch/ObserveAll, feeding it the run's own
// losses, and times each proposal. Every proposal must equal the
// configuration the engine evaluated at that iteration.
func replayBO(f family, meta bool, seed int64, res *core.Result) (out boReplay) {
	spaces := searchSpaces(f, meta, res)
	opt := bayesopt.New(spaces, seed)
	if f.cfg.WarmStart {
		// The engine's warm start: each space's centre.
		warm := make([]search.Config, 0, len(spaces))
		for _, sp := range spaces {
			u := make([]float64, sp.Dim())
			for i := range u {
				u[i] = 0.5
			}
			warm = append(warm, sp.Decode(u))
		}
		opt.Warm(warm)
	}
	q := f.cfg.BatchSize
	seen := map[string]bool{}
	for n := 0; n < len(res.History); {
		k := min(q, len(res.History)-n)
		t0 := time.Now()
		cfgs := opt.ProposeBatch(k)
		out.proposeMS = append(out.proposeMS, float64(time.Since(t0))/1e6)
		if len(cfgs) != k {
			out.err = fmt.Errorf("replay proposed %d configs at iteration %d, want %d", len(cfgs), n, k)
			return out
		}
		losses := make([]float64, k)
		for j, c := range cfgs {
			h := res.History[n+j]
			if !reflect.DeepEqual(c, h.Config) {
				out.err = fmt.Errorf("replay proposal %d is %v, engine evaluated %v", n+j, c, h.Config)
				return out
			}
			losses[j] = h.GlobalLoss
			seen[c.String()] = true
		}
		opt.ObserveAll(cfgs, losses)
		n += k
	}
	out.unique = len(seen)
	return out
}

// persistenceMSE is the Equation-1 weighted test MSE of the last-value
// forecast: each client's test span is the final split of its series,
// weighted by series length. Dividing a run's test MSE by it puts
// forecast quality on a scale that does not depend on the level of the
// generated data.
func persistenceMSE(clients []*timeseries.Series, s pipeline.Splits) float64 {
	var num, den float64
	for _, c := range clients {
		v := c.Values
		_, validEnd := s.Bounds(len(v))
		from := max(validEnd, 1)
		var sse float64
		for t := from; t < len(v); t++ {
			d := v[t] - v[t-1]
			sse += d * d
		}
		w := float64(len(v))
		num += w * sse / float64(max(len(v)-from, 1))
		den += w
	}
	return num / den
}
