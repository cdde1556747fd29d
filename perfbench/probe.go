package main

import (
	"sync"
	"time"

	"fedforecaster/internal/fl"
	"fedforecaster/internal/obs"
)

// probe collects the traced run's layer timings from outside the
// program: it is the run's obs.Recorder (phase, round and
// candidate-eval events the engine already emits), and the
// timedTransport and timedClient wrappers report transport calls and
// client operations to it. Times are nanoseconds since epoch on the
// monotonic clock.
type probe struct {
	epoch time.Time

	mu        sync.Mutex
	round     int // index of the protocol round in flight (RoundStart count)
	calls     []callSpan
	ops       []opSpan
	rounds    int
	roundWall int64
	phaseNS   map[string]int64
	candMS    []float64
}

// callSpan is one transport call.
type callSpan struct {
	interval
	round  int
	failed bool
}

// opSpan is one client operation, tagged with its message kind.
type opSpan struct {
	interval
	kind string
}

func newProbe() *probe {
	return &probe{epoch: time.Now(), phaseNS: map[string]int64{}}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// Record implements obs.Recorder.
func (p *probe) Record(ev obs.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e := ev.(type) {
	case obs.RoundStart:
		p.round++
	case obs.RoundEnd:
		p.rounds++
		p.roundWall += e.DurationNS
	case obs.PhaseEnd:
		p.phaseNS[e.Phase] += e.DurationNS
	case obs.CandidateEval:
		p.candMS = append(p.candMS, float64(e.EvalNS)/1e6)
	}
}

func (p *probe) currentRound() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.round
}

func (p *probe) addCall(c callSpan) {
	p.mu.Lock()
	p.calls = append(p.calls, c)
	p.mu.Unlock()
}

func (p *probe) addOp(o opSpan) {
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
}

// timedTransport times every call of the transport it wraps. It
// forwards the wrapped transport's wire format, so the server bills
// the same bytes as an unwrapped run. A TCP federation's call timeout
// is set on its connections when they are made, so traced and
// untraced runs share it.
type timedTransport struct {
	wireTransport
	p *probe
}

// wireTransport is a transport that reports its wire format, as the
// in-process transport and the benchmark's TCP federation do.
type wireTransport interface {
	fl.Transport
	fl.WireTransport
}

func (t timedTransport) Call(i int, req fl.Message) (fl.Message, error) {
	round := t.p.currentRound()
	start := t.p.now()
	resp, err := t.wireTransport.Call(i, req)
	t.p.addCall(callSpan{interval{start, t.p.now()}, round, err != nil})
	return resp, err
}

// timedClient times every operation of the client it wraps.
type timedClient struct {
	inner fl.Client
	p     *probe
}

func (c timedClient) timed(kind string, op func(fl.Message) (fl.Message, error), req fl.Message) (fl.Message, error) {
	start := c.p.now()
	resp, err := op(req)
	c.p.addOp(opSpan{interval{start, c.p.now()}, kind})
	return resp, err
}

func (c timedClient) Properties(req fl.Message) (fl.Message, error) {
	return c.timed(req.Kind, c.inner.Properties, req)
}

func (c timedClient) Fit(req fl.Message) (fl.Message, error) {
	return c.timed(req.Kind, c.inner.Fit, req)
}

func (c timedClient) Evaluate(req fl.Message) (fl.Message, error) {
	return c.timed(req.Kind, c.inner.Evaluate, req)
}
