package core

import (
	"fmt"
	"math"
	"testing"

	"fedforecaster/internal/fl"
)

// wireRun executes the golden engine configuration over the in-proc
// transport speaking the given wire tier.
func wireRun(t testing.TB, batch int, wire string) *Result {
	w, err := fl.ParseWireOpts(wire)
	if err != nil {
		t.Fatal(err)
	}
	clients := fedDataset(t, 1600, 4, 11)
	cfg := smallEngineConfig(42)
	cfg.Iterations = 8
	cfg.BatchSize = batch
	cfg.Wire = w
	res, err := NewEngine(nil, cfg).Run(clients)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenBatchedHistory is goldenHistory's BatchSize 8 counterpart,
// recorded from the gob-era transport on the same workload; the
// lossless v1 tier reproduces it bit for bit, like the q=1 pins.
var goldenBatchedHistory = []string{
	"Lasso alpha=0.259576 selection=random|3fd8b8b2f0fc74a3",
	"HuberRegressor alpha=0.606531 epsilon=1.35|3fe773046c9c338d",
	"Lasso alpha=8.31738 selection=cyclic|4040caa831df24e2",
	"Lasso alpha=0.00701849 selection=cyclic|3fcf87edb54d5241",
	"HuberRegressor alpha=0.0613922 epsilon=1.0|3fd6514e9365bef4",
	"HuberRegressor alpha=7.15466 epsilon=1.5|4025686350e1bc5f",
	"HuberRegressor alpha=4.68333 epsilon=1.0|401d471f32b60417",
	"HuberRegressor alpha=0.0957617 epsilon=1.5|3fd6cfe8187797d2",
}

const (
	goldenBatchedBestLoss = "3fcf87edb54d5241"
	goldenBatchedTestMSE  = "3fce9594df34ef41"
)

// gobEraBytesDown/Up are the q=8 byte counts the retired gob wire
// billed for this workload (its PayloadSize estimate: key and string
// lengths plus 8 bytes per number). They stay as the fixed baseline of
// TestWireQuantCommsReduction's headline criterion.
const (
	gobEraBytesDown = 4428
	gobEraBytesUp   = 3944
)

// TestWireLosslessGoldenIdentity pins the lossless tier's contract:
// binary v1 reproduces the pinned golden results — recorded on the
// gob-era transport — down to the Float64bits of every history entry,
// at both the sequential and batched round structure.
func TestWireLosslessGoldenIdentity(t *testing.T) {
	for _, g := range []struct {
		batch                int
		history              []string
		bestLoss, testMSE    string
		evals, rounds, calls int
	}{
		{1, goldenHistory, goldenBestLoss, goldenTestMSE, 8, 13, 52},
		{8, goldenBatchedHistory, goldenBatchedBestLoss, goldenBatchedTestMSE, 1, 6, 24},
	} {
		res := wireRun(t, g.batch, "v1")
		if len(res.History) != len(g.history) {
			t.Fatalf("q=%d: history length %d, golden %d", g.batch, len(res.History), len(g.history))
		}
		for i, h := range res.History {
			if got := fmt.Sprintf("%s|%016x", h.Config.String(), math.Float64bits(h.GlobalLoss)); got != g.history[i] {
				t.Errorf("q=%d: history[%d] = %q, golden %q", g.batch, i, got, g.history[i])
			}
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(res.BestValidLoss)); got != g.bestLoss {
			t.Errorf("q=%d: best valid loss %s, golden %s", g.batch, got, g.bestLoss)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(res.TestMSE)); got != g.testMSE {
			t.Errorf("q=%d: test MSE %s, golden %s", g.batch, got, g.testMSE)
		}
		if res.EvalRounds != g.evals || res.Comms.Rounds != g.rounds || res.Comms.Calls != g.calls {
			t.Errorf("q=%d: round structure (evals=%d rounds=%d calls=%d), golden (%d/%d/%d)",
				g.batch, res.EvalRounds, res.Comms.Rounds, res.Comms.Calls, g.evals, g.rounds, g.calls)
		}
	}
}

// TestWireQuantizedTolerance: under the quantized tiers the engine
// must stay on the same optimization trajectory — same candidates in
// the same order, same winner — with every loss within a pinned
// tolerance of the lossless value. The tolerances mirror the codec's
// error bounds: float16 perturbs each shipped loss by ~2⁻¹¹ relative,
// while int8's step is (max−min)/255 of each client's loss batch —
// an *absolute* error set by the spread of the batch (≈7 for this
// corpus, so ≈0.014 per level, up to a few hundredths after
// aggregation), however small the loss itself is.
func TestWireQuantizedTolerance(t *testing.T) {
	lossless := wireRun(t, 8, "v1")
	for _, tier := range []struct {
		ws       string
		rel, abs float64
	}{
		{"v1+q8", 5e-3, 0.05},
		{"v1+q16", 2e-3, 1e-6},
	} {
		ws, relTol := tier.ws, tier.rel
		res := wireRun(t, 8, ws)
		if got, want := res.BestConfig.String(), lossless.BestConfig.String(); got != want {
			t.Errorf("%s: best config %q, want %q", ws, got, want)
		}
		if len(res.History) != len(lossless.History) {
			t.Fatalf("%s: history length %d, want %d", ws, len(res.History), len(lossless.History))
		}
		for i := range res.History {
			if got, want := res.History[i].Config.String(), lossless.History[i].Config.String(); got != want {
				t.Errorf("%s: history[%d] config %q, want %q", ws, i, got, want)
			}
			got, want := res.History[i].GlobalLoss, lossless.History[i].GlobalLoss
			if diff := math.Abs(got - want); !(diff <= relTol*math.Abs(want)+tier.abs) {
				t.Errorf("%s: history[%d] loss %v vs %v: error %g exceeds %g + %g·rel",
					ws, i, got, want, diff, tier.abs, relTol)
			}
		}
		if diff := math.Abs(res.TestMSE - lossless.TestMSE); !(diff <= relTol*math.Abs(lossless.TestMSE)+tier.abs) {
			t.Errorf("%s: test MSE %v vs %v exceeds tolerance", ws, res.TestMSE, lossless.TestMSE)
		}
		if res.EvalRounds != lossless.EvalRounds {
			t.Errorf("%s: eval rounds %d, want %d", ws, res.EvalRounds, lossless.EvalRounds)
		}
	}
}

// TestWireQuantCommsReduction is the headline acceptance criterion:
// at BatchSize 8, the int8 tier moves at least 4× fewer bytes in each
// direction than the gob-era wire billed for the same run, and fewer
// than lossless v1, while running the identical round structure. Both
// v1 sides bill exact encoded frame lengths.
func TestWireQuantCommsReduction(t *testing.T) {
	lossless := wireRun(t, 8, "v1")
	res := wireRun(t, 8, "v1+q8")
	if res.EvalRounds != lossless.EvalRounds || res.Comms.Rounds != lossless.Comms.Rounds ||
		res.Comms.Calls != lossless.Comms.Calls {
		t.Fatalf("round structure diverged (evals %d vs %d, rounds %d vs %d, calls %d vs %d) — byte ratio not comparable",
			res.EvalRounds, lossless.EvalRounds, res.Comms.Rounds, lossless.Comms.Rounds,
			res.Comms.Calls, lossless.Comms.Calls)
	}
	if res.Comms.BytesDown <= 0 || res.Comms.BytesUp <= 0 {
		t.Fatalf("empty byte accounting: %+v", res.Comms)
	}
	t.Logf("down %d (gob era) / %d (v1) → %d, up %d / %d → %d",
		gobEraBytesDown, lossless.Comms.BytesDown, res.Comms.BytesDown,
		gobEraBytesUp, lossless.Comms.BytesUp, res.Comms.BytesUp)
	if 4*res.Comms.BytesDown > gobEraBytesDown || 4*res.Comms.BytesUp > gobEraBytesUp {
		t.Errorf("bytes down/up %d/%d vs gob era %d/%d: reduction below 4×",
			res.Comms.BytesDown, res.Comms.BytesUp, gobEraBytesDown, gobEraBytesUp)
	}
	if res.Comms.BytesDown >= lossless.Comms.BytesDown || res.Comms.BytesUp >= lossless.Comms.BytesUp {
		t.Errorf("bytes down/up %d/%d not below lossless v1 %d/%d",
			res.Comms.BytesDown, res.Comms.BytesUp, lossless.Comms.BytesDown, lossless.Comms.BytesUp)
	}
}
