package layers

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// chainedExec is a two-layer stand-in for one golden execution: a CONV at
// layer index 0 and an FC at layer index 1 over their own golden inputs,
// with the execution's chain state.
type chainedExec struct {
	ls     [2]DeltaForwarder
	in     [2]*tensor.Tensor // pre-quantized golden inputs
	out    [2]*tensor.Tensor
	chains *GoldenChains
}

func newChainedExec(dt numeric.Type, quant *QuantCache, seed int64) *chainedExec {
	rng := rand.New(rand.NewSource(seed))
	fill := func(p []float64, std float64) {
		for i := range p {
			p[i] = rng.NormFloat64() * std
		}
	}
	conv := NewConv("conv", 3, 4, 3, 1, 1)
	fc := NewFC("fc", 3*6*6, 10)
	fill(conv.Weights, 0.3)
	fill(conv.Bias, 0.1)
	fill(fc.Weights, 0.2)
	fill(fc.Bias, 0.1)
	e := &chainedExec{ls: [2]DeltaForwarder{conv, fc}, chains: NewGoldenChains(dt, 2)}
	for li, l := range e.ls {
		in := tensor.New(tensor.Shape{C: 3, H: 6, W: 6})
		fill(in.Data, 1)
		in.Data = quantizeSlice(dt, in.Data)
		e.in[li] = in
		e.out[li] = l.Forward(&Context{DType: dt, Quant: quant}, in)
	}
	return e
}

// bytes is what the execution's two layers account when both are allocated.
func (e *chainedExec) bytes() int64 {
	var n int64
	for li, l := range e.ls {
		chain := l.(interface{ MACChainLen() int }).MACChainLen()
		n += int64(len(e.out[li].Data)) * int64((2*chain+4)*8+4)
	}
	return n
}

// walk replays one random changed set through layer li against the
// execution's chains and compares with the dense pass.
func (e *chainedExec) walk(dt numeric.Type, quant *QuantCache, sc *ChainScratch, rng *rand.Rand, li int) error {
	in := e.in[li]
	changed := rng.Perm(len(in.Data))[:1+rng.Intn(len(in.Data)/2)]
	faulty := in.Clone()
	for _, ci := range changed {
		faulty.Data[ci] = dt.Quantize(faulty.Data[ci] + 3)
	}
	ctx := &Context{DType: dt, Quant: quant, Chains: e.chains, Layer: li, Scratch: sc, GoldenIn: in.Data, QIn: faulty.Data, DenseCutoff: 1e-9}
	got := e.out[li].Clone()
	e.ls[li].ForwardDelta(ctx, faulty, e.out[li], got, changed, nil)
	want := e.ls[li].Forward(&Context{DType: dt, Quant: quant}, faulty)
	if !tensor.BitIdentical(got, want) {
		return fmt.Errorf("%s at layer %d: chained replay differs from the dense pass", e.ls[li].Name(), li)
	}
	return nil
}

// ledgerCheck asserts the ledger's invariants: the accounted total is the
// sum over live executions and never exceeds the budget.
func ledgerCheck(t *testing.T) {
	t.Helper()
	chainLedger.Lock()
	defer chainLedger.Unlock()
	var sum int64
	for _, g := range chainLedger.live {
		if g.bytes <= 0 {
			t.Errorf("an execution with %d accounted bytes is on the ledger", g.bytes)
		}
		sum += g.bytes
	}
	if sum != chainLedger.bytes {
		t.Errorf("ledger accounts %d bytes, its executions hold %d", chainLedger.bytes, sum)
	}
	if chainLedger.bytes > chainBudget {
		t.Errorf("ledger accounts %d bytes over a budget of %d", chainLedger.bytes, chainBudget)
	}
}

// TestChainBudgetEvictsWholeExecutions lowers the process budget to about
// one and a half executions and walks four of them in turn: the ledger
// never exceeds the budget, executions do get evicted (oldest first), and
// an evicted execution refills on its next walk with results bit-equal to
// the dense pass — sequentially, then with eight walkers racing the
// evictions (a walker keeps the entry it resolved when another's
// allocation evicts it).
func TestChainBudgetEvictsWholeExecutions(t *testing.T) {
	dt := numeric.Float16
	quant := NewQuantCache()
	execs := make([]*chainedExec, 4)
	for i := range execs {
		execs[i] = newChainedExec(dt, quant, int64(40+i))
	}
	defer func(b int64) { chainBudget = b }(chainBudget)
	chainBudget = execs[0].bytes() * 3 / 2

	rng := rand.New(rand.NewSource(3))
	sc := new(ChainScratch)
	evictions := 0
	for round := 0; round < 24; round++ {
		e := execs[round%len(execs)]
		before := make([]int64, len(execs))
		for i, o := range execs {
			before[i] = o.chains.Bytes()
		}
		for li := range e.ls {
			if err := e.walk(dt, quant, sc, rng, li); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			ledgerCheck(t)
		}
		if got := e.chains.Bytes(); got != e.bytes() {
			t.Fatalf("round %d: the walked execution accounts %d bytes, its two layers hold %d", round, got, e.bytes())
		}
		for i, o := range execs {
			if o != e && before[i] > 0 && o.chains.Bytes() == 0 {
				evictions++
			}
		}
	}
	if evictions == 0 {
		t.Fatal("four executions fit a budget of one and a half: nothing was evicted")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			sc := new(ChainScratch)
			for i := 0; i < 40; i++ {
				if err := execs[rng.Intn(len(execs))].walk(dt, quant, sc, rng, rng.Intn(2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ledgerCheck(t)
}

// TestChainBudgetRefusesWhatNeverFits: a layer larger than the whole budget
// gets no entry — the walk recomputes its chains in full and nothing is
// accounted.
func TestChainBudgetRefusesWhatNeverFits(t *testing.T) {
	dt := numeric.Fx16RB10
	quant := NewQuantCache()
	e := newChainedExec(dt, quant, 7)
	defer func(b int64) { chainBudget = b }(chainBudget)
	chainBudget = 64
	if err := e.walk(dt, quant, nil, rand.New(rand.NewSource(1)), 1); err != nil {
		t.Fatal(err)
	}
	if got := e.chains.Bytes(); got != 0 {
		t.Fatalf("an execution over the budget accounts %d bytes", got)
	}
	ledgerCheck(t)
}

// TestCollectedExecutionLeavesTheLedger: the ledger must not keep the
// chains of an execution nothing else references — short-lived campaigns
// would otherwise hold the full budget in dead chains.
func TestCollectedExecutionLeavesTheLedger(t *testing.T) {
	dt := numeric.Float16
	quant := NewQuantCache()
	// Holding the state behind the handle does not keep the handle alive.
	var state *chainState
	onLedger := func() bool {
		chainLedger.Lock()
		defer chainLedger.Unlock()
		return slices.Contains(chainLedger.live, state)
	}
	func() {
		e := newChainedExec(dt, quant, 11)
		if err := e.walk(dt, quant, nil, rand.New(rand.NewSource(1)), 0); err != nil {
			t.Fatal(err)
		}
		state = e.chains.chainState
	}()
	if !onLedger() {
		t.Fatal("a walked execution is not on the ledger")
	}
	for i := 0; i < 50 && onLedger(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if onLedger() {
		t.Fatal("ledger still holds the chains of an execution nothing references")
	}
	ledgerCheck(t)
}
