package network

import (
	"fmt"
	"math"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// InjectionBatch amortizes the per-injection setup of ForwardFrom across a
// group of faults that share one (golden execution, faulted layer): the
// campaign groups a shard's injections by (input, faulted layer) and runs
// each group through a batch, so the faulted layer's quantized input and
// the shared golden prefix views are resolved once per group rather than
// once per injection. Downstream propagation is the same sparse
// receptive-field delta-stepping ForwardFrom uses (propagateDelta), so
// grouped injections also skip the dense forward cost of unmasked faults.
// Every Run result is bit-identical to the corresponding ForwardFrom call.
//
// A batch holds only per-group scratch and is not safe for concurrent use;
// each campaign shard builds its own. The golden accumulation chains its
// propagations replay are not the batch's: they belong to the golden
// execution and are shared, read-only once filled, with every other batch
// and surface walking it (see Execution.goldenChains).
type InjectionBatch struct {
	net      *Network
	dt       numeric.Type
	golden   *Execution
	layerIdx int
	// ef is nil when the faulted layer cannot element-forward; Run then
	// falls back to the dense path, exactly as ForwardFrom does.
	ef    layers.ElementForwarder
	in    *tensor.Tensor
	quant *layers.QuantCache
	// qin is the pre-quantized faulted-layer input: the golden activation
	// itself past layer 0; for layer 0's raw data, populated only when the
	// group is large enough that one whole-input quantization is cheaper
	// than per-tap quantization across the group's chains.
	qin []float64
	// ctx is reused across Run calls (the batch runs on one goroutine).
	ctx layers.Context
	// pfw is non-nil when the faulted layer supports bit-plane evaluation
	// (every CONV/FC layer does).
	pfw layers.PlaneForwarder
	// scratch is the reusable faulted-layer activation clone of
	// PropagateShared: patched before each propagation, restored to golden
	// after, so masked injections stop paying one full tensor clone each.
	scratch *tensor.Tensor
	// acts holds PropagateShared's per-layer delta outputs until it knows
	// whether the fault masked (then they are dropped) or needs an
	// Execution (then they are moved into it — ForwardDelta clones before
	// writing, so they never alias scratch).
	acts []*tensor.Tensor
}

// NewInjectionBatch prepares a batch of expected faulty runs against the
// faulted layer layerIdx of a golden execution. expected is the group size
// the caller intends to Run; it only tunes the pre-quantization heuristic,
// not correctness — any number of Run calls is valid.
func (n *Network) NewInjectionBatch(dt numeric.Type, golden *Execution, layerIdx, expected int) *InjectionBatch {
	if layerIdx < 0 || layerIdx >= len(n.Layers) {
		panic(fmt.Sprintf("network %s: layer index %d out of range", n.Name, layerIdx))
	}
	b := &InjectionBatch{
		net: n, dt: dt, golden: golden, layerIdx: layerIdx,
		quant: n.quant.Load(),
	}
	ef, ok := n.Layers[layerIdx].(layers.ElementForwarder)
	if !ok {
		return b
	}
	b.ef = ef
	b.in = golden.LayerInput(layerIdx)
	if layerIdx > 0 {
		b.qin = b.in.Data // a layer output is its own pre-quantized view
	} else if cl, ok := ef.(interface{ MACChainLen() int }); ok {
		// Layer 0 reads raw image data. Pre-quantize all of it only when the
		// group's accumulation chains would otherwise quantize at least as
		// many taps; small groups stay on per-tap quantization.
		if chain := cl.MACChainLen(); chain > 0 && expected*chain >= len(b.in.Data) {
			b.qin = layers.QuantizeSlice(dt, b.in.Data)
		}
	}
	b.ctx = layers.Context{DType: dt, Quant: b.quant, QIn: b.qin}
	b.pfw, _ = ef.(layers.PlaneForwarder)
	return b
}

// ForwardPlane replays the faulted accumulation chain once, writing into
// vals[bit] — for every bit set in pf.Bits — the faulty chain output of
// flipping that bit at (pf.MACStep, pf.Target). Each value is bit-identical
// to the ForwardElement replay of the corresponding scalar Fault; the
// return value is the golden chain output.
func (b *InjectionBatch) ForwardPlane(pf *layers.PlaneFault, vals *[64]float64) float64 {
	if b.pfw == nil {
		panic(fmt.Sprintf("network %s: layer %d cannot plane-forward", b.net.Name, b.layerIdx))
	}
	return b.pfw.ForwardElementPlane(&b.ctx, b.in, pf, vals)
}

// StepOperands returns the quantized (weight, activation) operand pair one
// MAC step of one output element consumes — the inputs of the analytical
// masking pre-screen.
func (b *InjectionBatch) StepOperands(outputIndex, macStep int) (w, x float64) {
	if b.pfw == nil {
		panic(fmt.Sprintf("network %s: layer %d cannot plane-forward", b.net.Name, b.layerIdx))
	}
	return b.pfw.StepOperands(&b.ctx, b.in, outputIndex, macStep)
}

// Propagate finishes a faulty run from an already-computed faulted-element
// value, bit-identical to the tail of Run after ForwardElement.
func (b *InjectionBatch) Propagate(outputIndex int, faultyVal float64) *Execution {
	return b.net.propagateElement(b.dt, b.golden, b.layerIdx, outputIndex, faultyVal, b.quant)
}

// PropagateShared is Propagate for callers that only need an Execution when
// the fault is unmasked: it returns (nil, true) for masked faults —
// bit-identical in classification to the Masked Execution Propagate would
// build (every downstream activation aliases golden) — without cloning the
// faulted layer's activation per injection. The changed-set walk runs on a
// reusable scratch clone patched in place and restored afterwards; unmasked
// faults still materialize a full Execution, bit-identical to Propagate's.
//
// Callers that inspect the faulty execution itself (e.g. detectors) must
// use Propagate: a masked (nil, true) result has no activations to read.
func (b *InjectionBatch) PropagateShared(outputIndex int, faultyVal float64) (*Execution, bool) {
	n, golden := b.net, b.golden
	goldenVal := golden.Acts[b.layerIdx].Data[outputIndex]
	if math.Float64bits(faultyVal) == math.Float64bits(goldenVal) {
		return nil, true
	}
	if b.scratch == nil {
		b.scratch = golden.Acts[b.layerIdx].Clone()
		b.acts = make([]*tensor.Tensor, len(n.Layers))
	}
	cur := b.scratch
	cur.Data[outputIndex] = faultyVal
	clean := &layers.Context{DType: b.dt, Quant: b.quant, DenseCutoff: n.denseCutoff}
	i, cur, changed := n.deltaWalk(clean, golden, b.layerIdx+1, cur, []int{outputIndex}, cur.Data, b.acts)
	if len(changed) == 0 {
		b.scratch.Data[outputIndex] = goldenVal
		return nil, true
	}

	exec := &Execution{Input: golden.Input, Acts: make([]*tensor.Tensor, len(n.Layers))}
	copy(exec.Acts[:b.layerIdx], golden.Acts[:b.layerIdx])
	patched := golden.Acts[b.layerIdx].Clone()
	patched.Data[outputIndex] = faultyVal
	exec.Acts[b.layerIdx] = patched
	copy(exec.Acts[b.layerIdx+1:i], b.acts[b.layerIdx+1:i])
	b.scratch.Data[outputIndex] = goldenVal
	if cur == b.scratch {
		// No delta layer ran before the dense tail (the layer after the
		// faulted one is not a DeltaForwarder): the tail must read the
		// patched activation, not the restored scratch.
		cur = patched
	}
	for ; i < len(n.Layers); i++ {
		cur = n.Layers[i].Forward(clean, cur)
		exec.Acts[i] = cur
	}
	return exec, false
}

// Run executes one faulty inference of the batch, bit-identical to
// ForwardFrom(dt, golden, layerIdx, fault).
func (b *InjectionBatch) Run(fault *layers.Fault) *Execution {
	if b.ef == nil || fault == nil {
		return b.net.ForwardFromDense(b.dt, b.golden, b.layerIdx, fault)
	}
	b.ctx.Fault = fault
	faultyVal := b.ef.ForwardElement(&b.ctx, b.in, fault.OutputIndex)
	b.ctx.Fault = nil
	return b.net.propagateElement(b.dt, b.golden, b.layerIdx, fault.OutputIndex, faultyVal, b.quant)
}
