package network

import (
	"fmt"
	"math"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// InjectionBatch holds what the bit-plane evaluation of single-MAC fault
// sites needs of one (golden execution, faulted MAC layer): the layer's
// plane forwarder and golden input, and the scratch PropagateShared patches
// in place. A campaign slot keeps one per (input, MAC layer) it strikes and
// hands it every such site (engine.EvalPlaneSite). Downstream propagation
// is the same sparse receptive-field delta-stepping ForwardFrom uses
// (propagateDelta), bit-identical to it.
//
// A batch holds only per-slot scratch and is not safe for concurrent use.
// The golden accumulation chains its propagations replay are not the
// batch's: they belong to the golden execution and are shared, read-only
// once filled, with every other batch and surface walking it (see
// Execution.goldenChains).
type InjectionBatch struct {
	net      *Network
	dt       numeric.Type
	golden   *Execution
	layerIdx int
	in       *tensor.Tensor
	quant    *layers.QuantCache
	// ctx carries the format, the quant cache and, past layer 0, the golden
	// input as its own pre-quantized view (layer 0 reads raw data and
	// quantizes per tap).
	ctx layers.Context
	// pfw is the faulted layer's bit-plane forwarder (every CONV/FC layer
	// has one).
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

// NewInjectionBatch prepares the bit-plane evaluation of faults in MAC
// layer layerIdx of a golden execution.
func (n *Network) NewInjectionBatch(dt numeric.Type, golden *Execution, layerIdx int) *InjectionBatch {
	n.checkLayer(layerIdx)
	pfw, ok := n.Layers[layerIdx].(layers.PlaneForwarder)
	if !ok {
		panic(fmt.Sprintf("network %s: layer %d cannot plane-forward", n.Name, layerIdx))
	}
	b := &InjectionBatch{
		net: n, dt: dt, golden: golden, layerIdx: layerIdx,
		in: golden.LayerInput(layerIdx), quant: n.quant.Load(), pfw: pfw,
	}
	b.ctx = layers.Context{DType: dt, Quant: b.quant}
	if layerIdx > 0 {
		b.ctx.QIn = b.in.Data // a layer output is its own pre-quantized view
	}
	return b
}

// ForwardPlane replays the faulted accumulation chain once, writing into
// vals[bit] — for every bit set in pf.Bits — the faulty chain output of
// flipping that bit at (pf.MACStep, pf.Target). Each value is bit-identical
// to the ForwardElement replay of the corresponding scalar Fault; the
// return value is the golden chain output.
func (b *InjectionBatch) ForwardPlane(pf *layers.PlaneFault, vals *[64]float64) float64 {
	return b.pfw.ForwardElementPlane(&b.ctx, b.in, pf, vals)
}

// StepOperands returns the quantized (weight, activation) operand pair one
// MAC step of one output element consumes — the inputs of the analytical
// masking pre-screen.
func (b *InjectionBatch) StepOperands(outputIndex, macStep int) (w, x float64) {
	return b.pfw.StepOperands(&b.ctx, b.in, outputIndex, macStep)
}

// Propagate finishes a faulty run from an already-computed faulted-element
// value, bit-identical to the ForwardFrom of a fault whose element
// recomputes to faultyVal.
func (b *InjectionBatch) Propagate(outputIndex int, faultyVal float64) *Execution {
	act := b.golden.Acts[b.layerIdx]
	if math.Float64bits(faultyVal) == math.Float64bits(act.Data[outputIndex]) {
		// The flip died inside the faulted chain: the run is golden's.
		return b.net.forwardWithAct(b.dt, b.golden, b.layerIdx, act, nil, b.quant)
	}
	act = act.Clone()
	act.Data[outputIndex] = faultyVal
	return b.net.forwardWithAct(b.dt, b.golden, b.layerIdx, act, []int{outputIndex}, b.quant)
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
