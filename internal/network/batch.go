package network

import (
	"fmt"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// InjectionBatch holds what the bit-plane evaluation of single-MAC fault
// sites needs of one (golden execution, faulted MAC layer): the layer's
// plane forwarder and golden input. A campaign slot keeps one per (input,
// MAC layer) it strikes and hands it every such site
// (engine.EvalPlaneSite); each distinct faulty value then propagates
// through the slot's SlotScratch (SlotScratch.Propagate).
//
// A batch holds the replay's own storage and is not safe for concurrent
// use. The golden accumulation chains the plane replays read are not the
// batch's: they belong to the golden execution and are shared with every
// other batch and surface walking it (see Execution.goldenChains).
type InjectionBatch struct {
	in *tensor.Tensor
	// ctx carries the format, the quant cache and, past layer 0, the golden
	// input as its own pre-quantized view (layer 0 reads raw data and
	// quantizes per tap).
	ctx layers.Context
	// pfw is the faulted layer's bit-plane forwarder (every CONV/FC layer
	// has one).
	pfw layers.PlaneForwarder
	// pf and vals are ForwardPlane's argument and result, kept here because
	// the forwarder's interface call would move them to the heap per site.
	pf   layers.PlaneFault
	vals [64]float64
}

// NewInjectionBatch prepares the bit-plane evaluation of faults in MAC
// layer layerIdx of a golden execution.
func (n *Network) NewInjectionBatch(dt numeric.Type, golden *Execution, layerIdx int) *InjectionBatch {
	n.checkLayer(layerIdx)
	pfw, ok := n.Layers[layerIdx].(layers.PlaneForwarder)
	if !ok {
		panic(fmt.Sprintf("network %s: layer %d cannot plane-forward", n.Name, layerIdx))
	}
	b := &InjectionBatch{in: golden.LayerInput(layerIdx), pfw: pfw}
	b.ctx = layers.Context{DType: dt, Quant: n.quant.Load()}
	if layerIdx > 0 {
		b.ctx.QIn = b.in.Data // a layer output is its own pre-quantized view
	}
	return b
}

// ForwardPlane replays the faulted accumulation chain once, setting
// vals[bit] — for every bit set in pf.Bits — to the faulty chain output of
// flipping that bit at (pf.MACStep, pf.Target). Each value is bit-identical
// to the ForwardElement replay of the corresponding scalar Fault; golden is
// the golden chain output. vals is the batch's, valid until its next
// ForwardPlane.
func (b *InjectionBatch) ForwardPlane(pf layers.PlaneFault) (vals *[64]float64, golden float64) {
	b.pf = pf
	golden = b.pfw.ForwardElementPlane(&b.ctx, b.in, &b.pf, &b.vals)
	return &b.vals, golden
}

// StepOperands returns the quantized (weight, activation) operand pair one
// MAC step of one output element consumes — the inputs of the analytical
// masking pre-screen.
func (b *InjectionBatch) StepOperands(outputIndex, macStep int) (w, x float64) {
	return b.pfw.StepOperands(&b.ctx, b.in, outputIndex, macStep)
}
