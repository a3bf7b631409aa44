package network

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// SlotScratch is the reusable state of a sequence of faulty inferences of
// one network under one format — a campaign slot's, which builds one and
// evaluates every injection of the slot through it. A faulty execution
// differs from its golden one only in the layers the fault reached, and
// there only at the elements the changed-set walk logs, so the scratch
// keeps one golden-valued buffer per (golden execution, layer), allocated
// the first time a walk writes that layer. Each propagation patches its
// changed elements into those buffers and logs them; the next propagation
// first writes the logged elements back from golden, and re-copies in full
// the layers a dense tail rewrote. The walk's changed-set
// slices, its layers.ChainScratch and the Execution it returns are reused
// the same way, so once its buffers exist a propagation allocates nothing,
// masked or not.
//
// The Execution a propagation returns is therefore the scratch's own: it is
// valid until the scratch's next propagation, and a caller that
// needs one beyond that uses the Network methods of the same names, which
// run the same code on a fresh scratch and return a caller-owned execution.
// A scratch is not safe for concurrent use; the golden executions it reads
// (and their shared chains) are never written.
type SlotScratch struct {
	net *Network
	dt  numeric.Type
	// sets holds the buffers of every golden execution walked so far, in
	// first-use order (a slot cycles through a handful of inputs).
	sets []*goldenBuffers
	// live is the set the last propagation wrote, nil once restored;
	// logs[li] lists the elements it wrote of each layer in written, and
	// every layer from tail on was rewritten in full.
	live    *goldenBuffers
	logs    [][]int
	written []int
	tail    int
	exec    Execution
	ctx     layers.Context
	chain   layers.ChainScratch
	front   []layers.Fault // ForwardFrom's one-fault front
	in      []int          // ForwardFromInput's normalized changed set
}

// goldenBuffers are the golden-valued activation buffers of one golden
// execution, by layer index; nil until a walk first writes the layer.
type goldenBuffers struct {
	golden *Execution
	acts   []*tensor.Tensor
}

// NewSlotScratch returns an empty scratch for faulty inferences of n under
// dt.
func (n *Network) NewSlotScratch(dt numeric.Type) *SlotScratch {
	return &SlotScratch{
		net: n, dt: dt,
		logs: make([][]int, len(n.Layers)),
		exec: Execution{Acts: make([]*tensor.Tensor, len(n.Layers))},
	}
}

// restore writes every element the last propagation patched back from its
// golden execution, leaving every buffer the scratch holds bit-identical to
// its golden layer. Every propagation calls it on entry, which is what ends
// the life of the execution the previous one returned.
func (sc *SlotScratch) restore() {
	b := sc.live
	if b == nil {
		return
	}
	for _, li := range sc.written {
		buf, g := b.acts[li].Data, b.golden.Acts[li].Data
		for _, i := range sc.logs[li] {
			buf[i] = g[i]
		}
	}
	for li := sc.tail; li < len(b.acts); li++ {
		copy(b.acts[li].Data, b.golden.Acts[li].Data)
	}
	sc.live = nil
}

// begin restores the previous propagation and readies the scratch's
// execution for one against golden whose first differing layer is from:
// every earlier layer is golden's.
func (sc *SlotScratch) begin(golden *Execution, from int) *goldenBuffers {
	sc.restore()
	var b *goldenBuffers
	for _, s := range sc.sets {
		if s.golden == golden {
			b = s
			break
		}
	}
	if b == nil {
		b = &goldenBuffers{golden: golden, acts: make([]*tensor.Tensor, len(sc.net.Layers))}
		sc.sets = append(sc.sets, b)
	}
	sc.live, sc.written, sc.tail = b, sc.written[:0], len(sc.net.Layers)
	e := &sc.exec
	e.Input, e.Masked = golden.Input, false
	copy(e.Acts[:from], golden.Acts[:from])
	return b
}

// buffer returns the golden-valued buffer of layer li, allocating it — a
// copy of the golden activation — on the set's first write of the layer.
func (b *goldenBuffers) buffer(li int) *tensor.Tensor {
	if b.acts[li] == nil {
		g := b.golden.Acts[li]
		b.acts[li] = &tensor.Tensor{Shape: g.Shape, Data: make([]float64, len(g.Data))}
		copy(b.acts[li].Data, g.Data)
	}
	return b.acts[li]
}

// ForwardFrom is Network.ForwardFrom on the scratch.
func (sc *SlotScratch) ForwardFrom(golden *Execution, layerIdx int, fault *layers.Fault) *Execution {
	n := sc.net
	n.checkLayer(layerIdx)
	if fault == nil {
		sc.restore()
		return n.ForwardFromDense(sc.dt, golden, layerIdx, nil)
	}
	// The fault runs as the scratch's one-fault front, so the caller's
	// never escapes.
	sc.front = append(sc.front[:0], *fault)
	var exec *Execution
	if _, ok := n.Layers[layerIdx].(layers.ElementForwarder); ok {
		exec = sc.forwardFront(golden, layerIdx, sc.front)
	} else {
		sc.restore()
		exec = n.ForwardFromDense(sc.dt, golden, layerIdx, &sc.front[0])
	}
	fault.Applied = sc.front[0].Applied
	return exec
}

// ForwardFront is Network.ForwardFront on the scratch.
func (sc *SlotScratch) ForwardFront(golden *Execution, layerIdx int, front []layers.Fault) *Execution {
	n := sc.net
	n.checkLayer(layerIdx)
	exec := sc.forwardFront(golden, layerIdx, front)
	for i := range front {
		if !front[i].Applied {
			panic(fmt.Sprintf("network %s: front fault %+v was not exercised by layer %d", n.Name, front[i], layerIdx))
		}
	}
	return exec
}

// forwardFront is ForwardFront without the exercised-fault check, which
// ForwardFrom leaves to its callers: each struck element is recomputed
// under its fault alone and patched into the layer's buffer when it left
// golden.
func (sc *SlotScratch) forwardFront(golden *Execution, layerIdx int, front []layers.Fault) *Execution {
	n := sc.net
	ef, ok := n.Layers[layerIdx].(layers.ElementForwarder)
	if !ok {
		panic(fmt.Sprintf("network %s: layer %d cannot recompute single elements", n.Name, layerIdx))
	}
	b := sc.begin(golden, layerIdx)
	in := golden.LayerInput(layerIdx)
	ctx := &sc.ctx
	*ctx = layers.Context{DType: sc.dt, Quant: n.quant.Load()}
	if layerIdx > 0 {
		ctx.QIn = in.Data // a layer output is its own pre-quantized view
	}
	goldenAct := golden.Acts[layerIdx]
	changed := sc.logs[layerIdx][:0]
	for i := range front {
		f := &front[i]
		ctx.Fault = f
		v := ef.ForwardElement(ctx, in, f.OutputIndex)
		if math.Float64bits(v) == math.Float64bits(goldenAct.Data[f.OutputIndex]) {
			continue // quantization or saturation absorbed the flip inside the chain
		}
		b.buffer(layerIdx).Data[f.OutputIndex] = v
		changed = append(changed, f.OutputIndex)
	}
	ctx.Fault = nil
	slices.Sort(changed)
	sc.logs[layerIdx] = changed
	return sc.patched(b, layerIdx)
}

// Propagate finishes a faulty run from an already-computed value of output
// element outputIndex of MAC layer layerIdx — the bit-plane replay's — bit-
// identical to the ForwardFrom of a fault whose element recomputes to
// faultyVal.
func (sc *SlotScratch) Propagate(golden *Execution, layerIdx, outputIndex int, faultyVal float64) *Execution {
	sc.net.checkLayer(layerIdx)
	b := sc.begin(golden, layerIdx)
	changed := sc.logs[layerIdx][:0]
	if math.Float64bits(faultyVal) != math.Float64bits(golden.Acts[layerIdx].Data[outputIndex]) {
		b.buffer(layerIdx).Data[outputIndex] = faultyVal
		changed = append(changed, outputIndex)
	}
	sc.logs[layerIdx] = changed
	return sc.patched(b, layerIdx)
}

// patched finishes a propagation whose layer layerIdx is golden's except at
// the (logged) indices sc.logs[layerIdx], which its buffer holds. An empty
// set is a fault that died inside its chains: the execution aliases golden.
func (sc *SlotScratch) patched(b *goldenBuffers, layerIdx int) *Execution {
	changed := sc.logs[layerIdx]
	if len(changed) == 0 {
		return sc.masked(b.golden, layerIdx)
	}
	sc.written = append(sc.written, layerIdx)
	act := b.acts[layerIdx]
	sc.exec.Acts[layerIdx] = act
	// act is a layer output under dt (each layer quantizes what it writes),
	// so it is its own pre-quantized view.
	return sc.propagate(b, layerIdx+1, act, changed, act.Data)
}

// ForwardFromInput is Network.ForwardFromInput on the scratch. in is the
// caller's and stays out of the execution.
func (sc *SlotScratch) ForwardFromInput(golden *Execution, layerIdx int, in *tensor.Tensor, changed []int) *Execution {
	sc.net.checkLayer(layerIdx)
	b := sc.begin(golden, layerIdx)
	sc.in = appendNormalized(sc.in[:0], changed, len(in.Data))
	// in is caller-supplied (layer 0's is raw image data), so the struck
	// layer quantizes what it reads instead of trusting a QIn view.
	return sc.propagate(b, layerIdx, in, sc.in, nil)
}

// propagate is the one changed-set walker every fault model ends in: cur
// is the faulty input of layer from, differing from that layer's golden
// input exactly at the changed indices, and the execution already holds
// everything before from. The perturbation delta-steps through every
// downstream layer that implements DeltaForwarder, each step writing into
// the layer's buffer and logging what it wrote; it bit-compares against
// the golden activation and re-shrinks the changed set. When the set
// empties — a masked fault — the remaining layers are skipped and the
// execution aliases the golden activations with Masked set; otherwise the
// layers past the walk run densely into their buffers. qin is cur's
// pre-quantized view (cur.Data itself when cur is a layer output, nil when
// it is caller-supplied data the first layer must quantize for itself).
//
// The walk attaches golden's shared chain state, so MAC layers replay
// diverged chain suffixes on every surface, and the scratch's own
// ChainScratch for its bookkeeping.
func (sc *SlotScratch) propagate(b *goldenBuffers, from int, cur *tensor.Tensor, changed []int, qin []float64) *Execution {
	n, golden, e := sc.net, b.golden, &sc.exec
	ctx := &sc.ctx
	*ctx = layers.Context{
		DType: sc.dt, Quant: n.quant.Load(), DenseCutoff: n.denseCutoff,
		Chains: golden.goldenChains(sc.dt, len(n.Layers)), Scratch: &sc.chain,
	}
	i := from
	for ; i < len(n.Layers) && len(changed) > 0; i++ {
		df, ok := n.Layers[i].(layers.DeltaForwarder)
		if !ok {
			break
		}
		// Handing the MAC layers a pre-quantized view as QIn skips their
		// whole-input re-quantization bit-identically. Layer 0's golden
		// input is raw data, not a pre-quantized view, so it cannot seed
		// golden chain fills.
		ctx.Layer, ctx.QIn, ctx.GoldenIn = i, qin, nil
		if i > 0 {
			ctx.GoldenIn = golden.Acts[i-1].Data
		}
		out := b.buffer(i)
		changed = df.ForwardDelta(ctx, cur, golden.Acts[i], out, changed, sc.logs[i][:0])
		sc.logs[i] = changed
		sc.written = append(sc.written, i)
		e.Acts[i], cur, qin = out, out, out.Data
	}
	if len(changed) == 0 {
		// The perturbation died (inside the faulted chain, in a ReLU clamp,
		// a lost pool max, LRN rounding, or a CONV/FC cone whose every
		// recomputed element requantized back to golden): everything from
		// the last step on is bit-identical to golden.
		return sc.masked(golden, max(i-1, from))
	}
	*ctx = layers.Context{DType: sc.dt, Quant: ctx.Quant}
	sc.tail = i
	for ; i < len(n.Layers); i++ {
		out := b.buffer(i)
		n.Layers[i].ForwardInto(ctx, cur, out)
		e.Acts[i], cur = out, out
	}
	return e
}

// masked finishes the execution as golden's from layer from on.
func (sc *SlotScratch) masked(golden *Execution, from int) *Execution {
	e := &sc.exec
	copy(e.Acts[from:], golden.Acts[from:])
	e.Masked = true
	return e
}

// appendNormalized appends a caller-supplied changed set to dst sorted
// ascending and free of duplicates — the form the delta walkers hand each
// other — without touching the caller's slice.
func appendNormalized(dst, changed []int, elems int) []int {
	dst = append(dst, changed...)
	if len(dst) == 0 {
		return dst
	}
	slices.Sort(dst)
	if dst[0] < 0 || dst[len(dst)-1] >= elems {
		panic(fmt.Sprintf("network: changed index out of range [0,%d)", elems))
	}
	return slices.Compact(dst)
}
