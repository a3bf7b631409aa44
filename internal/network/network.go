// Package network assembles layers into the feed-forward DNNs the paper
// studies and executes them under a chosen numeric format. It supports the
// fault-injection campaign's two performance-critical operations: capturing
// every intermediate activation tensor of a golden run, and resuming a
// faulty run from the faulted layer using the cached golden input — exact
// under the single-fault model and far cheaper than a full re-execution.
package network

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// Network is an ordered pipeline of layers with a fixed input shape.
type Network struct {
	// Name is the model name ("AlexNet", "NiN", ...).
	Name string
	// InShape is the expected input feature-map shape.
	InShape tensor.Shape
	// Layers are executed in order.
	Layers []layers.Layer
	// Classes is the number of output candidates.
	Classes int

	// quant, when set, caches quantized layer parameters for every
	// forward pass of this network (see EnableQuantCache).
	quant atomic.Pointer[layers.QuantCache]
	// denseCutoff is the changed-set density at which delta propagation
	// falls back to dense per-layer re-execution (layers.Context.DenseCutoff;
	// zero is layers.DefaultSparseDensityCutoff). Bit-identical either way,
	// so only this package's tests move it, to force both paths.
	denseCutoff float64
}

// EnableQuantCache attaches a quantized-parameter cache to the network:
// every subsequent forward pass reads CONV/FC weights and biases quantized
// once per numeric format instead of re-quantizing them per inference.
// Results are bit-identical. Campaigns enable it before injecting; code
// that mutates layer parameters afterwards must call InvalidateQuantCache.
func (n *Network) EnableQuantCache() {
	n.quant.CompareAndSwap(nil, layers.NewQuantCache())
}

// InvalidateQuantCache drops cached quantized parameters after a weight
// mutation (e.g. a training step). The cache stays enabled and refills
// lazily from the new values.
func (n *Network) InvalidateQuantCache() {
	if n.quant.Load() != nil {
		n.quant.Store(layers.NewQuantCache())
	}
}

// Validate checks that the layer shapes compose and that the final output
// is a Classes-long vector.
func (n *Network) Validate() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("network %s: %v", n.Name, r)
		}
	}()
	s := n.InShape
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	if s.Elems() != n.Classes {
		return fmt.Errorf("network %s: final shape %v has %d elems, want %d classes",
			n.Name, s, s.Elems(), n.Classes)
	}
	return nil
}

// HasSoftmax reports whether the final layer produces confidence scores.
// NiN has no softmax, so its output is a ranking without confidences
// (§4.1) and the SDC-10%/SDC-20% criteria do not apply.
func (n *Network) HasSoftmax() bool {
	if len(n.Layers) == 0 {
		return false
	}
	return n.Layers[len(n.Layers)-1].Kind() == layers.Softmax
}

// MACLayerIndices returns the indices of CONV and FC layers — the layers
// executed on the PE array and therefore the datapath fault sites.
func (n *Network) MACLayerIndices() []int {
	var idx []int
	for i, l := range n.Layers {
		if k := l.Kind(); k == layers.Conv || k == layers.FC {
			idx = append(idx, i)
		}
	}
	return idx
}

// NumBlocks returns the number of paper-style "layers": each CONV/FC and
// its attached POOL/ReLU/LRN post-ops form one block, matching the layer
// numbering of Fig. 6 and Table 4.
func (n *Network) NumBlocks() int { return len(n.MACLayerIndices()) }

// BlockOfLayer maps a layer index to its 0-based block number. Post-op
// layers belong to the block of the preceding CONV/FC. It panics for
// layers before the first block (none of the paper's networks start with a
// post-op).
func (n *Network) BlockOfLayer(layerIdx int) int {
	block := -1
	for i := 0; i <= layerIdx; i++ {
		if k := n.Layers[i].Kind(); k == layers.Conv || k == layers.FC {
			block++
		}
	}
	if block < 0 {
		panic(fmt.Sprintf("network %s: layer %d precedes the first CONV/FC block", n.Name, layerIdx))
	}
	return block
}

// blockEnds returns, for each block, the index of its last layer
// (excluding a trailing softmax, which reports confidences rather than
// ACTs).
func (n *Network) blockEnds() []int {
	var ends []int
	cur := -1
	for i, l := range n.Layers {
		switch l.Kind() {
		case layers.Conv, layers.FC:
			cur++
			ends = append(ends, i)
		case layers.Softmax:
			// Not part of any block.
		default:
			if cur >= 0 {
				ends[cur] = i
			}
		}
	}
	return ends
}

// Execution captures one forward pass: the input and the output of every
// layer.
type Execution struct {
	Input *tensor.Tensor
	// Acts[i] is the output tensor of Layers[i].
	Acts []*tensor.Tensor
	// Masked records that a fault injected into this execution was fully
	// absorbed before reaching the network output: from the masking point
	// on, Acts alias the golden tensors bit-identically. Classification,
	// spread and detector paths read the same values they would from a
	// dense re-execution; the flag only tells them no recomputation
	// happened.
	Masked bool

	// chains is the golden accumulation-chain state delta walks against
	// this execution share (see goldenChains); nil until the first walk.
	chains atomic.Pointer[layers.GoldenChains]
}

// goldenChains returns the chain state every delta walk against golden
// execution e shares — every shard goroutine, slot, surface and campaign
// that resolves e — attaching it on the first walk; the golden pass itself
// never builds it. The state is bound to the format and depth of that first
// walk: layers refuse it to a walk under another format (no campaign does
// this), which then recomputes its chains in full.
func (e *Execution) goldenChains(dt numeric.Type, nLayers int) *layers.GoldenChains {
	if g := e.chains.Load(); g != nil {
		return g
	}
	e.chains.CompareAndSwap(nil, layers.NewGoldenChains(dt, nLayers))
	return e.chains.Load()
}

// Forward runs the whole network under format dt, capturing every layer
// output.
func (n *Network) Forward(dt numeric.Type, in *tensor.Tensor) *Execution {
	return n.ForwardParallel(dt, in, 0)
}

// ForwardParallel is Forward with the independent CONV/FC output loops
// split across up to workers goroutines (0 or 1 means serial). Output is
// bit-identical to Forward; campaigns use it so a golden pass over a
// single input still saturates the machine.
func (n *Network) ForwardParallel(dt numeric.Type, in *tensor.Tensor, workers int) *Execution {
	if in.Shape != n.InShape {
		panic(fmt.Sprintf("network %s: input shape %v, want %v", n.Name, in.Shape, n.InShape))
	}
	exec := &Execution{Input: in, Acts: make([]*tensor.Tensor, len(n.Layers))}
	ctx := &layers.Context{DType: dt, Quant: n.quant.Load(), Workers: workers}
	cur := in
	for i, l := range n.Layers {
		cur = l.Forward(ctx, cur)
		exec.Acts[i] = cur
	}
	return exec
}

// ForwardFrom resumes execution at layer layerIdx using the golden run's
// cached input to that layer, injecting fault into it, then running the
// remaining layers fault-free. Under the paper's single transient fault
// model this is bit-identical to a full faulty run.
//
// When the faulted layer is a CONV/FC layer (always the case for datapath
// faults), the layer is not re-executed densely: the fault perturbs exactly
// one accumulation chain, so only output element fault.OutputIndex is
// recomputed and patched into a copy of the golden activation. The
// perturbation then delta-steps through every downstream layer that
// implements DeltaForwarder — the element-local post-ops (ReLU, POOL, LRN)
// and the MAC layers themselves, whose recompute is bounded by the
// receptive-field cone of the changed set (with a density-adaptive dense
// fallback per layer; see layers.Context.DenseCutoff). Each step
// bit-compares against the golden activation and re-shrinks the changed
// set; if it empties — a masked fault, the common case for low-order bits —
// all remaining layers are skipped and the execution aliases the golden
// activations with Masked set. See ForwardFromDense for the reference
// implementation this path is bit-identical to. It is the one-element case
// of ForwardFront, except that an unexercised fault is left for the caller
// to find in fault.Applied.
func (n *Network) ForwardFrom(dt numeric.Type, golden *Execution, layerIdx int, fault *layers.Fault) *Execution {
	n.checkLayer(layerIdx)
	if _, ok := n.Layers[layerIdx].(layers.ElementForwarder); fault == nil || !ok {
		return n.ForwardFromDense(dt, golden, layerIdx, fault)
	}
	front := []layers.Fault{*fault}
	exec := n.forwardFront(dt, golden, layerIdx, front)
	fault.Applied = front[0].Applied
	return exec
}

// ForwardFront evaluates a corruption front: the faults one upset inflicts
// on MAC layer layerIdx when the struck word is read by many MACs — a
// reused buffer word, a resident or forwarded array latch. Every fault
// strikes its own output element (distinct OutputIndex values, at most one
// fault per accumulation chain); each struck element is recomputed by the
// layer's ForwardElement under its fault alone and diffed against golden,
// and the changed set delta-steps on through propagateDelta — bit-identical
// to patching the recomputed elements into the golden activation and
// running ForwardWithActDense. The empty front, and a front whose every
// element lands back on golden, is the Masked execution aliasing golden; a
// one-element front is ForwardFrom. Applied is set on every fault, and a
// fault the layer did not consume (a MACStep outside the chain) panics.
func (n *Network) ForwardFront(dt numeric.Type, golden *Execution, layerIdx int, front []layers.Fault) *Execution {
	n.checkLayer(layerIdx)
	exec := n.forwardFront(dt, golden, layerIdx, front)
	for i := range front {
		if !front[i].Applied {
			panic(fmt.Sprintf("network %s: front fault %+v was not exercised by layer %d", n.Name, front[i], layerIdx))
		}
	}
	return exec
}

// forwardFront is ForwardFront without the exercised-fault check, which
// ForwardFrom leaves to its callers.
func (n *Network) forwardFront(dt numeric.Type, golden *Execution, layerIdx int, front []layers.Fault) *Execution {
	ef, ok := n.Layers[layerIdx].(layers.ElementForwarder)
	if !ok {
		panic(fmt.Sprintf("network %s: layer %d cannot recompute single elements", n.Name, layerIdx))
	}
	in := golden.LayerInput(layerIdx)
	quant := n.quant.Load()
	ctx := &layers.Context{DType: dt, Quant: quant}
	if layerIdx > 0 {
		ctx.QIn = in.Data // a layer output is its own pre-quantized view
	}
	goldenAct := golden.Acts[layerIdx]
	act := goldenAct
	var changed []int
	for i := range front {
		f := &front[i]
		ctx.Fault = f
		v := ef.ForwardElement(ctx, in, f.OutputIndex)
		if math.Float64bits(v) == math.Float64bits(goldenAct.Data[f.OutputIndex]) {
			continue // quantization or saturation absorbed the flip inside the chain
		}
		if act == goldenAct {
			act = goldenAct.Clone()
		}
		act.Data[f.OutputIndex] = v
		changed = append(changed, f.OutputIndex)
	}
	slices.Sort(changed)
	return n.forwardWithAct(dt, golden, layerIdx, act, changed, quant)
}

// forwardWithAct builds the faulty execution whose layer layerIdx produced
// act — golden's activation except at the changed indices — and hands the
// perturbation to propagateDelta. An empty set is a masked fault: act is
// golden's own tensor bit for bit, so the execution aliases it.
func (n *Network) forwardWithAct(dt numeric.Type, golden *Execution, layerIdx int, act *tensor.Tensor, changed []int, quant *layers.QuantCache) *Execution {
	exec := &Execution{Input: golden.Input, Acts: make([]*tensor.Tensor, len(n.Layers))}
	// Layers before the fault are bit-identical to golden; share them.
	copy(exec.Acts[:layerIdx], golden.Acts[:layerIdx])
	if len(changed) == 0 {
		act = golden.Acts[layerIdx]
	}
	exec.Acts[layerIdx] = act
	// act is a layer output under dt (each layer quantizes what it writes),
	// so it is its own pre-quantized view.
	return n.propagateDelta(dt, golden, exec, layerIdx+1, act, changed, act.Data, quant)
}

// propagateDelta is the one changed-set walker every fault model ends in:
// cur is the faulty input of layer from, differing from that layer's golden
// input exactly at the changed indices, and exec already holds everything
// before from. The perturbation delta-steps through every downstream layer
// that implements DeltaForwarder (see deltaWalk); when the set empties — a
// masked fault — the remaining layers are skipped and the execution aliases
// the golden activations with Masked set, otherwise the layers past the
// walk run densely. qin is cur's pre-quantized view (cur.Data itself when
// cur is a layer output, nil when it is caller-supplied data the first
// layer must quantize for itself).
func (n *Network) propagateDelta(dt numeric.Type, golden, exec *Execution, from int, cur *tensor.Tensor, changed []int, qin []float64, quant *layers.QuantCache) *Execution {
	i := from
	if len(changed) > 0 {
		clean := &layers.Context{DType: dt, Quant: quant, DenseCutoff: n.denseCutoff}
		i, cur, changed = n.deltaWalk(clean, golden, from, cur, changed, qin, exec.Acts)
		if len(changed) > 0 {
			for ; i < len(n.Layers); i++ {
				cur = n.Layers[i].Forward(clean, cur)
				exec.Acts[i] = cur
			}
			return exec
		}
	}
	// The perturbation died (inside the faulted chain, in a ReLU clamp, a
	// lost pool max, LRN rounding, or a CONV/FC cone whose every recomputed
	// element requantized back to golden): everything from here on is
	// bit-identical to golden.
	copy(exec.Acts[i:], golden.Acts[i:])
	exec.Masked = true
	return exec
}

// deltaWalk advances a perturbation through consecutive DeltaForwarder
// layers starting at layer from, storing each faulty layer output in
// acts[i]. Each step bit-compares against the golden activation and
// re-shrinks the changed set; the walk stops when the set empties or at the
// first layer that cannot delta-step, and returns that layer's index with
// the tensor and set that reached it. ctx carries the format, the quant
// cache and the density cutoff. The walk attaches golden's shared chain
// state, so MAC layers replay diverged chain suffixes on every surface, and
// a pooled scratch for its own bookkeeping; every per-walk field of ctx is
// reset on return.
func (n *Network) deltaWalk(ctx *layers.Context, golden *Execution, from int, cur *tensor.Tensor, changed []int, qin []float64, acts []*tensor.Tensor) (int, *tensor.Tensor, []int) {
	sc := chainScratch.Get().(*layers.ChainScratch)
	ctx.Chains, ctx.Scratch = golden.goldenChains(ctx.DType, len(n.Layers)), sc
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
		cur, changed = df.ForwardDelta(ctx, cur, golden.Acts[i], changed)
		acts[i] = cur
		qin = cur.Data
	}
	ctx.Chains, ctx.Scratch, ctx.QIn, ctx.GoldenIn = nil, nil, nil, nil
	chainScratch.Put(sc)
	return i, cur, changed
}

// chainScratch pools the walkers' chain bookkeeping: a walk owns one scratch
// from its first step to its last, so concurrent walkers over one shared
// golden execution never share mutable state.
var chainScratch = sync.Pool{New: func() any { return new(layers.ChainScratch) }}

// ForwardFromDense is the dense reference implementation of ForwardFrom:
// it re-executes the whole faulted layer and every downstream layer. It
// remains available as the bit-exactness oracle for the incremental engine
// and as the baseline for throughput benchmarks.
func (n *Network) ForwardFromDense(dt numeric.Type, golden *Execution, layerIdx int, fault *layers.Fault) *Execution {
	n.checkLayer(layerIdx)
	in := golden.LayerInput(layerIdx)
	quant := n.quant.Load()
	act := n.Layers[layerIdx].Forward(&layers.Context{DType: dt, Fault: fault, Quant: quant}, in)
	return n.ForwardWithActDense(dt, golden, layerIdx, act)
}

// ForwardFromInput resumes execution at layer layerIdx but feeds it the
// given corrupted input instead of the golden one — the model for a buffer
// fault in data resident in the global buffer, which every consumer of that
// fmap during the layer re-reads (§5.2.1). changed lists the indices at
// which in differs from the layer's golden input (any order, duplicates
// allowed; a superset only costs time): the corruption delta-steps through
// the struck layer itself and on through propagateDelta, so the result is
// bit-identical to ForwardFromInputDense at the cost of the corruption's
// receptive-field cone, and Masked when it never leaves the layer. The
// corrupted input itself is not an activation of the execution and stays
// out of Acts.
func (n *Network) ForwardFromInput(dt numeric.Type, golden *Execution, layerIdx int, in *tensor.Tensor, changed []int) *Execution {
	n.checkLayer(layerIdx)
	exec := &Execution{Input: golden.Input, Acts: make([]*tensor.Tensor, len(n.Layers))}
	copy(exec.Acts[:layerIdx], golden.Acts[:layerIdx])
	// in is caller-supplied (layer 0's is raw image data), so the struck
	// layer quantizes what it reads instead of trusting a QIn view.
	return n.propagateDelta(dt, golden, exec, layerIdx, in, normalizeChanged(changed, len(in.Data)), nil, n.quant.Load())
}

// ForwardFromInputDense is the dense reference implementation of
// ForwardFromInput — every layer from layerIdx on re-executes in full. It
// survives as the bit-exactness oracle of the delta path.
func (n *Network) ForwardFromInputDense(dt numeric.Type, golden *Execution, layerIdx int, in *tensor.Tensor) *Execution {
	n.checkLayer(layerIdx)
	act := n.Layers[layerIdx].Forward(&layers.Context{DType: dt, Quant: n.quant.Load()}, in)
	return n.ForwardWithActDense(dt, golden, layerIdx, act)
}

// ForwardWithAct replaces the output of layer layerIdx with act and
// propagates the difference — the model for a fault whose effect on the
// layer's own output has already been computed (ForwardFront computes it
// for faults expressible as per-MAC latch flips). changed lists the indices
// at which act differs from the golden activation (any order, duplicates
// allowed; a superset only costs time); the result is bit-identical to
// ForwardWithActDense, and Masked — aliasing golden from layerIdx on — when
// the set is empty or dies downstream.
func (n *Network) ForwardWithAct(dt numeric.Type, golden *Execution, layerIdx int, act *tensor.Tensor, changed []int) *Execution {
	n.checkLayer(layerIdx)
	return n.forwardWithAct(dt, golden, layerIdx, act, normalizeChanged(changed, len(act.Data)), n.quant.Load())
}

// ForwardWithActDense is the dense reference implementation of
// ForwardWithAct: every layer after layerIdx re-executes in full.
func (n *Network) ForwardWithActDense(dt numeric.Type, golden *Execution, layerIdx int, act *tensor.Tensor) *Execution {
	n.checkLayer(layerIdx)
	exec := &Execution{Input: golden.Input, Acts: make([]*tensor.Tensor, len(n.Layers))}
	copy(exec.Acts[:layerIdx], golden.Acts[:layerIdx])
	exec.Acts[layerIdx] = act
	clean := &layers.Context{DType: dt, Quant: n.quant.Load()}
	cur := act
	for i := layerIdx + 1; i < len(n.Layers); i++ {
		cur = n.Layers[i].Forward(clean, cur)
		exec.Acts[i] = cur
	}
	return exec
}

// normalizeChanged returns a caller-supplied changed set sorted ascending
// and free of duplicates — the form the delta walkers hand each other —
// without touching the caller's slice.
func normalizeChanged(changed []int, elems int) []int {
	if len(changed) == 0 {
		return nil
	}
	out := slices.Clone(changed)
	slices.Sort(out)
	if out[0] < 0 || out[len(out)-1] >= elems {
		panic(fmt.Sprintf("network: changed index out of range [0,%d)", elems))
	}
	return slices.Compact(out)
}

// checkLayer panics on a layer index outside the network.
func (n *Network) checkLayer(layerIdx int) {
	if layerIdx < 0 || layerIdx >= len(n.Layers) {
		panic(fmt.Sprintf("network %s: layer index %d out of range", n.Name, layerIdx))
	}
}

// ForwardStored runs the network with every layer output quantized through
// a (typically narrower) storage format before the next layer consumes it —
// the reduced-precision storage protocol the paper cites as future work
// (§6.1, Judd et al.'s Proteus): data lives in buffers at the storage
// width and is unfolded to the compute width inside the datapath. The
// captured activations are the *stored* values, which is what buffer
// faults corrupt.
func (n *Network) ForwardStored(compute, storage numeric.Type, in *tensor.Tensor) *Execution {
	if in.Shape != n.InShape {
		panic(fmt.Sprintf("network %s: input shape %v, want %v", n.Name, in.Shape, n.InShape))
	}
	exec := &Execution{Input: in, Acts: make([]*tensor.Tensor, len(n.Layers))}
	ctx := &layers.Context{DType: compute}
	cur := in
	for i, l := range n.Layers {
		cur = l.Forward(ctx, cur)
		if l.Kind() != layers.Softmax { // softmax runs on the host, not from buffers
			cur.Apply(storage.Quantize)
		}
		exec.Acts[i] = cur
	}
	return exec
}

// ForwardStoredFromInput resumes a reduced-precision-storage execution at
// layer layerIdx with a (possibly corrupted) stored input.
func (n *Network) ForwardStoredFromInput(compute, storage numeric.Type, golden *Execution, layerIdx int, in *tensor.Tensor) *Execution {
	if layerIdx < 0 || layerIdx >= len(n.Layers) {
		panic(fmt.Sprintf("network %s: layer index %d out of range", n.Name, layerIdx))
	}
	exec := &Execution{Input: golden.Input, Acts: make([]*tensor.Tensor, len(n.Layers))}
	copy(exec.Acts[:layerIdx], golden.Acts[:layerIdx])
	ctx := &layers.Context{DType: compute}
	cur := in
	for i := layerIdx; i < len(n.Layers); i++ {
		cur = n.Layers[i].Forward(ctx, cur)
		if n.Layers[i].Kind() != layers.Softmax {
			cur.Apply(storage.Quantize)
		}
		exec.Acts[i] = cur
	}
	return exec
}

// LayerInput returns the input tensor of layer li: the network input for
// the first layer, the previous layer's output otherwise.
func (e *Execution) LayerInput(li int) *tensor.Tensor {
	if li == 0 {
		return e.Input
	}
	return e.Acts[li-1]
}

// Output returns the final activation tensor (confidences if the network
// ends in softmax, raw scores otherwise).
func (e *Execution) Output() *tensor.Tensor { return e.Acts[len(e.Acts)-1] }

// Top1 returns the index of the highest-ranked output candidate.
func (e *Execution) Top1() int { return e.Output().ArgMax() }

// BlockActs returns the activation tensor at the end of each paper-style
// block — the fmap data that would be resident in the accelerator's global
// buffer between layers, and the tensors the SED detector checks.
func (n *Network) BlockActs(e *Execution) []*tensor.Tensor {
	ends := n.blockEnds()
	acts := make([]*tensor.Tensor, len(ends))
	for i, li := range ends {
		acts[i] = e.Acts[li]
	}
	return acts
}

// Range is a closed interval of observed activation values.
type Range struct {
	Min, Max float64
}

// Contains reports whether v lies within the range.
func (r Range) Contains(v float64) bool { return v >= r.Min && v <= r.Max }

// BlockRanges profiles the per-block activation value ranges of an
// execution — the Table 4 measurement.
func (n *Network) BlockRanges(e *Execution) []Range {
	acts := n.BlockActs(e)
	rs := make([]Range, len(acts))
	for i, a := range acts {
		min, max := a.MinMax()
		rs[i] = Range{Min: min, Max: max}
	}
	return rs
}

// LayerDistances returns the Euclidean distance between the block-end
// activations of two executions — the per-layer error-spread metric of
// Fig. 7.
func (n *Network) LayerDistances(a, b *Execution) []float64 {
	aa, bb := n.BlockActs(a), n.BlockActs(b)
	ds := make([]float64, len(aa))
	for i := range aa {
		ds[i] = tensor.EuclideanDistance(aa[i], bb[i])
	}
	return ds
}
