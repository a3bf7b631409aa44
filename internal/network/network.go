// Package network assembles layers into the feed-forward DNNs the paper
// studies and executes them under a chosen numeric format. It supports the
// fault-injection campaign's two performance-critical operations: capturing
// every intermediate activation tensor of a golden run, and resuming a
// faulty run from the faulted layer using the cached golden input — exact
// under the single-fault model and far cheaper than a full re-execution.
package network

import (
	"fmt"
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
//
// It runs SlotScratch.ForwardFrom on a fresh scratch, so the execution is
// the caller's; a campaign evaluating many faults reuses one scratch.
func (n *Network) ForwardFrom(dt numeric.Type, golden *Execution, layerIdx int, fault *layers.Fault) *Execution {
	return n.NewSlotScratch(dt).ForwardFrom(golden, layerIdx, fault)
}

// ForwardFront evaluates a corruption front: the faults one upset inflicts
// on MAC layer layerIdx when the struck word is read by many MACs — a
// reused buffer word, a resident or forwarded array latch. Every fault
// strikes its own output element (distinct OutputIndex values, at most one
// fault per accumulation chain); each struck element is recomputed by the
// layer's ForwardElement under its fault alone and diffed against golden,
// and the changed set delta-steps on like ForwardFrom's — bit-identical to
// patching the recomputed elements into the golden activation and running
// ForwardWithActDense. The empty front, and a front whose every element
// lands back on golden, is the Masked execution aliasing golden; a
// one-element front is ForwardFrom. Applied is set on every fault, and a
// fault the layer did not consume (a MACStep outside the chain) panics.
// Like ForwardFrom it runs on a fresh SlotScratch.
func (n *Network) ForwardFront(dt numeric.Type, golden *Execution, layerIdx int, front []layers.Fault) *Execution {
	return n.NewSlotScratch(dt).ForwardFront(golden, layerIdx, front)
}

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
// the struck layer itself and on like ForwardFrom's, so the result is
// bit-identical to ForwardFromInputDense at the cost of the corruption's
// receptive-field cone, and Masked when it never leaves the layer. The
// corrupted input itself is not an activation of the execution and stays
// out of Acts. Like ForwardFrom it runs on a fresh SlotScratch.
func (n *Network) ForwardFromInput(dt numeric.Type, golden *Execution, layerIdx int, in *tensor.Tensor, changed []int) *Execution {
	return n.NewSlotScratch(dt).ForwardFromInput(golden, layerIdx, in, changed)
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
// layer's own output has already been computed. changed lists the indices
// at which act differs from the golden activation (any order, duplicates
// allowed; a superset only costs time); the result is bit-identical to
// ForwardWithActDense, and Masked — aliasing golden from layerIdx on — when
// the set is empty or dies downstream. act becomes the execution's
// activation of layerIdx.
func (n *Network) ForwardWithAct(dt numeric.Type, golden *Execution, layerIdx int, act *tensor.Tensor, changed []int) *Execution {
	n.checkLayer(layerIdx)
	sc := n.NewSlotScratch(dt)
	b := sc.begin(golden, layerIdx)
	changed = appendNormalized(nil, changed, len(act.Data))
	if len(changed) == 0 {
		return sc.masked(golden, layerIdx)
	}
	sc.exec.Acts[layerIdx] = act
	return sc.propagate(b, layerIdx+1, act, changed, act.Data)
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
