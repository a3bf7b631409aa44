// Package layers implements the forward passes of the DNN layer types used
// by the paper's networks (Table 2): convolution (CONV), fully-connected
// (FC), max pooling (POOL), ReLU activation, local response normalization
// (LRN) and softmax. Every arithmetic result is quantized through the
// active numeric format, so the software model computes exactly what an
// accelerator datapath of that width would compute.
//
// CONV and FC layers — the layers executed on the PE array — additionally
// accept a single-fault injection descriptor that corrupts one latch of one
// MAC operation, the paper's datapath fault model.
package layers

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// Kind identifies a layer type.
type Kind int

const (
	// Conv is a 2-D convolution layer.
	Conv Kind = iota
	// FC is a fully-connected layer.
	FC
	// Pool is a max-pooling layer.
	Pool
	// ReLU is a rectified-linear activation layer.
	ReLU
	// LRN is a local response (across-channel) normalization layer.
	LRN
	// Softmax converts scores to confidence values.
	Softmax
)

// String returns the paper's name for the layer kind.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "CONV"
	case FC:
		return "FC"
	case Pool:
		return "POOL"
	case ReLU:
		return "ReLU"
	case LRN:
		return "LRN"
	case Softmax:
		return "SOFTMAX"
	}
	return fmt.Sprintf("layers.Kind(%d)", int(k))
}

// Target selects which datapath latch of the ALU (Fig. 1b) a fault
// corrupts.
type Target int

const (
	// TargetWeight corrupts the weight operand latch of one MAC.
	TargetWeight Target = iota
	// TargetInput corrupts the activation operand latch of one MAC.
	TargetInput
	// TargetProduct corrupts the multiplier output latch of one MAC.
	TargetProduct
	// TargetAccum corrupts the accumulator latch after one MAC.
	TargetAccum

	// NumTargets is the number of datapath latch targets.
	NumTargets
)

// String names the latch target.
func (t Target) String() string {
	switch t {
	case TargetWeight:
		return "weight-latch"
	case TargetInput:
		return "input-latch"
	case TargetProduct:
		return "product-latch"
	case TargetAccum:
		return "accum-latch"
	}
	return fmt.Sprintf("layers.Target(%d)", int(t))
}

// Fault describes one transient single-bit datapath fault: during the
// computation of output element OutputIndex of the faulted layer, at MAC
// step MACStep of its accumulation chain, bit Bit of the Target latch is
// inverted. The fault is transient — it corrupts exactly one read, matching
// the paper's separation of datapath faults from (reused) buffer faults.
type Fault struct {
	OutputIndex int
	MACStep     int
	Target      Target
	Bit         int

	// Width is the number of adjacent bits inverted starting at Bit.
	// Zero or one means a single-event upset; larger values model a
	// multi-bit upset spanning [Bit, Bit+Width) of the target word.
	Width int

	// Applied records whether the forward pass actually consumed the
	// fault; campaigns use it to assert every injected fault was activated.
	Applied bool
}

// Context carries the numeric format and optional fault into a forward
// pass.
type Context struct {
	DType numeric.Type
	// Fault, when non-nil, is consumed by the layer the caller passes it
	// to. The network runner routes it to the faulted layer only.
	Fault *Fault
	// Quant, when non-nil, caches quantized layer parameters across
	// forward passes (bit-identical; see QuantCache).
	Quant *QuantCache
	// QIn, when non-nil, is the pre-quantized Data slice of the input
	// tensor passed to ForwardElement, aligned index-for-index with it.
	// Element forwarders read activations from it instead of quantizing per
	// tap — bit-identical because Quantize is idempotent. A layer output is
	// its own pre-quantized view, so callers that recompute elements of a
	// layer past the first pass its golden input's Data.
	QIn []float64
	// Workers, when > 1, lets CONV/FC layers split their independent
	// output-element loops across that many goroutines. Results are
	// bit-identical to the serial pass.
	Workers int
	// Chains, when non-nil, is the golden execution's shared accumulation-
	// chain state (see GoldenChains). Combined with GoldenIn and Layer it
	// lets ForwardDelta replay only the diverged suffix of each affected
	// chain, bit-identically. Safe to share between concurrent walkers.
	Chains *GoldenChains
	// Layer is the network index of the layer ForwardDelta is stepping: the
	// key of its entry in Chains.
	Layer int
	// Scratch, when non-nil, is the walker's own delta-step bookkeeping,
	// reused from step to step (see ChainScratch); a ForwardDelta call
	// without one allocates what it needs.
	Scratch *ChainScratch
	// GoldenIn, when non-nil, is the pre-quantized golden counterpart of
	// the input tensor passed to ForwardDelta, aligned index-for-index: the
	// input differs from it exactly at the `changed` indices. Delta walkers
	// set it per layer from the golden execution; it feeds GoldenChains
	// fills.
	GoldenIn []float64
	// DenseCutoff is the changed-set density above which DeltaForwarder
	// implementations abandon the sparse receptive-field recompute and fall
	// back to the dense forward pass plus a full bit-compare (the two are
	// bit-identical; only the cost model differs). A MAC layer with a chain
	// entry in Chains never consults it: its suffix replay beats the dense
	// pass at every density. Zero selects DefaultSparseDensityCutoff, which
	// every campaign runs at; tests move it to force either path.
	DenseCutoff float64
	// Tail is what follows the stepped layer on an output-only walk, one
	// whose caller reads nothing of the faulty execution but its network
	// output: it lets a MAC layer's delta step prove lanes instead of
	// replaying them (see macStep). The zero value keeps every activation
	// exact.
	Tail Tail
	// Final is the golden network output, which a classifier Tail
	// (TailSoftmax, TailReLUMax) certifies the faulty output against.
	Final []float64
	// Certified is set by a delta step under a classifier Tail that proved
	// the faulty network output benign under every SDC criterion while
	// differing from golden: the walk may stop there, unmasked. The step
	// then leaves its output golden and returns no changed elements.
	Certified bool
}

// Tail tells a MAC layer's delta step what the rest of an output-only walk
// does with its output; the zero value asks for every lane replayed and the
// output exact.
type Tail int

const (
	// TailReLU is a ReLU next: a float lane proved to stay below zero
	// feeds the ReLU a 0 either way, so it may stay golden.
	TailReLU Tail = iota + 1
	// TailSoftmax is the network's last MAC layer, one output per class,
	// followed by nothing but a softmax.
	TailSoftmax
	// TailReLUMax is the network's last MAC layer followed by nothing but
	// a ReLU and a full-extent max-pool, one output per channel.
	TailReLUMax
)

// DefaultSparseDensityCutoff is the density at which sparse recompute
// stops paying: once a perturbation cone covers this fraction of a layer's
// output plane, recomputing the cone element-by-element costs about as many
// MACs as the dense pass, and the dense pass amortizes quantization and
// loop overhead better. Picked by the BENCH_3.json sweeps on ConvNet/AlexNet
// (the crossover is flat between ~0.4 and ~0.8 on every format).
const DefaultSparseDensityCutoff = 0.5

// denseCutoff resolves the effective density threshold of this context.
func (ctx *Context) denseCutoff() float64 {
	if ctx.DenseCutoff > 0 {
		return ctx.DenseCutoff
	}
	return DefaultSparseDensityCutoff
}

// denseDelta is the density-adaptive fallback shared by every
// DeltaForwarder: it runs the layer's dense forward pass on the faulty
// input into out and re-derives the changed set by bit-comparing against
// the golden output. The result is bit-identical to the sparse recompute —
// both reproduce Forward exactly — so implementations switch between the two
// freely on cost alone. The pass rewrites all of out, but every element
// it does not list came out bit-equal to golden, so out still differs from
// goldenOut exactly at the returned indices.
func denseDelta(ctx *Context, l Layer, in, goldenOut, out *tensor.Tensor, dst []int) []int {
	l.ForwardInto(ctx, in, out)
	for i, v := range out.Data {
		if !bitsEqual(v, goldenOut.Data[i]) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Layer is one computation stage of a network.
type Layer interface {
	// Name returns the instance name (e.g. "conv1").
	Name() string
	// Kind returns the layer type.
	Kind() Kind
	// OutShape returns the output shape for an input shape.
	OutShape(in tensor.Shape) tensor.Shape
	// Forward computes the layer output. A non-nil ctx.Fault is injected
	// into the matching MAC of CONV/FC layers and ignored by other kinds.
	Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor
	// ForwardInto is Forward writing every element of the output into out,
	// a tensor of OutShape(in.Shape) that must not alias in.
	ForwardInto(ctx *Context, in, out *tensor.Tensor)
	// MACs returns the number of multiply-accumulate operations the layer
	// performs for an input shape (0 for non-MAC layers). It defines the
	// datapath fault-site space.
	MACs(in tensor.Shape) int64
}

// ElementForwarder is implemented by MAC layers (CONV, FC) that can
// recompute one output element in isolation — the accumulation chain of a
// single PE. Under the single-transient-fault model a datapath fault
// perturbs exactly one output element, so the faulty layer output is the
// golden output with that one element replaced; recomputing it costs
// MACChainLen() MACs instead of Elems(out)*MACChainLen().
type ElementForwarder interface {
	Layer
	// ForwardElement returns output element outputIndex for the given
	// input, bit-identical to Forward's value at that index, consuming
	// ctx.Fault when it targets outputIndex.
	ForwardElement(ctx *Context, in *tensor.Tensor, outputIndex int) float64
}

// DeltaForwarder is implemented by layers that can advance a sparse input
// perturbation without re-executing the dense layer: the element-local
// post-ops (ReLU, POOL, LRN across its normalization window) and the MAC
// layers (CONV via its receptive-field cone, FC via a full recompute that
// still re-shrinks the changed set). Implementations bound the recompute by
// the receptive field of the changed set and fall back to the dense pass —
// bit-identically — once the set's density crosses Context.DenseCutoff.
type DeltaForwarder interface {
	Layer
	// ForwardDelta advances a faulty input through the layer given the
	// golden output. in differs from the golden input exactly at the
	// `changed` indices; goldenOut is this layer's output for the golden
	// input, and out is the caller's buffer for the faulty output, holding
	// goldenOut's values bit for bit on entry and aliasing neither. The step
	// writes the faulty output into out and appends to dst the output
	// indices at which it differs bit-wise from goldenOut; on return out
	// differs from goldenOut exactly there, so restoring those elements
	// returns it to golden.
	ForwardDelta(ctx *Context, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int
}

// applyFault perturbs one MAC step according to f and returns the possibly
// corrupted (weight, input, product-modifier, accumulator-modifier)
// behaviour. It is shared by CONV and FC inner loops.
//
// The contract: call with the clean operands; it returns the operands to
// multiply and two functions-worth of behaviour flags folded into values.
// To keep the hot loop branch-free in the common case, callers only invoke
// it when the fault targets the current (outputIndex, macStep).
func applyOperandFault(ctx *Context, f *Fault, w, x float64) (fw, fx float64) {
	fw, fx = w, x
	switch f.Target {
	case TargetWeight:
		fw = ctx.DType.FlipBits(w, f.Bit, f.Width)
	case TargetInput:
		fx = ctx.DType.FlipBits(x, f.Bit, f.Width)
	}
	return fw, fx
}
