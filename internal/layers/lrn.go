package layers

import (
	"math"

	"repro/internal/tensor"
)

// LRNLayer implements AlexNet-style across-channel Local Response
// Normalization:
//
//	b[c] = a[c] / (K + Alpha/N * Σ_{c'∈window} a[c']²)^Beta
//
// Because every output averages a window of neighbouring channels, LRN
// pulls an errant activation back toward its fault-free neighbours — the
// masking effect behind the low layer-1/2 SDC probability of AlexNet and
// CaffeNet (§5.1.4, Fig. 7).
type LRNLayer struct {
	LayerName string
	N         int     // channel window size
	Alpha     float64 // scale
	Beta      float64 // exponent
	K         float64 // bias
}

// NewLRN constructs an LRN layer with the AlexNet defaults
// (n=5, alpha=1e-4, beta=0.75, k=2) unless overridden by the caller.
func NewLRN(name string) *LRNLayer {
	return &LRNLayer{LayerName: name, N: 5, Alpha: 1e-4, Beta: 0.75, K: 2}
}

// Name implements Layer.
func (l *LRNLayer) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *LRNLayer) Kind() Kind { return LRN }

// OutShape implements Layer.
func (l *LRNLayer) OutShape(in tensor.Shape) tensor.Shape { return in }

// MACs implements Layer.
func (l *LRNLayer) MACs(in tensor.Shape) int64 { return 0 }

// Forward implements Layer.
func (l *LRNLayer) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape)
	l.ForwardInto(ctx, in, out)
	return out
}

// ForwardInto implements Layer.
func (l *LRNLayer) ForwardInto(ctx *Context, in, out *tensor.Tensor) {
	for c := 0; c < in.Shape.C; c++ {
		for h := 0; h < in.Shape.H; h++ {
			for w := 0; w < in.Shape.W; w++ {
				out.Set(c, h, w, l.normalize(ctx, in, c, h, w))
			}
		}
	}
}

// normalize computes one LRN output element.
func (l *LRNLayer) normalize(ctx *Context, in *tensor.Tensor, c, h, w int) float64 {
	half := l.N / 2
	lo, hi := c-half, c+half
	if lo < 0 {
		lo = 0
	}
	if hi >= in.Shape.C {
		hi = in.Shape.C - 1
	}
	var ss float64
	for cc := lo; cc <= hi; cc++ {
		v := in.At(cc, h, w)
		ss += float64(v * v)
	}
	denom := math.Pow(l.K+float64(l.Alpha/float64(l.N)*ss), l.Beta)
	v := in.At(c, h, w) / denom
	if math.IsNaN(v) {
		v = 0
	}
	return ctx.DType.Quantize(v)
}

// ForwardDelta implements DeltaForwarder. A changed input element at
// channel c feeds the normalization windows of channels c±N/2 at the same
// spatial position only, so at most N output elements need recomputing.
// Past the Context.DenseCutoff density the dense pass takes over
// bit-identically.
func (l *LRNLayer) ForwardDelta(ctx *Context, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int {
	if float64(len(changed)) > ctx.denseCutoff()*float64(in.Shape.Elems()) {
		return denseDelta(ctx, l, in, goldenOut, out, dst)
	}
	half := l.N / 2
	sc := ctx.scratch()
	// Outputs already recomputed this step: marked as in PoolLayer.ForwardDelta.
	sc.covered = marks(sc.covered, len(goldenOut.Data))
	recomputed := sc.spatial[:0]
	for _, idx := range changed {
		c, h, w := in.Coords(idx)
		lo, hi := c-half, c+half
		if lo < 0 {
			lo = 0
		}
		if hi >= in.Shape.C {
			hi = in.Shape.C - 1
		}
		for cc := lo; cc <= hi; cc++ {
			oi := in.Index(cc, h, w)
			if sc.covered[oi] {
				continue
			}
			sc.covered[oi] = true
			recomputed = append(recomputed, oi)
			nv := l.normalize(ctx, in, cc, h, w)
			if !bitsEqual(nv, goldenOut.Data[oi]) {
				out.Data[oi] = nv
				dst = append(dst, oi)
			}
		}
	}
	for _, oi := range recomputed {
		sc.covered[oi] = false
	}
	sc.spatial = recomputed
	return dst
}

// SoftmaxLayer converts raw scores into confidence values that sum to one.
// It appears at the end of AlexNet, CaffeNet and ConvNet; NiN omits it, so
// NiN outputs rankings without confidence scores (§4.1).
type SoftmaxLayer struct {
	LayerName string
}

// NewSoftmax constructs a softmax layer.
func NewSoftmax(name string) *SoftmaxLayer { return &SoftmaxLayer{LayerName: name} }

// Name implements Layer.
func (l *SoftmaxLayer) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *SoftmaxLayer) Kind() Kind { return Softmax }

// OutShape implements Layer.
func (l *SoftmaxLayer) OutShape(in tensor.Shape) tensor.Shape { return in }

// MACs implements Layer.
func (l *SoftmaxLayer) MACs(in tensor.Shape) int64 { return 0 }

// Forward implements Layer.
func (l *SoftmaxLayer) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape)
	l.ForwardInto(ctx, in, out)
	return out
}

// ForwardInto implements Layer. The standard max-shifted formulation keeps
// the exponentials finite even when a fault has driven a score to an
// extreme value; out holds the exponentials until the sum is known.
func (l *SoftmaxLayer) ForwardInto(ctx *Context, in, out *tensor.Tensor) {
	max := math.Inf(-1)
	for _, v := range in.Data {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) || math.IsNaN(max) {
		// Degenerate input (all NaN): uniform distribution.
		u := 1 / float64(len(in.Data))
		for i := range out.Data {
			out.Data[i] = u
		}
		return
	}
	var sum float64
	for i, v := range in.Data {
		if math.IsNaN(v) {
			out.Data[i] = 0
			continue
		}
		out.Data[i] = math.Exp(v - max)
		sum += out.Data[i]
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
}
