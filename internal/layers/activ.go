package layers

import (
	"math"

	"repro/internal/tensor"
)

// ReLULayer resets negative activations to zero. Together with max pooling
// it is responsible for most of the error masking the paper measures
// (84.36% of faults masked on average, §5.1.4).
type ReLULayer struct {
	LayerName string
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLULayer { return &ReLULayer{LayerName: name} }

// Name implements Layer.
func (l *ReLULayer) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *ReLULayer) Kind() Kind { return ReLU }

// OutShape implements Layer.
func (l *ReLULayer) OutShape(in tensor.Shape) tensor.Shape { return in }

// MACs implements Layer.
func (l *ReLULayer) MACs(in tensor.Shape) int64 { return 0 }

// Forward implements Layer.
func (l *ReLULayer) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape)
	l.ForwardInto(ctx, in, out)
	return out
}

// ForwardInto implements Layer.
func (l *ReLULayer) ForwardInto(ctx *Context, in, out *tensor.Tensor) {
	quant := ctx.DType.QuantFunc()
	for i, v := range in.Data {
		// Negative and NaN inputs clamp to zero: comparisons with NaN are
		// false, so a NaN activation does not survive ReLU, as it must not
		// in hardware either.
		var nv float64
		if v > 0 {
			nv = quant(v)
		}
		out.Data[i] = nv
	}
}

// ForwardDelta implements DeltaForwarder. ReLU is element-wise, so only
// the changed indices need recomputing; a fault that drove an already-
// negative activation further negative is masked here (§5.1.4).
func (l *ReLULayer) ForwardDelta(ctx *Context, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int {
	quant := ctx.DType.QuantFunc()
	for _, i := range changed {
		v := in.Data[i]
		var nv float64
		if v > 0 {
			nv = quant(v)
		}
		// NaN compares false with 0, so nv stays 0 — matching Forward's
		// NaN clamp.
		if !bitsEqual(nv, goldenOut.Data[i]) {
			out.Data[i] = nv
			dst = append(dst, i)
		}
	}
	return dst
}

// bitsEqual reports whether two values have identical float64 bit
// patterns — the simulator's definition of "unchanged", which unlike ==
// distinguishes ±0 and never equates differing NaNs.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// PoolLayer is max pooling with a square window. POOL forwards only the
// local maximum and discards the rest, masking negative-going errors and
// propagating positive-going ones.
type PoolLayer struct {
	LayerName string
	K, Stride int
}

// NewPool constructs a max-pooling layer.
func NewPool(name string, k, stride int) *PoolLayer {
	return &PoolLayer{LayerName: name, K: k, Stride: stride}
}

// Name implements Layer.
func (l *PoolLayer) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *PoolLayer) Kind() Kind { return Pool }

// OutShape implements Layer.
func (l *PoolLayer) OutShape(in tensor.Shape) tensor.Shape {
	oh := (in.H-l.K)/l.Stride + 1
	ow := (in.W-l.K)/l.Stride + 1
	if oh < 1 {
		oh = 1
	}
	if ow < 1 {
		ow = 1
	}
	return tensor.Shape{C: in.C, H: oh, W: ow}
}

// MACs implements Layer.
func (l *PoolLayer) MACs(in tensor.Shape) int64 { return 0 }

// Forward implements Layer.
func (l *PoolLayer) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(l.OutShape(in.Shape))
	l.ForwardInto(ctx, in, out)
	return out
}

// ForwardInto implements Layer.
func (l *PoolLayer) ForwardInto(ctx *Context, in, out *tensor.Tensor) {
	os := l.OutShape(in.Shape)
	for c := 0; c < os.C; c++ {
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				out.Set(c, oh, ow, l.windowMax(ctx, in, c, oh, ow))
			}
		}
	}
}

// windowMax computes one pooled output element.
func (l *PoolLayer) windowMax(ctx *Context, in *tensor.Tensor, c, oh, ow int) float64 {
	best := math.Inf(-1)
	for kh := 0; kh < l.K; kh++ {
		ih := oh*l.Stride + kh
		if ih >= in.Shape.H {
			break
		}
		for kw := 0; kw < l.K; kw++ {
			iw := ow*l.Stride + kw
			if iw >= in.Shape.W {
				break
			}
			if v := in.At(c, ih, iw); v > best {
				best = v
			}
		}
	}
	return ctx.DType.Quantize(best)
}

// ForwardDelta implements DeltaForwarder. A changed input element touches
// only the pooling windows covering it; recomputing those windows masks
// any fault whose element does not win its window max (§5.1.4). Once the
// changed set's density crosses Context.DenseCutoff the per-window
// bookkeeping costs more than the dense pass, which takes over
// bit-identically.
func (l *PoolLayer) ForwardDelta(ctx *Context, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int {
	if float64(len(changed)) > ctx.denseCutoff()*float64(in.Shape.Elems()) {
		return denseDelta(ctx, l, in, goldenOut, out, dst)
	}
	os := l.OutShape(in.Shape)
	sc := ctx.scratch()
	// Windows already recomputed this step are marked in sc.covered and
	// listed in sc.spatial, which unmarks them on the way out.
	sc.covered = marks(sc.covered, len(goldenOut.Data))
	recomputed := sc.spatial[:0]
	for _, idx := range changed {
		c, ih, iw := in.Coords(idx)
		ohMin, ohMax := windowRange(ih, l.K, l.Stride, os.H)
		owMin, owMax := windowRange(iw, l.K, l.Stride, os.W)
		for oh := ohMin; oh <= ohMax; oh++ {
			for ow := owMin; ow <= owMax; ow++ {
				oi := (c*os.H+oh)*os.W + ow
				if sc.covered[oi] {
					continue
				}
				sc.covered[oi] = true
				recomputed = append(recomputed, oi)
				nv := l.windowMax(ctx, in, c, oh, ow)
				if !bitsEqual(nv, goldenOut.Data[oi]) {
					out.Data[oi] = nv
					dst = append(dst, oi)
				}
			}
		}
	}
	for _, oi := range recomputed {
		sc.covered[oi] = false
	}
	sc.spatial = recomputed
	return dst
}

// windowRange returns the closed range of output positions whose size-k
// stride-s windows cover input position i, clamped to [0, outDim).
func windowRange(i, k, s, outDim int) (lo, hi int) {
	lo = (i - k + s) / s // ceil((i-k+1)/s) for the non-negative case
	if i-k+1 <= 0 {
		lo = 0
	}
	hi = i / s
	if hi > outDim-1 {
		hi = outDim - 1
	}
	return lo, hi
}
