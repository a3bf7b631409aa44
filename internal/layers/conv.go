package layers

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// ConvLayer is a 2-D convolution over CHW feature maps. Weights use the
// layout [outC][inC][kh][kw]; each output element is produced by an
// accumulation chain of inC*KH*KW MAC steps plus a bias, mirroring the
// PE-array mapping of the canonical accelerator.
type ConvLayer struct {
	LayerName   string
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	Weights     []float64 // len OutC*InC*KH*KW
	Bias        []float64 // len OutC
}

// NewConv constructs a convolution layer with zeroed weights.
func NewConv(name string, inC, outC, k, stride, pad int) *ConvLayer {
	return &ConvLayer{
		LayerName: name,
		InC:       inC, OutC: outC,
		KH: k, KW: k,
		Stride: stride, Pad: pad,
		Weights: make([]float64, outC*inC*k*k),
		Bias:    make([]float64, outC),
	}
}

// Name implements Layer.
func (l *ConvLayer) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *ConvLayer) Kind() Kind { return Conv }

// WeightIndex returns the flat offset of weight (oc, ic, kh, kw).
func (l *ConvLayer) WeightIndex(oc, ic, kh, kw int) int {
	return ((oc*l.InC+ic)*l.KH+kh)*l.KW + kw
}

// OutShape implements Layer.
func (l *ConvLayer) OutShape(in tensor.Shape) tensor.Shape {
	if in.C != l.InC {
		panic(fmt.Sprintf("conv %s: input channels %d, want %d", l.LayerName, in.C, l.InC))
	}
	oh := (in.H+2*l.Pad-l.KH)/l.Stride + 1
	ow := (in.W+2*l.Pad-l.KW)/l.Stride + 1
	return tensor.Shape{C: l.OutC, H: oh, W: ow}
}

// MACs implements Layer: one MAC per (output element, kernel tap).
func (l *ConvLayer) MACs(in tensor.Shape) int64 {
	os := l.OutShape(in)
	return int64(os.Elems()) * int64(l.InC*l.KH*l.KW)
}

// MACChainLen returns the accumulation-chain length per output element.
func (l *ConvLayer) MACChainLen() int { return l.InC * l.KH * l.KW }

// Forward implements Layer. All arithmetic flows through ctx.DType. When
// ctx.Fault is non-nil, the single MAC identified by (OutputIndex, MACStep)
// is perturbed at the requested latch.
func (l *ConvLayer) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(l.OutShape(in.Shape))
	l.ForwardInto(ctx, in, out)
	return out
}

// ForwardInto implements Layer.
func (l *ConvLayer) ForwardInto(ctx *Context, in, out *tensor.Tensor) {
	os := l.OutShape(in.Shape)
	dt := ctx.DType
	f := ctx.Fault

	// Pre-quantize the reused operands once (through the campaign cache
	// when one is attached); Quantize is idempotent, so the result is
	// bit-identical to quantizing inside every MAC. A caller-supplied QIn
	// (aligned with in, per the Context contract) short-circuits the input
	// quantization entirely.
	qw, qb := ctx.quantizedParams(l, l.Weights, l.Bias)
	qin := ctx.QIn
	if qin == nil {
		qin = quantizeSlice(dt, in.Data)
	}

	inH, inW := in.Shape.H, in.Shape.W
	plane := os.H * os.W
	chain := l.InC * l.KH * l.KW
	mac := dt.MACFunc()
	// run computes output channels [oc0, oc1); every output element is
	// independent, so channel ranges can execute concurrently.
	run := func(oc0, oc1 int) {
		oi := oc0 * plane
		for oc := oc0; oc < oc1; oc++ {
			bias := qb[oc]
			wBase := oc * chain
			for oh := 0; oh < os.H; oh++ {
				for ow := 0; ow < os.W; ow++ {
					faultHere := f != nil && f.OutputIndex == oi
					acc := bias
					step := 0
					for ic := 0; ic < l.InC; ic++ {
						inBase := ic * inH * inW
						for kh := 0; kh < l.KH; kh++ {
							ih := oh*l.Stride + kh - l.Pad
							rowOK := ih >= 0 && ih < inH
							rowBase := inBase + ih*inW
							for kw := 0; kw < l.KW; kw++ {
								iw := ow*l.Stride + kw - l.Pad
								var x float64
								if rowOK && iw >= 0 && iw < inW {
									x = qin[rowBase+iw]
								}
								w := qw[wBase+step]
								if faultHere && f.MACStep == step {
									acc = macFaulty(ctx, f, acc, w, x)
								} else {
									acc = mac(acc, w, x)
								}
								step++
							}
						}
					}
					out.Data[oi] = acc
					oi++
				}
			}
		}
	}
	parallelRanges(ctx.Workers, l.OutC, run)
}

// parallelRanges splits [0, n) into up to `workers` contiguous ranges and
// runs them concurrently; with fewer than two workers it runs inline.
func parallelRanges(workers, n int, run func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers < 2 {
		run(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForwardElement implements ElementForwarder: it recomputes the single
// accumulation chain of output element outputIndex, bit-identical to the
// corresponding element of Forward's output for every numeric format and
// fault target.
func (l *ConvLayer) ForwardElement(ctx *Context, in *tensor.Tensor, outputIndex int) float64 {
	os := l.OutShape(in.Shape)
	plane := os.H * os.W
	if outputIndex < 0 || outputIndex >= l.OutC*plane {
		panic(fmt.Sprintf("conv %s: output index %d out of range [0,%d)", l.LayerName, outputIndex, l.OutC*plane))
	}
	dt := ctx.DType
	f := ctx.Fault
	oc := outputIndex / plane
	oh := (outputIndex % plane) / os.W
	ow := outputIndex % os.W

	// With a cache attached the whole-layer parameters are already
	// quantized; without one, quantize just the taps of this chain.
	var qw []float64
	acc := dt.Quantize(l.Bias[oc])
	if ctx.Quant != nil {
		var qb []float64
		qw, qb = ctx.Quant.params(dt, l, l.Weights, l.Bias)
		acc = qb[oc]
	}

	inH, inW := in.Shape.H, in.Shape.W
	wBase := oc * l.InC * l.KH * l.KW
	quant, mac := dt.QuantFunc(), dt.MACFunc()
	// A front faults every element it recomputes, so the per-tap test is
	// one integer compare whether or not this chain carries the fault.
	faultStep := -1
	if f != nil && f.OutputIndex == outputIndex {
		faultStep = f.MACStep
	}
	step := 0
	for ic := 0; ic < l.InC; ic++ {
		inBase := ic * inH * inW
		for kh := 0; kh < l.KH; kh++ {
			ih := oh*l.Stride + kh - l.Pad
			rowOK := ih >= 0 && ih < inH
			rowBase := inBase + ih*inW
			for kw := 0; kw < l.KW; kw++ {
				iw := ow*l.Stride + kw - l.Pad
				var x float64
				if rowOK && iw >= 0 && iw < inW {
					if ctx.QIn != nil {
						x = ctx.QIn[rowBase+iw]
					} else {
						x = quant(in.Data[rowBase+iw])
					}
				}
				var w float64
				if qw != nil {
					w = qw[wBase+step]
				} else {
					w = quant(l.Weights[wBase+step])
				}
				if step == faultStep {
					acc = macFaulty(ctx, f, acc, w, x)
				} else {
					acc = mac(acc, w, x)
				}
				step++
			}
		}
	}
	return acc
}

// ForwardDelta implements DeltaForwarder: it recomputes only the output
// elements whose receptive field intersects a changed input. A changed
// input at (ic, ih, iw) feeds the accumulation chains of every output
// channel at the spatial positions whose kernel window covers (ih, iw), so
// the affected set is OutC × (union of covering windows); each affected
// chain is bit-compared against goldenOut to re-shrink — possibly re-empty —
// the changed set. With a golden chain entry (see GoldenChains) an affected
// chain replays only its diverged suffix, which beats the dense pass at any
// density because the golden partials are filled once per golden execution,
// not per walk. Without one (layer 0's raw input, no quant cache, a layer
// over the chain byte cap) each affected chain is recomputed in full, and
// once the affected spatial fraction crosses Context.DenseCutoff the dense
// pass is cheaper and the layer falls back to it, bit-identically.
func (l *ConvLayer) ForwardDelta(ctx *Context, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int {
	os := l.OutShape(in.Shape)
	plane := os.H * os.W
	sc := ctx.scratch()

	// Union of the spatial output positions covered by any changed input.
	sc.covered = marks(sc.covered, plane)
	spatial := sc.spatial[:0]
	for _, idx := range changed {
		_, ih, iw := in.Coords(idx)
		ohLo, ohHi := convWindowRange(ih, l.KH, l.Stride, l.Pad, os.H)
		owLo, owHi := convWindowRange(iw, l.KW, l.Stride, l.Pad, os.W)
		for oh := ohLo; oh <= ohHi; oh++ {
			for ow := owLo; ow <= owHi; ow++ {
				si := oh*os.W + ow
				if !sc.covered[si] {
					sc.covered[si] = true
					spatial = append(spatial, si)
				}
			}
		}
	}
	for _, si := range spatial {
		sc.covered[si] = false
	}
	sc.spatial = spatial

	chain := l.InC * l.KH * l.KW
	lc := ctx.chainEntry(l.OutC*plane, chain)
	if lc == nil && float64(len(spatial)) > ctx.denseCutoff()*float64(plane) {
		return denseDelta(ctx, l, in, goldenOut, out, dst)
	}
	sort.Ints(spatial) // ascending output order, matching the dense loop

	if lc != nil {
		// The changed-tap steps and faulty input values of a spatial
		// position are identical for every output channel (only the weights
		// differ): collect them once per position and replay its OutC chains
		// as the lanes of one call, position-major into sc.vals.
		l.scanChanged(ctx, sc, in, os, spatial, changed)
		qw, _ := ctx.Quant.params(ctx.DType, l, l.Weights, l.Bias)
		sc.vals = grow(sc.vals, len(spatial)*l.OutC)
		for k, si := range spatial {
			for oi := si; oi < l.OutC*plane; oi += plane {
				if lc.filled[oi].Load() == 0 {
					lc.fill(ctx, oi, goldenOut.Data[oi], func(prefix, prods []float64) float64 {
						return l.fillChain(ctx, in.Shape, os, oi, prefix, prods)
					})
				}
			}
			lo, hi := sc.offs[k], sc.offs[k+1]
			ctx.DType.ChainReplay(sc.vals[k*l.OutC:(k+1)*l.OutC], lc.prefix[si*(chain+1):], lc.prods[si*chain:],
				qw, lc.bounds[2*si:], plane, sc.steps[lo:hi], sc.xs[lo:hi], chain)
		}
	}
	for oc := 0; oc < l.OutC; oc++ {
		base := oc * plane
		for k, si := range spatial {
			oi := base + si
			var nv float64
			if lc != nil {
				nv = sc.vals[k*l.OutC+oc]
			} else {
				nv = l.ForwardElement(ctx, in, oi)
			}
			if !bitsEqual(nv, goldenOut.Data[oi]) {
				out.Data[oi] = nv
				dst = append(dst, oi)
			}
		}
	}
	return dst
}

// scanChanged records, per spatial output position (ascending, all of them
// covered by changed), the chain steps that read a changed input and the
// lane's quantized value at each, into sc.steps/sc.xs with sc.offs
// delimiting the positions. It walks the changed inputs, not the windows
// of the positions: one pass counts each position's changed taps, a second
// writes them. Within one window the step order is the input index order,
// so walking the changed inputs ascending writes every position's steps
// ascending. changed itself is left as it is; an unsorted set is walked
// through a sorted copy.
func (l *ConvLayer) scanChanged(ctx *Context, sc *ChainScratch, in *tensor.Tensor, os tensor.Shape, spatial, changed []int) {
	if !sort.IntsAreSorted(changed) {
		sc.sorted = append(sc.sorted[:0], changed...)
		sort.Ints(sc.sorted)
		changed = sc.sorted
	}
	pos := grow(sc.pos, os.H*os.W)
	for k, si := range spatial {
		pos[si] = k
	}
	// step returns the chain step at which output position (oh, ow) reads
	// input (ic, ih, iw), inside its window by convWindowRange.
	step := func(ic, ih, iw, oh, ow int) int {
		return (ic*l.KH+ih-oh*l.Stride+l.Pad)*l.KW + iw - ow*l.Stride + l.Pad
	}

	offs := grow(sc.offs, len(spatial)+1)
	clear(offs)
	for _, idx := range changed {
		_, ih, iw := in.Coords(idx)
		ohLo, ohHi := convWindowRange(ih, l.KH, l.Stride, l.Pad, os.H)
		owLo, owHi := convWindowRange(iw, l.KW, l.Stride, l.Pad, os.W)
		for oh := ohLo; oh <= ohHi; oh++ {
			for ow := owLo; ow <= owHi; ow++ {
				offs[pos[oh*os.W+ow]+1]++
			}
		}
	}
	for k := 1; k < len(offs); k++ {
		offs[k] += offs[k-1] // offs[k] is now position k's first slot
	}

	n := offs[len(spatial)]
	steps, xs := grow(sc.steps, n), grow(sc.xs, n)
	quant := ctx.DType.QuantFunc()
	for _, idx := range changed {
		var x float64
		if ctx.QIn != nil {
			x = ctx.QIn[idx]
		} else {
			x = quant(in.Data[idx])
		}
		ic, ih, iw := in.Coords(idx)
		ohLo, ohHi := convWindowRange(ih, l.KH, l.Stride, l.Pad, os.H)
		owLo, owHi := convWindowRange(iw, l.KW, l.Stride, l.Pad, os.W)
		for oh := ohLo; oh <= ohHi; oh++ {
			for ow := owLo; ow <= owHi; ow++ {
				k := pos[oh*os.W+ow]
				steps[offs[k]], xs[offs[k]] = step(ic, ih, iw, oh, ow), x
				offs[k]++
			}
		}
	}
	// Each offs[k] has advanced to position k+1's first slot: shift back.
	copy(offs[1:], offs[:len(spatial)])
	offs[0] = 0
	sc.pos, sc.steps, sc.xs, sc.offs = pos, steps, xs, offs
}

// fillChain computes the golden chain internals of output element oi from
// the context's golden input into the element's prefix and prods rows — the
// same decomposed operations Forward performs, so the returned final
// accumulator is bit-identical to the golden output element.
func (l *ConvLayer) fillChain(ctx *Context, is, os tensor.Shape, oi int, prefix, prods []float64) float64 {
	plane := os.H * os.W
	oc := oi / plane
	oh := (oi % plane) / os.W
	ow := oi % os.W
	qw, qb := ctx.Quant.params(ctx.DType, l, l.Weights, l.Bias)
	quant, accf := ctx.DType.QuantFunc(), ctx.DType.AccFunc()
	gin := ctx.GoldenIn
	inH, inW := is.H, is.W
	wBase := oc * len(prods)

	acc := qb[oc]
	prefix[0] = acc
	step := 0
	for ic := 0; ic < l.InC; ic++ {
		inBase := ic * inH * inW
		for kh := 0; kh < l.KH; kh++ {
			ih := oh*l.Stride + kh - l.Pad
			rowOK := ih >= 0 && ih < inH
			rowBase := inBase + ih*inW
			for kw := 0; kw < l.KW; kw++ {
				iw := ow*l.Stride + kw - l.Pad
				var x float64
				if rowOK && iw >= 0 && iw < inW {
					x = gin[rowBase+iw]
				}
				p := quant(qw[wBase+step] * x)
				prods[step] = p
				acc = accf(acc, p)
				prefix[step+1] = acc
				step++
			}
		}
	}
	return acc
}

// convWindowRange returns the closed range of output positions oh such
// that the size-k, stride-s, pad-p kernel window at oh covers input
// position i (oh*s - p <= i < oh*s - p + k), clamped to [0, outDim).
func convWindowRange(i, k, s, p, outDim int) (lo, hi int) {
	num := i + p - k + 1
	if num <= 0 {
		lo = 0
	} else {
		lo = (num + s - 1) / s
	}
	hi = (i + p) / s
	if hi > outDim-1 {
		hi = outDim - 1
	}
	return lo, hi
}

// macFaulty performs one MAC with the fault applied at the requested latch
// and marks the fault consumed.
func macFaulty(ctx *Context, f *Fault, acc, w, x float64) float64 {
	dt := ctx.DType
	f.Applied = true
	switch f.Target {
	case TargetWeight, TargetInput:
		fw, fx := applyOperandFault(ctx, f, dt.Quantize(w), dt.Quantize(x))
		return dt.Add(acc, dt.Mul(fw, fx))
	case TargetProduct:
		p := dt.FlipBits(dt.Mul(w, x), f.Bit, f.Width)
		return dt.Add(acc, p)
	case TargetAccum:
		return dt.FlipBits(dt.MAC(acc, w, x), f.Bit, f.Width)
	}
	panic("layers: unknown fault target")
}
