package layers

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// FCLayer is a fully-connected layer: out[o] = bias[o] + Σ_i W[o][i]*in[i].
// Its input is flattened, and every output is connected to every input —
// which is why faults in FC layers spread to all downstream ACTs at once
// (§5.1.4 of the paper).
type FCLayer struct {
	LayerName string
	In, Out   int
	Weights   []float64 // len Out*In, row-major [out][in]
	Bias      []float64 // len Out
}

// NewFC constructs a fully-connected layer with zeroed weights.
func NewFC(name string, in, out int) *FCLayer {
	return &FCLayer{
		LayerName: name,
		In:        in, Out: out,
		Weights: make([]float64, out*in),
		Bias:    make([]float64, out),
	}
}

// Name implements Layer.
func (l *FCLayer) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *FCLayer) Kind() Kind { return FC }

// OutShape implements Layer.
func (l *FCLayer) OutShape(in tensor.Shape) tensor.Shape {
	if in.Elems() != l.In {
		panic(fmt.Sprintf("fc %s: input size %d, want %d", l.LayerName, in.Elems(), l.In))
	}
	return tensor.Shape{C: l.Out, H: 1, W: 1}
}

// MACs implements Layer.
func (l *FCLayer) MACs(in tensor.Shape) int64 {
	l.OutShape(in) // validate
	return int64(l.Out) * int64(l.In)
}

// MACChainLen returns the accumulation-chain length per output element.
func (l *FCLayer) MACChainLen() int { return l.In }

// Forward implements Layer.
func (l *FCLayer) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(l.OutShape(in.Shape))
	l.ForwardInto(ctx, in, out)
	return out
}

// ForwardInto implements Layer.
func (l *FCLayer) ForwardInto(ctx *Context, in, out *tensor.Tensor) {
	l.OutShape(in.Shape) // validate
	dt := ctx.DType
	f := ctx.Fault

	// Both operand sets are reused (the input by every output neuron, the
	// weights across inferences); pre-quantize them once — bit-identical,
	// since Quantize is idempotent. A caller-supplied QIn (aligned with in,
	// per the Context contract) short-circuits the input quantization.
	qin := ctx.QIn
	if qin == nil {
		qin = quantizeSlice(dt, in.Data)
	}
	qw, qb := ctx.quantizedParams(l, l.Weights, l.Bias)
	mac := dt.MACFunc()

	run := func(o0, o1 int) {
		for o := o0; o < o1; o++ {
			faultHere := f != nil && f.OutputIndex == o
			acc := qb[o]
			row := qw[o*l.In : (o+1)*l.In]
			if !faultHere {
				for i, w := range row {
					acc = mac(acc, w, qin[i])
				}
			} else {
				for i, w := range row {
					if f.MACStep == i {
						// w is pre-quantized: the fault perturbs the
						// datapath-width operand, exactly as in CONV.
						acc = macFaulty(ctx, f, acc, w, qin[i])
					} else {
						acc = mac(acc, w, qin[i])
					}
				}
			}
			out.Data[o] = acc
		}
	}
	parallelRanges(ctx.Workers, l.Out, run)
}

// ForwardDelta implements DeltaForwarder. FC is the degenerate case of the
// receptive-field bound: every output neuron reads every input, so a single
// changed input dirties all Out accumulation chains, and a bit-exact chain
// replay must run in full (quantized accumulation is order-dependent) — the
// recompute is always the dense pass. The value of delta-stepping through
// FC is the re-shrink: bit-comparing the recomputed outputs against
// goldenOut trims the changed set to the neurons that actually moved —
// often none, which re-empties the set and masks the fault before any
// further layer runs.
func (l *FCLayer) ForwardDelta(ctx *Context, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int {
	if len(changed) == 0 {
		return dst
	}
	if lc := ctx.chainEntry(l.Out, l.In); lc != nil {
		return l.deltaChained(ctx, lc, in, goldenOut, out, changed, dst)
	}
	return denseDelta(ctx, l, in, goldenOut, out, dst)
}

// deltaChained is the cached-chain variant of the FC recompute: the changed
// input indices are the changed tap steps of every output chain at once, so
// all Out chains are the lanes of one position of a macStep, which replays
// only their diverged suffixes instead of the full dot products (see
// numeric.Type.ChainReplay) — or, under an output-only walk's Tail, proves
// lanes without replaying them. Bit-identical to denseDelta wherever the
// walk reads the output.
func (l *FCLayer) deltaChained(ctx *Context, lc *layerChains, in, goldenOut, out *tensor.Tensor, changed, dst []int) []int {
	sc := ctx.scratch()
	quant := ctx.DType.QuantFunc()
	steps, xs, dx := sc.steps[:0], sc.xs[:0], sc.dx[:0]
	steps = append(steps, changed...)
	if !sort.IntsAreSorted(steps) {
		sort.Ints(steps)
	}
	qin := ctx.QIn
	for _, idx := range steps {
		var x float64
		if qin != nil {
			x = qin[idx]
		} else {
			x = quant(in.Data[idx])
		}
		xs, dx = append(xs, x), append(dx, x-ctx.GoldenIn[idx])
	}
	sc.steps, sc.xs, sc.dx = steps, xs, dx
	sc.spatial, sc.offs = append(sc.spatial[:0], 0), append(sc.offs[:0], 0, len(steps))

	for o := 0; o < l.Out; o++ {
		if lc.filled[o].Load() == 0 {
			lc.fill(ctx, o, goldenOut.Data[o], func(prefix, prods []float64) float64 {
				return l.fillChain(ctx, o, prefix, prods)
			})
		}
	}
	step := macStep{ctx: ctx, sc: sc, lc: lc, q: ctx.Quant.entry(ctx.DType, l, l.Weights, l.Bias),
		golden: goldenOut.Data, plane: 1, chans: l.Out, chain: l.In}
	return step.run(out.Data, dst)
}

// fillChain computes the golden chain internals of output neuron o from
// the context's golden input into the neuron's prefix and prods rows — the
// same decomposed operations Forward performs, so the returned final
// accumulator is bit-identical to the golden output.
func (l *FCLayer) fillChain(ctx *Context, o int, prefix, prods []float64) float64 {
	qw, qb := ctx.Quant.params(ctx.DType, l, l.Weights, l.Bias)
	quant, accf := ctx.DType.QuantFunc(), ctx.DType.AccFunc()
	gin := ctx.GoldenIn
	base := o * l.In

	acc := qb[o]
	prefix[0] = acc
	for i := 0; i < l.In; i++ {
		p := quant(qw[base+i] * gin[i])
		prods[i] = p
		acc = accf(acc, p)
		prefix[i+1] = acc
	}
	return acc
}

// ForwardElement implements ElementForwarder: it recomputes the dot
// product of one output neuron, bit-identical to the corresponding element
// of Forward's output for every numeric format and fault target.
func (l *FCLayer) ForwardElement(ctx *Context, in *tensor.Tensor, outputIndex int) float64 {
	l.OutShape(in.Shape) // validate
	if outputIndex < 0 || outputIndex >= l.Out {
		panic(fmt.Sprintf("fc %s: output index %d out of range [0,%d)", l.LayerName, outputIndex, l.Out))
	}
	dt := ctx.DType
	f := ctx.Fault

	var qw []float64
	acc := dt.Quantize(l.Bias[outputIndex])
	if ctx.Quant != nil {
		var qb []float64
		qw, qb = ctx.Quant.params(dt, l, l.Weights, l.Bias)
		acc = qb[outputIndex]
	}

	base := outputIndex * l.In
	quant, mac := dt.QuantFunc(), dt.MACFunc()
	faultStep := -1 // see ConvLayer.ForwardElement
	if f != nil && f.OutputIndex == outputIndex {
		faultStep = f.MACStep
	}
	for i := 0; i < l.In; i++ {
		var x float64
		if ctx.QIn != nil {
			x = ctx.QIn[i]
		} else {
			x = quant(in.Data[i])
		}
		var w float64
		if qw != nil {
			w = qw[base+i]
		} else {
			w = quant(l.Weights[base+i])
		}
		if i == faultStep {
			acc = macFaulty(ctx, f, acc, w, x)
		} else {
			acc = mac(acc, w, x)
		}
	}
	return acc
}
