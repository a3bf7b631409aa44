package layers

import (
	"fmt"
	"math"
	mbits "math/bits"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// Bit-parallel site evaluation. A datapath campaign that evaluates every
// bit position of one latch site replays the same accumulation chain once
// per bit; the chain prefix and suffix are identical across bits, only the
// faulted step differs. PlaneForwarder replays the chain once and carries
// one accumulator lane per requested bit through the suffix, producing up
// to 64 faulty output values — each bit-identical to the scalar
// ForwardElement replay with that bit's Fault.
//
// Lane arithmetic is kept bit-identical by construction: clean steps use
// the same quantize-product-then-accumulate expression MACq evaluates, the
// faulted step uses the literal macFaulty call sequences (via
// numeric.FlipProducts), and a lane whose accumulator becomes bit-equal to
// the golden accumulator is retired — the remaining suffix is a
// deterministic function of the stored bits, so its final value is the
// golden chain value.

// PlaneFault selects one latch site — every bit position set in Bits is
// evaluated in one chain replay.
type PlaneFault struct {
	OutputIndex int
	MACStep     int
	Target      Target
	// Bits is the mask of bit positions to evaluate (bit b set ⇒ lane b
	// runs). Bits at or above the format width must be clear.
	Bits uint64
}

// PlaneForwarder is implemented by MAC layers that can evaluate all bit
// flips of one latch site in a single chain replay.
type PlaneForwarder interface {
	ElementForwarder
	// ForwardElementPlane replays the accumulation chain of output element
	// pf.OutputIndex once, writing into vals[b] — for every bit b set in
	// pf.Bits — the faulty chain output of flipping bit b at
	// (pf.MACStep, pf.Target), each bit-identical to ForwardElement with
	// the corresponding scalar Fault. It returns the golden (fault-free)
	// chain output. Entries of vals outside pf.Bits are untouched.
	ForwardElementPlane(ctx *Context, in *tensor.Tensor, pf *PlaneFault, vals *[64]float64) float64
	// StepOperands returns the quantized (weight, activation) operand pair
	// of one MAC step of one output element — the operands macFaulty would
	// see — without replaying the chain. The analytical pre-screen uses
	// them to classify provably-masked flips before any replay.
	StepOperands(ctx *Context, in *tensor.Tensor, outputIndex, macStep int) (w, x float64)
}

// FlipOperand maps a latch target to its numeric flip kernel operand. It
// panics for TargetAccum, whose flip applies after the MAC rather than to
// the step product.
func FlipOperand(t Target) numeric.Operand {
	switch t {
	case TargetWeight:
		return numeric.OpWeight
	case TargetInput:
		return numeric.OpInput
	case TargetProduct:
		return numeric.OpProduct
	}
	panic(fmt.Sprintf("layers: target %v has no flip operand", t))
}

// planeChain runs one accumulation chain with per-bit fault lanes: the
// prefix runs golden-only, the faulted step seeds one lane per requested
// bit with the exact macFaulty result for that bit, and the suffix advances
// the golden accumulator plus every live lane with the shared quantized
// step product. A lane that becomes bit-equal to the golden accumulator is
// retired and finalized to the golden chain output.
func planeChain(ctx *Context, pf *PlaneFault, chainLen int, acc float64, tap *chainTap, vals *[64]float64) float64 {
	if pf.MACStep < 0 || pf.MACStep >= chainLen {
		panic(fmt.Sprintf("layers: plane fault MAC step %d out of range [0,%d)", pf.MACStep, chainLen))
	}
	dt := ctx.DType
	quant, mac := dt.QuantFunc(), dt.MACFunc()
	for step := 0; step < pf.MACStep; step++ {
		w, x := tap.at(step)
		acc = mac(acc, w, x)
	}

	w, x := tap.at(pf.MACStep)
	live := pf.Bits
	if pf.Target == TargetAccum {
		// macFaulty: FlipBit(MAC(acc, w, x), bit), encoding hoisted.
		e := dt.Encode(dt.MAC(acc, w, x))
		for m := live; m != 0; m &= m - 1 {
			b := mbits.TrailingZeros64(m)
			vals[b] = dt.Decode(e ^ (1 << uint(b)))
		}
	} else {
		// macFaulty: Add(acc, <flipped step product>).
		var prods [64]float64
		dt.FlipProducts(FlipOperand(pf.Target), w, x, &prods)
		for m := live; m != 0; m &= m - 1 {
			b := mbits.TrailingZeros64(m)
			vals[b] = dt.Add(acc, prods[b])
		}
	}
	acc = mac(acc, w, x)

	// conv collects lanes whose accumulator matched the golden one: their
	// remaining suffix — a deterministic function of the stored bits — is
	// the golden suffix, so they stop paying per-step work.
	var conv uint64
	gb := math.Float64bits(acc)
	for m := live; m != 0; m &= m - 1 {
		b := mbits.TrailingZeros64(m)
		if math.Float64bits(vals[b]) == gb {
			conv |= 1 << uint(b)
		}
	}
	for step := pf.MACStep + 1; step < chainLen; step++ {
		w, x := tap.at(step)
		p := quant(w * x)
		acc = quant(acc + p) // MACq, with the product shared by all lanes
		gb = math.Float64bits(acc)
		for m := live &^ conv; m != 0; m &= m - 1 {
			b := mbits.TrailingZeros64(m)
			v := quant(vals[b] + p)
			vals[b] = v
			if math.Float64bits(v) == gb {
				conv |= 1 << uint(b)
			}
		}
	}
	for m := conv; m != 0; m &= m - 1 {
		b := mbits.TrailingZeros64(m)
		vals[b] = acc
	}
	return acc
}

// chainTap reads the operands of one output element's accumulation chain
// step by step, matching ForwardElement's operand resolution exactly
// (cache-aware, with zero padding outside a CONV input plane). It is a
// value rather than a closure, so a site's replay allocates nothing.
type chainTap struct {
	ctx   *Context
	in    *tensor.Tensor
	quant func(float64) float64
	// qw are the quantized weights when a cache is attached (nil
	// otherwise: weights are quantized per tap from w); base is the
	// element's first weight.
	qw, w []float64
	base  int
	// conv is the CONV layer and (oh, ow) the element's output position;
	// nil for an FC neuron, whose step s reads input s.
	conv   *ConvLayer
	oh, ow int
}

// at returns the quantized (weight, activation) operands of chain step
// step.
func (t *chainTap) at(step int) (w, x float64) {
	idx, inside := step, true
	if c := t.conv; c != nil {
		khkw := c.KH * c.KW
		r := step % khkw
		inH, inW := t.in.Shape.H, t.in.Shape.W
		ih := t.oh*c.Stride + r/c.KW - c.Pad
		iw := t.ow*c.Stride + r%c.KW - c.Pad
		inside = ih >= 0 && ih < inH && iw >= 0 && iw < inW
		idx = step/khkw*inH*inW + ih*inW + iw
	}
	if inside {
		if t.ctx.QIn != nil {
			x = t.ctx.QIn[idx]
		} else {
			x = t.quant(t.in.Data[idx])
		}
	}
	if t.qw != nil {
		w = t.qw[t.base+step]
	} else {
		w = t.quant(t.w[t.base+step])
	}
	return w, x
}

// chainTap resolves the accumulation-chain geometry of one CONV output
// element: the bias seed, the chain length and its tap reader.
func (l *ConvLayer) chainTap(ctx *Context, in *tensor.Tensor, outputIndex int) (acc float64, chainLen int, tap chainTap) {
	os := l.OutShape(in.Shape)
	plane := os.H * os.W
	if outputIndex < 0 || outputIndex >= l.OutC*plane {
		panic(fmt.Sprintf("conv %s: output index %d out of range [0,%d)", l.LayerName, outputIndex, l.OutC*plane))
	}
	dt := ctx.DType
	oc := outputIndex / plane
	chainLen = l.InC * l.KH * l.KW
	tap = chainTap{ctx: ctx, in: in, quant: dt.QuantFunc(), w: l.Weights, base: oc * chainLen,
		conv: l, oh: (outputIndex % plane) / os.W, ow: outputIndex % os.W}
	acc = dt.Quantize(l.Bias[oc])
	if ctx.Quant != nil {
		var qb []float64
		tap.qw, qb = ctx.Quant.params(dt, l, l.Weights, l.Bias)
		acc = qb[oc]
	}
	return acc, chainLen, tap
}

// ForwardElementPlane implements PlaneForwarder.
func (l *ConvLayer) ForwardElementPlane(ctx *Context, in *tensor.Tensor, pf *PlaneFault, vals *[64]float64) float64 {
	acc, chainLen, tap := l.chainTap(ctx, in, pf.OutputIndex)
	return planeChain(ctx, pf, chainLen, acc, &tap, vals)
}

// StepOperands implements PlaneForwarder.
func (l *ConvLayer) StepOperands(ctx *Context, in *tensor.Tensor, outputIndex, macStep int) (w, x float64) {
	_, chainLen, tap := l.chainTap(ctx, in, outputIndex)
	if macStep < 0 || macStep >= chainLen {
		panic(fmt.Sprintf("conv %s: MAC step %d out of range [0,%d)", l.LayerName, macStep, chainLen))
	}
	return tap.at(macStep)
}

// chainTap resolves the dot-product geometry of one FC output neuron.
func (l *FCLayer) chainTap(ctx *Context, in *tensor.Tensor, outputIndex int) (acc float64, chainLen int, tap chainTap) {
	l.OutShape(in.Shape) // validate
	if outputIndex < 0 || outputIndex >= l.Out {
		panic(fmt.Sprintf("fc %s: output index %d out of range [0,%d)", l.LayerName, outputIndex, l.Out))
	}
	dt := ctx.DType
	tap = chainTap{ctx: ctx, in: in, quant: dt.QuantFunc(), w: l.Weights, base: outputIndex * l.In}
	acc = dt.Quantize(l.Bias[outputIndex])
	if ctx.Quant != nil {
		var qb []float64
		tap.qw, qb = ctx.Quant.params(dt, l, l.Weights, l.Bias)
		acc = qb[outputIndex]
	}
	return acc, l.In, tap
}

// ForwardElementPlane implements PlaneForwarder.
func (l *FCLayer) ForwardElementPlane(ctx *Context, in *tensor.Tensor, pf *PlaneFault, vals *[64]float64) float64 {
	acc, chainLen, tap := l.chainTap(ctx, in, pf.OutputIndex)
	return planeChain(ctx, pf, chainLen, acc, &tap, vals)
}

// StepOperands implements PlaneForwarder.
func (l *FCLayer) StepOperands(ctx *Context, in *tensor.Tensor, outputIndex, macStep int) (w, x float64) {
	_, chainLen, tap := l.chainTap(ctx, in, outputIndex)
	if macStep < 0 || macStep >= chainLen {
		panic(fmt.Sprintf("fc %s: MAC step %d out of range [0,%d)", l.LayerName, macStep, chainLen))
	}
	return tap.at(macStep)
}
