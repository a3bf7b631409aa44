package layers

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// TestFCFaultMatchesConvSemantics is the regression test for the FC
// faulty path: an FC layer and a 1x1-kernel CONV layer computing the same
// dot product must produce bit-identical faulty outputs for every latch
// target, bit and numeric format. Before the fix, FC handed the
// *unquantized* weight to the faulted MAC while CONV handed the quantized
// one.
func TestFCFaultMatchesConvSemantics(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(5))

	fc := NewFC("fc", n, 3)
	conv := NewConv("conv", n, 3, 1, 1, 0) // 1x1 kernel on a 1x1 fmap = dot product
	for i := range fc.Weights {
		// Deliberately not representable in the narrow formats, so an
		// unquantized operand would be caught.
		w := rng.NormFloat64() + rng.Float64()*1e-6
		fc.Weights[i] = w
		conv.Weights[i] = w
	}
	for i := range fc.Bias {
		fc.Bias[i] = rng.NormFloat64() * 0.1
		conv.Bias[i] = fc.Bias[i]
	}

	fcIn := tensor.New(tensor.Shape{C: n, H: 1, W: 1})
	for i := range fcIn.Data {
		fcIn.Data[i] = rng.NormFloat64() + rng.Float64()*1e-6
	}
	convIn := tensor.FromSlice(tensor.Shape{C: n, H: 1, W: 1}, fcIn.Data)

	for _, dt := range numeric.Types {
		for target := Target(0); target < NumTargets; target++ {
			for _, bit := range []int{0, 1, dt.Width() / 2, dt.Width() - 2, dt.Width() - 1} {
				for out := 0; out < 3; out++ {
					for _, step := range []int{0, n / 2, n - 1} {
						ff := &Fault{OutputIndex: out, MACStep: step, Target: target, Bit: bit}
						cf := &Fault{OutputIndex: out, MACStep: step, Target: target, Bit: bit}
						fcOut := fc.Forward(&Context{DType: dt, Fault: ff}, fcIn)
						convOut := conv.Forward(&Context{DType: dt, Fault: cf}, convIn)
						if !ff.Applied || !cf.Applied {
							t.Fatalf("%s %s bit %d: fault not applied", dt, target, bit)
						}
						for i := range fcOut.Data {
							if math.Float64bits(fcOut.Data[i]) != math.Float64bits(convOut.Data[i]) {
								t.Fatalf("%s %s bit %d out %d step %d: FC %v != CONV %v at %d",
									dt, target, bit, out, step, fcOut.Data[i], convOut.Data[i], i)
							}
						}
					}
				}
			}
		}
	}
}

// TestForwardElementMatchesForward checks the single-chain recompute
// against the dense forward for both MAC layer kinds, with and without a
// fault on the recomputed element.
func TestForwardElementMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	conv := NewConv("conv", 3, 4, 3, 2, 1)
	for i := range conv.Weights {
		conv.Weights[i] = rng.NormFloat64()
	}
	for i := range conv.Bias {
		conv.Bias[i] = rng.NormFloat64() * 0.2
	}
	fc := NewFC("fc", 3*5*5, 7)
	for i := range fc.Weights {
		fc.Weights[i] = rng.NormFloat64() * 0.3
	}
	for i := range fc.Bias {
		fc.Bias[i] = rng.NormFloat64() * 0.2
	}
	in := tensor.New(tensor.Shape{C: 3, H: 5, W: 5})
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}

	cases := []struct {
		l     ElementForwarder
		chain int
	}{
		{conv, conv.MACChainLen()},
		{fc, fc.MACChainLen()},
	}
	for _, dt := range numeric.Types {
		for _, cache := range []*QuantCache{nil, NewQuantCache()} {
			for _, tc := range cases {
				dense := tc.l.Forward(&Context{DType: dt, Quant: cache}, in)
				for oi := range dense.Data {
					got := tc.l.ForwardElement(&Context{DType: dt, Quant: cache}, in, oi)
					if math.Float64bits(got) != math.Float64bits(dense.Data[oi]) {
						t.Fatalf("%s %s: clean element %d = %v, dense %v", tc.l.Name(), dt, oi, got, dense.Data[oi])
					}
				}
				// Faulted element.
				f := &Fault{OutputIndex: rng.Intn(len(dense.Data)), MACStep: rng.Intn(tc.chain),
					Target: Target(rng.Intn(int(NumTargets))), Bit: rng.Intn(dt.Width())}
				f2 := *f
				faultyDense := tc.l.Forward(&Context{DType: dt, Fault: &f2, Quant: cache}, in)
				got := tc.l.ForwardElement(&Context{DType: dt, Fault: f, Quant: cache}, in, f.OutputIndex)
				if !f.Applied {
					t.Fatalf("%s %s: element fault not applied", tc.l.Name(), dt)
				}
				if math.Float64bits(got) != math.Float64bits(faultyDense.Data[f.OutputIndex]) {
					t.Fatalf("%s %s: faulty element %+v = %v, dense %v", tc.l.Name(), dt, f, got, faultyDense.Data[f.OutputIndex])
				}
			}
		}
	}
}

// checkDeltaAgainstDense is the ForwardDelta correctness oracle: the delta
// output must be bit-identical to a dense Forward of the faulty input, the
// returned changed set must be exactly the bit-differing elements, and
// restoring those elements from goldenOut must return the output buffer to
// golden (what a slot scratch relies on). The context carries the format
// and the density cutoff under test.
func checkDeltaAgainstDense(t *testing.T, ctx *Context, l DeltaForwarder, goldenOut, faultyIn *tensor.Tensor, changed []int, tag string) {
	t.Helper()
	wantOut := l.Forward(&Context{DType: ctx.DType, Quant: ctx.Quant}, faultyIn)
	gotOut := goldenOut.Clone()
	outChanged := l.ForwardDelta(ctx, faultyIn, goldenOut, gotOut, changed, nil)
	for i := range wantOut.Data {
		if math.Float64bits(gotOut.Data[i]) != math.Float64bits(wantOut.Data[i]) {
			t.Fatalf("%s %s: delta output %d = %v, dense %v", l.Name(), tag, i, gotOut.Data[i], wantOut.Data[i])
		}
	}
	diff := map[int]bool{}
	for i := range wantOut.Data {
		if math.Float64bits(wantOut.Data[i]) != math.Float64bits(goldenOut.Data[i]) {
			diff[i] = true
		}
	}
	if len(diff) != len(outChanged) {
		t.Fatalf("%s %s: changed = %v, want %d differing elements", l.Name(), tag, outChanged, len(diff))
	}
	for _, i := range outChanged {
		if !diff[i] {
			t.Fatalf("%s %s: reported unchanged element %d as changed", l.Name(), tag, i)
		}
	}
	for _, i := range outChanged {
		gotOut.Data[i] = goldenOut.Data[i]
	}
	if !tensor.BitIdentical(gotOut, goldenOut) {
		t.Fatalf("%s %s: restoring the changed set did not return the output to golden", l.Name(), tag)
	}
}

// checkForwardDelta drives ForwardDelta against a dense recompute for one
// layer and one perturbed input element.
func checkForwardDelta(t *testing.T, l DeltaForwarder, in *tensor.Tensor, idx int, delta float64) {
	t.Helper()
	ctx := &Context{DType: numeric.Float16}
	goldenOut := l.Forward(ctx, in)
	faultyIn := in.Clone()
	faultyIn.Data[idx] += delta
	checkDeltaAgainstDense(t, ctx, l, goldenOut, faultyIn, []int{idx}, "")
}

func TestForwardDeltaLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := tensor.New(tensor.Shape{C: 6, H: 5, W: 5})
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	ls := []DeltaForwarder{
		NewReLU("relu"),
		NewPool("pool", 2, 2),
		NewPool("pool3", 3, 2),
		NewLRN("lrn"),
	}
	for _, l := range ls {
		for trial := 0; trial < 40; trial++ {
			idx := rng.Intn(len(in.Data))
			var delta float64
			switch trial % 4 {
			case 0:
				delta = 5 // large positive: propagates
			case 1:
				delta = -5 // negative-going: often masked by ReLU/pool
			case 2:
				delta = 1e-4 // small: often absorbed by FLOAT16 rounding
			case 3:
				delta = math.Inf(1) - in.Data[idx] // drive to +Inf
			}
			checkForwardDelta(t, l, in, idx, delta)
		}
	}
}

// TestForwardDeltaAllFormats is the sparse-propagation property test: for
// every numeric format, a matrix of CONV geometries (stride/pad edges,
// 1x1 and whole-fmap kernels), FC, ReLU, both pool windows and LRN,
// ForwardDelta must be bit-identical to a dense recompute of the faulty
// input — for changed sets from one element to the whole input, and under
// cutoff settings that force the dense fallback (1e-9), forbid it (1), and
// leave the benchmark default (0). Bit-exactness may not depend on the
// cutoff: it only moves the sparse/dense crossover.
func TestForwardDeltaAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shape := tensor.Shape{C: 3, H: 7, W: 7}
	in := tensor.New(shape)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}

	convs := []*ConvLayer{
		NewConv("c3s1p1", 3, 4, 3, 1, 1), // same-pad, unit stride
		NewConv("c3s2p0", 3, 2, 3, 2, 0), // stride > 1, no pad (ragged edge)
		NewConv("c5s2p2", 3, 3, 5, 2, 2), // kernel wider than stride, pad
		NewConv("c2s2p0", 3, 2, 2, 2, 0), // non-overlapping windows
		NewConv("c1s1p0", 3, 4, 1, 1, 0), // pointwise: RF = one pixel
		NewConv("c7s1p3", 3, 2, 7, 1, 3), // kernel spanning the whole fmap
	}
	for _, c := range convs {
		for i := range c.Weights {
			c.Weights[i] = rng.NormFloat64() * 0.3
		}
		for i := range c.Bias {
			c.Bias[i] = rng.NormFloat64() * 0.1
		}
	}
	fc := NewFC("fc", shape.Elems(), 9)
	for i := range fc.Weights {
		fc.Weights[i] = rng.NormFloat64() * 0.2
	}
	for i := range fc.Bias {
		fc.Bias[i] = rng.NormFloat64() * 0.1
	}

	var lls []DeltaForwarder
	for _, c := range convs {
		lls = append(lls, c)
	}
	lls = append(lls, fc, NewReLU("relu"), NewPool("pool2", 2, 2), NewPool("pool3", 3, 2), NewLRN("lrn"))

	// Changed-set sizes straddling the default 0.5 density cutoff on a
	// 147-element input.
	sizes := []int{1, 3, len(in.Data) / 2, len(in.Data)}
	for _, dt := range numeric.Types {
		for _, l := range lls {
			goldenOut := l.Forward(&Context{DType: dt}, in)
			for _, cutoff := range []float64{0, 1e-9, 1} {
				for _, n := range sizes {
					perm := rng.Perm(len(in.Data))[:n]
					faultyIn := in.Clone()
					for _, ci := range perm {
						switch ci % 3 {
						case 0:
							faultyIn.Data[ci] += 4
						case 1:
							faultyIn.Data[ci] = -faultyIn.Data[ci]
						case 2:
							faultyIn.Data[ci] += 1e-5 // often absorbed by rounding
						}
					}
					ctx := &Context{DType: dt, DenseCutoff: cutoff}
					tag := fmt.Sprintf("%s cutoff=%g n=%d", dt, cutoff, n)
					checkDeltaAgainstDense(t, ctx, l, goldenOut, faultyIn, perm, tag)
				}
			}
		}
	}
}

// TestForwardDeltaChainCached re-runs the CONV/FC geometry matrix through
// the golden chain state: a Context carrying Chains, Quant and the
// pre-quantized golden input routes ForwardDelta through the cached suffix
// replay, which must stay bit-identical to a dense recompute of the faulty
// input — for every format, for changed sets from one element to the whole
// input, and across repeated injections against the same chains (first-touch
// lazy fills, then pure reuse) with one walker scratch reused throughout. A
// whole-input change covers the whole output plane — above any density
// cutoff — and must still take the replay path (every chain ends up filled;
// the dense fallback fills none) and match the dense pass. Out/OutC of 1, 3,
// 5 and 10 walk every tail shape of the replay's lane groups.
func TestForwardDeltaChainCached(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shape := tensor.Shape{C: 3, H: 7, W: 7}
	in := tensor.New(shape)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}

	convs := []*ConvLayer{
		NewConv("c3s1p1", 3, 4, 3, 1, 1), // same-pad, unit stride
		NewConv("c3s2p0", 3, 2, 3, 2, 0), // stride > 1, no pad (ragged edge)
		NewConv("c5s2p2", 3, 3, 5, 2, 2), // kernel wider than stride, pad
		NewConv("c2s2p0", 3, 2, 2, 2, 0), // non-overlapping windows
		NewConv("c1s1p0", 3, 4, 1, 1, 0), // pointwise: RF = one pixel
		NewConv("c7s1p3", 3, 2, 7, 1, 3), // kernel spanning the whole fmap
	}
	fcs := []*FCLayer{NewFC("fc", shape.Elems(), 9)}
	// Every lane-group tail shape (1, 3, 1 after a whole group, 2 after two)
	// through both call sites: output channels of a CONV position, output
	// neurons of an FC.
	for _, outs := range []int{1, 3, 5, 10} {
		convs = append(convs, NewConv(fmt.Sprintf("c3s2p1o%d", outs), 3, outs, 3, 2, 1))
		fcs = append(fcs, NewFC(fmt.Sprintf("fc%d", outs), shape.Elems(), outs))
	}
	var lls []DeltaForwarder
	for _, c := range convs {
		for i := range c.Weights {
			c.Weights[i] = rng.NormFloat64() * 0.3
		}
		for i := range c.Bias {
			c.Bias[i] = rng.NormFloat64() * 0.1
		}
		lls = append(lls, c)
	}
	for _, fc := range fcs {
		for i := range fc.Weights {
			fc.Weights[i] = rng.NormFloat64() * 0.2
		}
		for i := range fc.Bias {
			fc.Bias[i] = rng.NormFloat64() * 0.1
		}
		lls = append(lls, fc)
	}

	sizes := []int{1, 3, len(in.Data) / 2, len(in.Data)}
	for _, dt := range numeric.Types {
		quant := NewQuantCache()
		gin := quantizeSlice(dt, in.Data)
		scratch := new(ChainScratch)
		for _, l := range lls {
			goldenOut := l.Forward(&Context{DType: dt, Quant: quant}, in)
			chains := NewGoldenChains(dt, 1)
			for trial := 0; trial < 3; trial++ {
				for _, n := range sizes {
					perm := rng.Perm(len(in.Data))[:n]
					faultyIn := in.Clone()
					for _, ci := range perm {
						switch ci % 3 {
						case 0:
							faultyIn.Data[ci] += 4
						case 1:
							faultyIn.Data[ci] = -faultyIn.Data[ci]
						case 2:
							faultyIn.Data[ci] += 1e-5 // often absorbed by rounding
						}
					}
					ctx := &Context{DType: dt, Quant: quant, Chains: chains, Scratch: scratch, GoldenIn: gin, DenseCutoff: 1e-9}
					tag := fmt.Sprintf("%s cached trial=%d n=%d", dt, trial, n)
					checkDeltaAgainstDense(t, ctx, l, goldenOut, faultyIn, perm, tag)
				}
				lc := chains.layers[0].Load()
				for oi := range lc.filled {
					if lc.filled[oi].Load() == 0 {
						t.Fatalf("%s %s trial=%d: whole-plane delta left chain %d unfilled: it took the dense fallback", l.Name(), dt, trial, oi)
					}
				}
			}
		}
	}
}

// TestForwardDeltaMultiElement exercises the multi-index path used when a
// perturbation has already spread (e.g. LRN widened it across channels).
func TestForwardDeltaMultiElement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := tensor.New(tensor.Shape{C: 6, H: 5, W: 5})
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	ctx := &Context{DType: numeric.Fx16RB10}
	for _, l := range []DeltaForwarder{NewReLU("relu"), NewPool("pool", 2, 2), NewLRN("lrn")} {
		goldenOut := l.Forward(ctx, in)
		faultyIn := in.Clone()
		changed := []int{3, 4, 30, 31, 77} // overlapping pool windows / LRN spans
		for _, i := range changed {
			faultyIn.Data[i] += 3
		}
		wantOut := l.Forward(ctx, faultyIn)
		gotOut := goldenOut.Clone()
		l.ForwardDelta(ctx, faultyIn, goldenOut, gotOut, changed, nil)
		for i := range wantOut.Data {
			if math.Float64bits(gotOut.Data[i]) != math.Float64bits(wantOut.Data[i]) {
				t.Fatalf("%s: multi-delta output %d = %v, dense %v", l.Name(), i, gotOut.Data[i], wantOut.Data[i])
			}
		}
	}
}
