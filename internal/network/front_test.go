package network

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// tapOracle is the per-tap oracle of one front element: it walks the
// accumulation chain of output element oi of CONV/FC layer l tap by tap in
// the format's scalar arithmetic, with f's flip applied to the target latch
// of step f.MACStep — what ForwardElement computes under f, written out
// independently of it (no kernels, no quantized-parameter cache, no QIn).
func tapOracle(l layers.Layer, dt numeric.Type, in *tensor.Tensor, f layers.Fault) float64 {
	oi := f.OutputIndex
	step := func(acc, w, x float64, k int) float64 {
		w, x = dt.Quantize(w), dt.Quantize(x)
		if k != f.MACStep {
			return dt.MAC(acc, w, x)
		}
		switch f.Target {
		case layers.TargetWeight:
			return dt.MAC(acc, dt.FlipBits(w, f.Bit, f.Width), x)
		case layers.TargetInput:
			return dt.MAC(acc, w, dt.FlipBits(x, f.Bit, f.Width))
		case layers.TargetProduct:
			return dt.Add(acc, dt.FlipBits(dt.Mul(w, x), f.Bit, f.Width))
		case layers.TargetAccum:
			return dt.FlipBits(dt.MAC(acc, w, x), f.Bit, f.Width)
		}
		panic("unknown target")
	}
	switch l := l.(type) {
	case *layers.ConvLayer:
		os := l.OutShape(in.Shape)
		plane := os.H * os.W
		oc, oh, ow := oi/plane, (oi%plane)/os.W, oi%os.W
		acc := dt.Quantize(l.Bias[oc])
		k := 0
		for ic := 0; ic < l.InC; ic++ {
			for kh := 0; kh < l.KH; kh++ {
				for kw := 0; kw < l.KW; kw++ {
					ih, iw := oh*l.Stride+kh-l.Pad, ow*l.Stride+kw-l.Pad
					var x float64
					if ih >= 0 && ih < in.Shape.H && iw >= 0 && iw < in.Shape.W {
						x = in.At(ic, ih, iw)
					}
					acc = step(acc, l.Weights[l.WeightIndex(oc, ic, kh, kw)], x, k)
					k++
				}
			}
		}
		return acc
	case *layers.FCLayer:
		acc := dt.Quantize(l.Bias[oi])
		for k := 0; k < l.In; k++ {
			acc = step(acc, l.Weights[oi*l.In+k], in.Data[k], k)
		}
		return acc
	}
	panic("not a MAC layer")
}

// FuzzFaultFront is the bit-exactness property of the one entry point every
// multi-MAC fault model ends in: for an arbitrary front — a CONV or FC
// layer, every numeric format, every latch target, any chain step, bit span
// and element subset — ForwardFront must equal the golden activation
// patched with a per-tap oracle's value at every struck element and
// re-executed densely (ForwardWithActDense), bit for bit on every
// activation tensor; Masked only when that execution ends on golden's
// output; every fault marked Applied and otherwise untouched; and a
// one-element front is ForwardFrom. The element subsets are the shapes the
// fault models produce — nothing, one MAC, a whole output channel (Filter
// SRAM), a run along one output row with the step walking the kernel row
// (Img REG), a stream suffix (a resident systolic latch), a walk across
// channels at one position (a forwarded latch) — plus a random scatter.
// Every front is evaluated twice against the same golden tensors under a
// fresh Execution — cold, when the downstream walk fills the golden chains
// it replays, then warm — and both must equal the oracle.
func FuzzFaultFront(f *testing.F) {
	cached := deepNet(23)
	cached.EnableQuantCache()
	nets := []*Network{deepNet(19), cached, lrnNet(true, 7)}

	type goldenKey struct {
		net int
		dt  numeric.Type
	}
	goldens := make(map[goldenKey]*Execution)

	// seed, net, dtype, MAC layer, target, step, step stride, bit, width, subset shape, shuffled
	f.Add(int64(1), uint8(0), uint8(5), uint8(0), uint8(0), uint16(7), int8(0), uint8(12), uint8(0), uint8(2), false)   // Filter SRAM: weight word over a conv1 channel, raw input
	f.Add(int64(2), uint8(1), uint8(5), uint8(1), uint8(0), uint16(20), int8(0), uint8(14), uint8(1), uint8(2), false)  // Filter SRAM, strided conv2, cached params
	f.Add(int64(3), uint8(1), uint8(2), uint8(3), uint8(0), uint16(9), int8(0), uint8(10), uint8(2), uint8(2), false)   // Filter SRAM on an FC neuron, FLOAT16 exponent span
	f.Add(int64(4), uint8(0), uint8(5), uint8(0), uint8(1), uint16(5), int8(-1), uint8(13), uint8(0), uint8(3), false)  // Img REG: row run, step walking the kernel row
	f.Add(int64(5), uint8(2), uint8(3), uint8(1), uint8(1), uint16(31), int8(-1), uint8(30), uint8(1), uint8(3), false) // Img REG on conv2 behind LRN
	f.Add(int64(6), uint8(0), uint8(4), uint8(0), uint8(0), uint16(3), int8(0), uint8(9), uint8(0), uint8(4), false)    // weight-stationary resident weight: stream suffix
	f.Add(int64(7), uint8(1), uint8(1), uint8(2), uint8(1), uint16(2), int8(0), uint8(22), uint8(2), uint8(5), false)   // forwarded activation: walk across channels
	f.Add(int64(8), uint8(0), uint8(0), uint8(4), uint8(3), uint16(1), int8(0), uint8(63), uint8(0), uint8(1), false)   // PSum REG / one MAC: the ForwardFrom case
	f.Add(int64(9), uint8(2), uint8(2), uint8(0), uint8(2), uint16(11), int8(3), uint8(11), uint8(1), uint8(6), true)   // product latches, scattered and shuffled
	f.Add(int64(10), uint8(1), uint8(5), uint8(1), uint8(3), uint16(0), int8(0), uint8(0), uint8(0), uint8(0), false)   // the empty front

	f.Fuzz(func(t *testing.T, seed int64, netSel, dtSel, macSel, targetSel uint8, step uint16, stepStride int8, bit, width, shape uint8, shuffled bool) {
		ni := int(netSel) % len(nets)
		n := nets[ni]
		dt := numeric.Types[int(dtSel)%len(numeric.Types)]
		k := goldenKey{ni, dt}
		golden := goldens[k]
		if golden == nil {
			golden = n.Forward(dt, randInput(n.InShape, 42))
			goldens[k] = golden
		}
		rng := rand.New(rand.NewSource(seed))
		macs := n.MACLayerIndices()
		li := macs[int(macSel)%len(macs)]
		in, act := golden.LayerInput(li), golden.Acts[li]
		chain := n.Layers[li].(interface{ MACChainLen() int }).MACChainLen()
		plane := act.Shape.H * act.Shape.W

		var elems []int
		switch shape % 7 {
		case 1: // one MAC
			elems = []int{rng.Intn(len(act.Data))}
		case 2: // a whole output channel
			oc := rng.Intn(act.Shape.C)
			for i := 0; i < plane; i++ {
				elems = append(elems, oc*plane+i)
			}
		case 3: // a run along one output row
			row := rng.Intn(act.Shape.C*act.Shape.H) * act.Shape.W
			lo := rng.Intn(act.Shape.W)
			for ow := lo; ow < min(act.Shape.W, lo+3); ow++ {
				elems = append(elems, row+ow)
			}
		case 4: // the stream suffix of one output channel
			oc := rng.Intn(act.Shape.C)
			for p := rng.Intn(plane); p < plane; p++ {
				elems = append(elems, oc*plane+p)
			}
		case 5: // a walk across channels at one position
			p := rng.Intn(plane)
			for oc := rng.Intn(act.Shape.C); oc < act.Shape.C; oc++ {
				elems = append(elems, oc*plane+p)
			}
		case 6: // scatter
			for i := range act.Data {
				if rng.Float64() < 0.2 {
					elems = append(elems, i)
				}
			}
		}
		if shuffled {
			rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
		}
		lo := int(bit) % dt.Width()
		span := 1 + int(width)%min(3, dt.Width()-lo)
		front := make([]layers.Fault, len(elems))
		for i, oi := range elems {
			front[i] = layers.Fault{
				OutputIndex: oi,
				MACStep:     ((int(step)+i*int(stepStride))%chain + chain) % chain,
				Target:      layers.Target(int(targetSel) % int(layers.NumTargets)),
				Bit:         lo,
				Width:       span,
			}
		}
		handed := slices.Clone(front)

		patched := act.Clone()
		for _, f := range handed {
			patched.Data[f.OutputIndex] = tapOracle(n.Layers[li], dt, in, f)
		}
		want := n.ForwardWithActDense(dt, golden, li, patched)
		fresh := &Execution{Input: golden.Input, Acts: golden.Acts}
		var got *Execution
		for _, pass := range []struct {
			chains string
			front  []layers.Fault
		}{{"cold", slices.Clone(handed)}, {"warm", front}} {
			got = n.ForwardFront(dt, fresh, li, pass.front)
			for l := range want.Acts {
				if !tensor.BitIdentical(got.Acts[l], want.Acts[l]) {
					t.Fatalf("%s/%s layer %d, %d-element front %+v…, %s chains: differs from the per-tap oracle at layer %d",
						n.Name, dt, li, len(handed), handed[:min(1, len(handed))], pass.chains, l)
				}
			}
		}
		last := len(got.Acts) - 1
		if got.Masked && got.Acts[last] != golden.Acts[last] {
			t.Fatal("masked execution does not alias the golden output tensor")
		}
		if !got.Masked && len(handed) == 0 {
			t.Fatal("the empty front is not masked")
		}
		for i, f := range front {
			if !f.Applied {
				t.Fatalf("fault %+v returned unapplied", f)
			}
			if f.Applied = false; f != handed[i] {
				t.Fatalf("fault %+v came back as %+v", handed[i], f)
			}
		}
		if len(handed) == 1 {
			one := handed[0]
			single := n.ForwardFrom(dt, golden, li, &one)
			for l := range single.Acts {
				if !tensor.BitIdentical(single.Acts[l], got.Acts[l]) {
					t.Fatalf("one-element front %+v differs from ForwardFrom at layer %d", one, l)
				}
			}
			if !one.Applied || single.Masked != got.Masked {
				t.Fatalf("one-element front %+v: ForwardFrom applied=%v masked=%v, front masked=%v", one, one.Applied, single.Masked, got.Masked)
			}
		}
	})
}

// TestForwardFrontRefusesUnexercisedFault: a front fault whose step lies
// outside the accumulation chain corrupts nothing, which a fault model must
// hear about rather than tally as masked.
func TestForwardFrontRefusesUnexercisedFault(t *testing.T) {
	n := tinyNet()
	golden := n.Forward(numeric.Float16, tinyInput())
	chain := n.Layers[0].(*layers.ConvLayer).MACChainLen()
	defer func() {
		if recover() == nil {
			t.Error("a front fault past the end of its chain did not panic")
		}
	}()
	n.ForwardFront(numeric.Float16, golden, 0, []layers.Fault{
		{OutputIndex: 1, MACStep: 2, Target: layers.TargetAccum, Bit: 3},
		{OutputIndex: 2, MACStep: chain, Target: layers.TargetAccum, Bit: 3},
	})
}
