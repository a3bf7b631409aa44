package network

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// lrnNet builds an AlexNet-style block structure — conv -> ReLU -> LRN ->
// pool -> conv -> ReLU -> fc (-> softmax) — exercising every layer kind
// the incremental engine propagates through.
func lrnNet(withSoftmax bool, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	conv1 := layers.NewConv("conv1", 2, 6, 3, 1, 1)
	conv2 := layers.NewConv("conv2", 6, 4, 3, 1, 0)
	fc := layers.NewFC("fc3", 4*2*2, 5)
	for _, p := range [][]float64{conv1.Weights, conv1.Bias, conv2.Weights, conv2.Bias, fc.Weights, fc.Bias} {
		for i := range p {
			p[i] = rng.NormFloat64() * 0.4
		}
	}
	ls := []layers.Layer{
		conv1,
		layers.NewReLU("relu1"),
		layers.NewLRN("norm1"),
		layers.NewPool("pool1", 2, 2),
		conv2,
		layers.NewReLU("relu2"),
		fc,
	}
	if withSoftmax {
		ls = append(ls, layers.NewSoftmax("prob"))
	}
	n := &Network{
		Name:    "lrnNet",
		InShape: tensor.Shape{C: 2, H: 8, W: 8},
		Classes: 5,
		Layers:  ls,
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

// deepNet stacks three CONV blocks and two FC layers so a fault injected
// at conv1 must delta-step through downstream CONV and FC layers — the
// receptive-field-bounded sparse path — not just activations, before the
// softmax tail.
func deepNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	conv1 := layers.NewConv("conv1", 2, 4, 3, 1, 1) // 8x8 -> 4x8x8
	conv2 := layers.NewConv("conv2", 4, 6, 3, 2, 1) // 4x4x4 -> 6x2x2
	conv3 := layers.NewConv("conv3", 6, 6, 1, 1, 0) // pointwise
	fc4 := layers.NewFC("fc4", 6*2*2, 8)
	fc5 := layers.NewFC("fc5", 8, 4)
	for _, p := range [][]float64{
		conv1.Weights, conv1.Bias, conv2.Weights, conv2.Bias,
		conv3.Weights, conv3.Bias, fc4.Weights, fc4.Bias, fc5.Weights, fc5.Bias,
	} {
		for i := range p {
			p[i] = rng.NormFloat64() * 0.4
		}
	}
	n := &Network{
		Name:    "deepNet",
		InShape: tensor.Shape{C: 2, H: 8, W: 8},
		Classes: 4,
		Layers: []layers.Layer{
			conv1, layers.NewReLU("relu1"), layers.NewPool("pool1", 2, 2),
			conv2, layers.NewReLU("relu2"),
			conv3, layers.NewReLU("relu3"),
			fc4, layers.NewReLU("relu4"),
			fc5, layers.NewSoftmax("prob"),
		},
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

func randInput(shape tensor.Shape, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(shape)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	return in
}

// TestForwardFromEquivalence is the bit-exactness property test of the
// incremental propagation engine: for seeded random (layer, output
// element, MAC step, target, bit) fault sites across every numeric type,
// the incremental ForwardFrom must produce activations bit-identical to
// the dense reference ForwardFromDense at every layer.
func TestForwardFromEquivalence(t *testing.T) {
	nets := []*Network{tinyNet(), lrnNet(true, 7), lrnNet(false, 8), deepNet(19)}
	for _, n := range nets {
		// Exercise both the cold path and the quantized-parameter cache.
		for _, withCache := range []bool{false, true} {
			if withCache {
				n.EnableQuantCache()
			}
			for _, dt := range numeric.Types {
				t.Run(fmt.Sprintf("%s/%s/cache=%v", n.Name, dt, withCache), func(t *testing.T) {
					testEquivalence(t, n, dt)
				})
			}
		}
	}
}

func testEquivalence(t *testing.T, n *Network, dt numeric.Type) {
	in := randInput(n.InShape, 42)
	golden := n.Forward(dt, in)
	macLayers := n.MACLayerIndices()
	rng := rand.New(rand.NewSource(int64(dt) + 1))

	masked, unmasked := 0, 0
	for trial := 0; trial < 60; trial++ {
		li := macLayers[rng.Intn(len(macLayers))]
		layerIn := golden.Input
		if li > 0 {
			layerIn = golden.Acts[li-1]
		}
		var outElems, chain int
		switch l := n.Layers[li].(type) {
		case *layers.ConvLayer:
			outElems = l.OutShape(layerIn.Shape).Elems()
			chain = l.MACChainLen()
		case *layers.FCLayer:
			outElems = l.Out
			chain = l.MACChainLen()
		}
		fault := &layers.Fault{
			OutputIndex: rng.Intn(outElems),
			MACStep:     rng.Intn(chain),
			Target:      layers.Target(rng.Intn(int(layers.NumTargets))),
			Bit:         rng.Intn(dt.Width()),
		}
		dense := *fault
		inc := n.ForwardFrom(dt, golden, li, fault)
		ref := n.ForwardFromDense(dt, golden, li, &dense)
		if !fault.Applied || !dense.Applied {
			t.Fatalf("trial %d: fault not applied (inc=%v dense=%v)", trial, fault.Applied, dense.Applied)
		}
		if inc.Masked {
			masked++
		} else {
			unmasked++
		}
		for i := range n.Layers {
			a, b := inc.Acts[i], ref.Acts[i]
			if a.Shape != b.Shape {
				t.Fatalf("trial %d (site %+v): layer %d shape %v vs %v", trial, fault, i, a.Shape, b.Shape)
			}
			for j := range a.Data {
				if math.Float64bits(a.Data[j]) != math.Float64bits(b.Data[j]) {
					t.Fatalf("trial %d (layer %d of %s, site %+v): element %d incremental %v (%#x) != dense %v (%#x)",
						trial, li, n.Layers[li].Name(), fault, j,
						a.Data[j], math.Float64bits(a.Data[j]), b.Data[j], math.Float64bits(b.Data[j]))
				}
			}
		}
	}
	// Sanity: the trial mix must exercise both engine paths, or the test
	// proves less than it claims.
	if masked == 0 || unmasked == 0 {
		t.Logf("warning: %s mix masked=%d unmasked=%d", dt, masked, unmasked)
	}
}

// TestForwardFromSparseCutoffSweep pins that the density cutoff is a
// throughput knob only: whether it forces the dense fallback on every
// delta step (1e-9), never allows it (1), or sits at the benchmark default
// (0), ForwardFrom stays bit-identical to ForwardFromDense on a net deep
// enough that faults delta-step through downstream CONV and FC layers.
func TestForwardFromSparseCutoffSweep(t *testing.T) {
	n := deepNet(19)
	defer n.setDenseCutoff(0)
	for _, cutoff := range []float64{1e-9, 0, 1} {
		n.setDenseCutoff(cutoff)
		for _, dt := range []numeric.Type{numeric.Float16, numeric.Float, numeric.Fx32RB10} {
			t.Run(fmt.Sprintf("cutoff=%g/%s", cutoff, dt), func(t *testing.T) {
				testEquivalence(t, n, dt)
			})
		}
	}
}

// TestForwardFromMaskedAliasesGolden pins the early-exit contract: a fault
// absorbed before the output yields an execution whose downstream tensors
// alias golden and whose Masked flag is set.
func TestForwardFromMaskedAliasesGolden(t *testing.T) {
	n := lrnNet(true, 7)
	dt := numeric.Float16
	in := randInput(n.InShape, 42)
	golden := n.Forward(dt, in)

	// Find a masked fault by scanning low-order mantissa bits of weight
	// operands; quantization absorbs most of them.
	macLayers := n.MACLayerIndices()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		li := macLayers[rng.Intn(len(macLayers))]
		layerIn := golden.Input
		if li > 0 {
			layerIn = golden.Acts[li-1]
		}
		var outElems, chain int
		switch l := n.Layers[li].(type) {
		case *layers.ConvLayer:
			outElems = l.OutShape(layerIn.Shape).Elems()
			chain = l.MACChainLen()
		case *layers.FCLayer:
			outElems = l.Out
			chain = l.MACChainLen()
		}
		fault := &layers.Fault{
			OutputIndex: rng.Intn(outElems),
			MACStep:     rng.Intn(chain),
			Target:      layers.TargetWeight,
			Bit:         rng.Intn(3), // low mantissa bits: usually masked
		}
		exec := n.ForwardFrom(dt, golden, li, fault)
		if !exec.Masked {
			continue
		}
		last := len(n.Layers) - 1
		if exec.Acts[last] != golden.Acts[last] {
			t.Fatal("masked execution does not alias the golden output tensor")
		}
		for i := range exec.Acts {
			for j := range exec.Acts[i].Data {
				if math.Float64bits(exec.Acts[i].Data[j]) != math.Float64bits(golden.Acts[i].Data[j]) {
					t.Fatalf("masked execution differs from golden at layer %d elem %d", i, j)
				}
			}
		}
		return
	}
	t.Fatal("no masked fault found in 2000 low-bit trials; masking logic suspect")
}

// TestForwardParallelMatchesSerial checks that splitting CONV/FC loops
// across goroutines is bit-identical to the serial pass.
func TestForwardParallelMatchesSerial(t *testing.T) {
	n := lrnNet(true, 9)
	in := randInput(n.InShape, 11)
	for _, dt := range []numeric.Type{numeric.Double, numeric.Float16, numeric.Fx32RB10} {
		serial := n.Forward(dt, in)
		parallel := n.ForwardParallel(dt, in, 8)
		for i := range serial.Acts {
			for j := range serial.Acts[i].Data {
				if math.Float64bits(serial.Acts[i].Data[j]) != math.Float64bits(parallel.Acts[i].Data[j]) {
					t.Fatalf("%s: parallel forward differs at layer %d elem %d", dt, i, j)
				}
			}
		}
	}
}

// TestQuantCacheInvalidation verifies that weight mutation plus
// InvalidateQuantCache yields fresh quantized values.
func TestQuantCacheInvalidation(t *testing.T) {
	n := tinyNet()
	n.EnableQuantCache()
	in := tinyInput()
	dt := numeric.Float16
	before := n.Forward(dt, in).Output().Clone()

	conv := n.Layers[0].(*layers.ConvLayer)
	for i := range conv.Weights {
		conv.Weights[i] += 0.5
	}
	n.InvalidateQuantCache()
	after := n.Forward(dt, in)

	// A fresh network with the same mutated weights is the reference.
	ref := tinyNet()
	refConv := ref.Layers[0].(*layers.ConvLayer)
	for i := range refConv.Weights {
		refConv.Weights[i] += 0.5
	}
	want := ref.Forward(dt, in)
	diff := false
	for i := range after.Output().Data {
		if math.Float64bits(after.Output().Data[i]) != math.Float64bits(want.Output().Data[i]) {
			t.Fatalf("invalidated cache: output[%d] = %v, want %v", i, after.Output().Data[i], want.Output().Data[i])
		}
		if after.Output().Data[i] != before.Data[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("weight mutation had no visible effect; test is vacuous")
	}
}
