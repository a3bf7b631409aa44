package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// gradNet exercises every trainable and non-trainable layer kind.
func gradNet(seed int64) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	conv := layers.NewConv("conv1", 2, 3, 3, 1, 1)
	for i := range conv.Weights {
		conv.Weights[i] = rng.NormFloat64() * 0.4
	}
	for i := range conv.Bias {
		conv.Bias[i] = rng.NormFloat64() * 0.1
	}
	fc := layers.NewFC("fc2", 3*3*3, 4)
	for i := range fc.Weights {
		fc.Weights[i] = rng.NormFloat64() * 0.3
	}
	for i := range fc.Bias {
		fc.Bias[i] = rng.NormFloat64() * 0.1
	}
	n := &network.Network{
		Name:    "grad",
		InShape: tensor.Shape{C: 2, H: 6, W: 6},
		Classes: 4,
		Layers: []layers.Layer{
			conv,
			layers.NewReLU("relu1"),
			layers.NewLRN("norm1"),
			layers.NewPool("pool1", 2, 2),
			fc,
			layers.NewSoftmax("prob"),
		},
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

func gradInput(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(tensor.Shape{C: 2, H: 6, W: 6})
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	return in
}

// TestGradientCheck compares every analytic weight/bias gradient against
// central finite differences — the definitive correctness test for the
// whole backward chain (conv, ReLU, LRN, max-pool, FC, softmax+CE).
func TestGradientCheck(t *testing.T) {
	net := gradNet(1)
	in := gradInput(2)
	const label = 2
	const eps = 1e-6

	tr := New(net, 0, 0)
	g := newGradients(net)
	exec := net.Forward(numeric.Double, in)
	tr.backward(exec, label, g)

	lossAt := func() float64 {
		return LossT(net, net.Forward(numeric.Double, in), label, 1)
	}
	check := func(name string, params []float64, grads []float64) {
		// Sample a subset of parameters to keep the test fast but
		// deterministic.
		rng := rand.New(rand.NewSource(3))
		for k := 0; k < 25 && k < len(params); k++ {
			j := rng.Intn(len(params))
			orig := params[j]
			params[j] = orig + eps
			lp := lossAt()
			params[j] = orig - eps
			lm := lossAt()
			params[j] = orig
			num := (lp - lm) / (2 * eps)
			ana := grads[j]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > 1e-4 {
				t.Errorf("%s[%d]: analytic %.8g vs numeric %.8g", name, j, ana, num)
			}
		}
	}

	conv := net.Layers[0].(*layers.ConvLayer)
	fc := net.Layers[4].(*layers.FCLayer)
	check("conv.W", conv.Weights, g.w[0])
	check("conv.B", conv.Bias, g.b[0])
	check("fc.W", fc.Weights, g.w[4])
	check("fc.B", fc.Bias, g.b[4])
}

// TestGradientCheckNoSoftmax exercises the loss-side softmax fold used for
// NiN-style networks.
func TestGradientCheckNoSoftmax(t *testing.T) {
	net := gradNet(5)
	net.Layers = net.Layers[:len(net.Layers)-1] // drop softmax
	in := gradInput(6)
	const label = 1
	const eps = 1e-6

	tr := New(net, 0, 0)
	g := newGradients(net)
	tr.backward(net.Forward(numeric.Double, in), label, g)

	fc := net.Layers[4].(*layers.FCLayer)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 20; k++ {
		j := rng.Intn(len(fc.Weights))
		orig := fc.Weights[j]
		fc.Weights[j] = orig + eps
		lp := LossT(net, net.Forward(numeric.Double, in), label, 1)
		fc.Weights[j] = orig - eps
		lm := LossT(net, net.Forward(numeric.Double, in), label, 1)
		fc.Weights[j] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-g.w[4][j]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Errorf("fc.W[%d]: analytic %.8g vs numeric %.8g", j, g.w[4][j], num)
		}
	}
}

func TestLossDecreasesUnderSGD(t *testing.T) {
	net := gradNet(11)
	samples := makeSamples(12, 4, 100)
	tr := New(net, 0.05, 0.9)
	first, _ := tr.Step(samples[:8])
	var last float64
	for i := 0; i < 40; i++ {
		last, _ = tr.Step(samples[:8])
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

// makeSamples builds labeled samples for a C-channel 6x6 toy task by
// cropping the synthetic labeled dataset.
func makeSamples(n, classes int, seed int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		img, label := dataset.Labeled(dataset.CIFARLike, 6, classes, seed+i)
		in := tensor.New(tensor.Shape{C: 2, H: 6, W: 6})
		copy(in.Data, img.Data[:2*36])
		out[i] = Sample{Input: in, Label: label}
	}
	return out
}

func TestTrainingBeatsChance(t *testing.T) {
	// A small conv net must learn the 3-class synthetic task well above
	// the 33% chance level.
	rngNet := gradNet(21)
	rngNet.Layers[4] = layers.NewFC("fc2", 27, 4)
	fc := rngNet.Layers[4].(*layers.FCLayer)
	rng := rand.New(rand.NewSource(23))
	for i := range fc.Weights {
		fc.Weights[i] = rng.NormFloat64() * 0.3
	}
	train := makeSamples(60, 3, 0)
	tr := New(rngNet, 0.05, 0.9)
	tr.Train(train, 10, 120, 99)
	acc := Evaluate(rngNet, train)
	if acc < 0.6 {
		t.Errorf("training accuracy %.2f, want >= 0.6 (chance is 0.33)", acc)
	}
}

func TestEvaluate(t *testing.T) {
	net := gradNet(31)
	samples := makeSamples(10, 4, 50)
	acc := Evaluate(net, samples)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %v out of range", acc)
	}
	if Evaluate(net, nil) != 0 {
		t.Error("empty evaluation should be 0")
	}
}

func TestStepPanicsOnEmptyBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty batch did not panic")
		}
	}()
	New(gradNet(41), 0.01, 0).Step(nil)
}

func TestTrainPanicsOnBadBatchSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad batch size did not panic")
		}
	}()
	New(gradNet(43), 0.01, 0).Train(makeSamples(4, 2, 0), 8, 1, 1)
}

func TestLossFiniteAndPositive(t *testing.T) {
	net := gradNet(51)
	exec := net.Forward(numeric.Double, gradInput(52))
	for label := 0; label < 4; label++ {
		l := LossT(net, exec, label, 1)
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			t.Errorf("loss(label=%d) = %v", label, l)
		}
	}
}
