// Package train implements backpropagation and SGD for the simulator's
// networks. The paper's substrate (Tiny-CNN) is a trainable framework with
// pre-trained Caffe weights; this package closes that gap for the
// reproduction — networks can be trained on the synthetic labeled task
// (dataset.Labeled) so fault-injection campaigns run against genuinely
// trained classifiers instead of range-calibrated random weights.
//
// Training always runs in float64 (the accelerator formats are an
// inference-time choice); gradients are exact for every layer kind,
// including the LRN cross-channel normalization.
package train

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// Sample is one labeled training example.
type Sample struct {
	Input *tensor.Tensor
	Label int
}

// Trainer holds the optimization state for one network.
type Trainer struct {
	Net *network.Network
	// LR is the SGD learning rate; Momentum the classical momentum
	// coefficient (0 disables it).
	LR, Momentum float64
	// Temperature divides raw scores before the loss-side softmax of
	// networks without their own softmax layer (NiN), keeping the
	// cross-entropy from saturating when scores span hundreds. 1 when
	// zero-valued. It has no effect on networks ending in softmax.
	Temperature float64
	// velocity per trainable layer: [layer] -> (weight velocity, bias
	// velocity).
	velW, velB map[int][]float64
}

// New creates a trainer with the given hyperparameters.
func New(net *network.Network, lr, momentum float64) *Trainer {
	return &Trainer{
		Net: net, LR: lr, Momentum: momentum,
		velW: map[int][]float64{}, velB: map[int][]float64{},
	}
}

// LossT computes the cross-entropy loss of a forward execution against a
// label. Networks ending in softmax use their own confidences; networks
// without one (NiN) get a softmax at the given temperature applied inside
// the loss.
func LossT(net *network.Network, exec *network.Execution, label int, temperature float64) float64 {
	p := probabilities(net, exec, temperature)
	return -math.Log(math.Max(p[label], 1e-300))
}

// probabilities returns the class distribution of an execution.
func probabilities(net *network.Network, exec *network.Execution, temperature float64) []float64 {
	out := exec.Output().Data
	if net.HasSoftmax() {
		return out
	}
	if temperature <= 0 {
		temperature = 1
	}
	z := make([]float64, len(out))
	for i, v := range out {
		z[i] = v / temperature
	}
	return softmax(z)
}

func softmax(z []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range z {
		if v > max {
			max = v
		}
	}
	p := make([]float64, len(z))
	var sum float64
	for i, v := range z {
		p[i] = math.Exp(v - max)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// Step runs one SGD minibatch: forward, backward, parameter update.
// It returns the mean loss and the batch accuracy.
func (t *Trainer) Step(batch []Sample) (loss, accuracy float64) {
	if len(batch) == 0 {
		panic("train: empty batch")
	}
	grads := newGradients(t.Net)
	correct := 0
	for _, s := range batch {
		exec := t.Net.Forward(numeric.Double, s.Input)
		loss += LossT(t.Net, exec, s.Label, t.Temperature)
		if exec.Top1() == s.Label {
			correct++
		}
		t.backward(exec, s.Label, grads)
	}
	loss /= float64(len(batch))
	accuracy = float64(correct) / float64(len(batch))
	t.apply(grads, float64(len(batch)))
	return loss, accuracy
}

// gradients accumulates dL/dW and dL/dB per trainable layer.
type gradients struct {
	w, b map[int][]float64
}

func newGradients(net *network.Network) *gradients {
	g := &gradients{w: map[int][]float64{}, b: map[int][]float64{}}
	for i, l := range net.Layers {
		switch tl := l.(type) {
		case *layers.ConvLayer:
			g.w[i] = make([]float64, len(tl.Weights))
			g.b[i] = make([]float64, len(tl.Bias))
		case *layers.FCLayer:
			g.w[i] = make([]float64, len(tl.Weights))
			g.b[i] = make([]float64, len(tl.Bias))
		}
	}
	return g
}

// backward propagates dL/dActs from the loss to every trainable layer,
// accumulating parameter gradients.
func (t *Trainer) backward(exec *network.Execution, label int, g *gradients) {
	net := t.Net
	nL := len(net.Layers)

	// Seed: d(cross-entropy with softmax)/d(pre-softmax scores) = p - y.
	// If the network ends in softmax, that layer is folded into the loss;
	// otherwise the fold happens at the raw output.
	temp := t.Temperature
	if temp <= 0 || net.HasSoftmax() {
		temp = 1
	}
	p := probabilities(net, exec, temp)
	grad := make([]float64, len(p))
	for i := range p {
		grad[i] = p[i] / temp
	}
	grad[label] -= 1 / temp

	start := nL - 1
	if net.HasSoftmax() {
		start = nL - 2 // softmax consumed by the loss gradient
	}

	for i := start; i >= 0; i-- {
		in := exec.Input
		if i > 0 {
			in = exec.Acts[i-1]
		}
		out := exec.Acts[i]
		switch l := net.Layers[i].(type) {
		case *layers.FCLayer:
			grad = backwardFC(l, in, grad, g.w[i], g.b[i])
		case *layers.ConvLayer:
			grad = backwardConv(l, in, grad, g.w[i], g.b[i])
		case *layers.ReLULayer:
			grad = backwardReLU(out, grad)
		case *layers.PoolLayer:
			grad = backwardPool(l, in, out, grad)
		case *layers.LRNLayer:
			grad = backwardLRN(l, in, grad)
		case *layers.SoftmaxLayer:
			panic("train: softmax may only appear as the final layer")
		default:
			panic(fmt.Sprintf("train: no backward for layer %T", l))
		}
	}
}

// apply updates parameters with momentum SGD.
func (t *Trainer) apply(g *gradients, batchSize float64) {
	scale := t.LR / batchSize
	for i, l := range t.Net.Layers {
		var w, b []float64
		switch tl := l.(type) {
		case *layers.ConvLayer:
			w, b = tl.Weights, tl.Bias
		case *layers.FCLayer:
			w, b = tl.Weights, tl.Bias
		default:
			continue
		}
		vw := t.velW[i]
		if vw == nil {
			vw = make([]float64, len(w))
			t.velW[i] = vw
		}
		vb := t.velB[i]
		if vb == nil {
			vb = make([]float64, len(b))
			t.velB[i] = vb
		}
		for j := range w {
			vw[j] = float64(t.Momentum*vw[j]) - float64(scale*g.w[i][j])
			w[j] += vw[j]
		}
		for j := range b {
			vb[j] = float64(t.Momentum*vb[j]) - float64(scale*g.b[i][j])
			b[j] += vb[j]
		}
	}
	// The parameters just changed under any attached quantized-weight
	// cache; drop it so later campaigns re-quantize the new values.
	t.Net.InvalidateQuantCache()
}

// Train runs steps minibatches drawn deterministically from the sample
// generator and returns the final step's loss and accuracy.
func (t *Trainer) Train(samples []Sample, batchSize, steps int, seed int64) (loss, accuracy float64) {
	if batchSize <= 0 || batchSize > len(samples) {
		panic("train: bad batch size")
	}
	rng := rand.New(rand.NewSource(seed))
	batch := make([]Sample, batchSize)
	for s := 0; s < steps; s++ {
		for j := range batch {
			batch[j] = samples[rng.Intn(len(samples))]
		}
		loss, accuracy = t.Step(batch)
	}
	return loss, accuracy
}

// Evaluate returns the classification accuracy over a sample set.
func Evaluate(net *network.Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if net.Forward(numeric.Double, s.Input).Top1() == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
