// Package models builds the four networks of the paper's Table 2 —
// ConvNet, AlexNet, CaffeNet and NiN — as topology-faithful, reduced-width
// instances with deterministic synthetic weights (see DESIGN.md,
// "Substitutions"). The layer sequences match the paper exactly:
//
//	ConvNet:  3 CONV + 2 FC, max-pool, softmax, 10 outputs (CIFAR-10-like)
//	AlexNet:  5 CONV (LRN after conv1 & conv2) + 3 FC, softmax, 1000 outputs
//	CaffeNet: as AlexNet but with the pool/LRN order swapped in the first
//	          two blocks (the only difference the paper notes)
//	NiN:      12 CONV, no FC, no LRN, no softmax, 1000 outputs
package models

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/tensor"
)

// ImageNet-like instances use 24x24 inputs and 1000 classes; the
// CIFAR-10-like ConvNet uses 32x32 and 10 classes.
const (
	imageNetSize    = 24
	imageNetClasses = 1000
	cifarSize       = 32
	cifarClasses    = 10
)

// Names lists the four model names in Table 2 order.
var Names = []string{"ConvNet", "AlexNet", "CaffeNet", "NiN"}

// Dataset returns the synthetic dataset kind a named model consumes.
func Dataset(name string) dataset.Kind {
	if name == "ConvNet" {
		return dataset.CIFARLike
	}
	return dataset.ImageNetLike
}

// InputFor generates input image idx for the named model.
func InputFor(name string, idx int) *tensor.Tensor {
	if name == "ConvNet" {
		return dataset.Image(dataset.CIFARLike, cifarSize, idx)
	}
	return dataset.Image(dataset.ImageNetLike, imageNetSize, idx)
}

// Build constructs the named network with its deterministic synthetic
// weights. It panics on an unknown name (the set is closed, Table 2).
func Build(name string) *network.Network {
	switch name {
	case "ConvNet":
		return buildConvNet()
	case "AlexNet":
		return buildAlexNet(false)
	case "CaffeNet":
		return buildAlexNet(true)
	case "NiN":
		return buildNiN()
	}
	panic(fmt.Sprintf("models: unknown network %q", name))
}

// initializer seeds weights deterministically per network so every run of
// every campaign sees identical models.
type initializer struct {
	rng *rand.Rand
}

func newInitializer(netName string) *initializer {
	var seed int64 = 0x5117e
	for _, r := range netName {
		seed = seed*131 + int64(r)
	}
	return &initializer{rng: rand.New(rand.NewSource(seed))}
}

// conv fills a conv layer with He-scaled Gaussian weights times gain. The
// gain shapes the per-layer activation ranges so the profile behaves like
// Table 4 (large early ranges that shrink with depth for the LRN networks).
func (ini *initializer) conv(l *layers.ConvLayer, gain float64) *layers.ConvLayer {
	fanIn := float64(l.InC * l.KH * l.KW)
	std := gain * math.Sqrt(2/fanIn)
	for i := range l.Weights {
		l.Weights[i] = ini.rng.NormFloat64() * std
	}
	for i := range l.Bias {
		l.Bias[i] = (float64(float64(ini.rng.Float64())*2) - 1) * 0.02 * gain
	}
	return l
}

// fc fills a fully-connected layer the same way.
func (ini *initializer) fc(l *layers.FCLayer, gain float64) *layers.FCLayer {
	std := gain * math.Sqrt(2/float64(l.In))
	for i := range l.Weights {
		l.Weights[i] = ini.rng.NormFloat64() * std
	}
	for i := range l.Bias {
		l.Bias[i] = (float64(float64(ini.rng.Float64())*2) - 1) * 0.02 * gain
	}
	return l
}

func buildConvNet() *network.Network {
	ini := newInitializer("ConvNet")
	n := &network.Network{
		Name:    "ConvNet",
		InShape: tensor.Shape{C: 3, H: cifarSize, W: cifarSize},
		Classes: cifarClasses,
		Layers: []layers.Layer{
			ini.conv(layers.NewConv("conv1", 3, 6, 3, 1, 1), 1.0),
			layers.NewReLU("relu1"),
			layers.NewPool("pool1", 2, 2),
			ini.conv(layers.NewConv("conv2", 6, 8, 3, 1, 1), 1.1),
			layers.NewReLU("relu2"),
			layers.NewPool("pool2", 2, 2),
			ini.conv(layers.NewConv("conv3", 8, 12, 3, 1, 1), 1.2),
			layers.NewReLU("relu3"),
			layers.NewPool("pool3", 2, 2),
			ini.fc(layers.NewFC("fc4", 12*4*4, 48), 1.6),
			layers.NewReLU("relu4"),
			ini.fc(layers.NewFC("fc5", 48, cifarClasses), 2.2),
			layers.NewSoftmax("prob"),
		},
	}
	mustValidate(n)
	return n
}

// buildAlexNet builds AlexNet, or CaffeNet when caffeOrder is true. The
// paper notes the two differ only in the order of ReLU and sub-sampling
// around the LRN in the first two blocks.
func buildAlexNet(caffeOrder bool) *network.Network {
	name := "AlexNet"
	if caffeOrder {
		name = "CaffeNet"
	}
	ini := newInitializer(name)

	// Block 1 & 2 post-op order:
	//   AlexNet:  conv -> ReLU -> LRN -> pool
	//   CaffeNet: conv -> ReLU -> pool -> LRN
	block12 := func(i int, conv *layers.ConvLayer) []layers.Layer {
		relu := layers.NewReLU(fmt.Sprintf("relu%d", i))
		lrn := layers.NewLRN(fmt.Sprintf("norm%d", i))
		pool := layers.NewPool(fmt.Sprintf("pool%d", i), 2, 2)
		if caffeOrder {
			return []layers.Layer{conv, relu, pool, lrn}
		}
		return []layers.Layer{conv, relu, lrn, pool}
	}

	var ls []layers.Layer
	ls = append(ls, block12(1, ini.conv(layers.NewConv("conv1", 3, 10, 3, 1, 1), 1.0))...)
	ls = append(ls, block12(2, ini.conv(layers.NewConv("conv2", 10, 12, 3, 1, 1), 1.0))...)
	ls = append(ls,
		ini.conv(layers.NewConv("conv3", 12, 16, 3, 1, 1), 0.8),
		layers.NewReLU("relu3"),
		ini.conv(layers.NewConv("conv4", 16, 16, 3, 1, 1), 0.7),
		layers.NewReLU("relu4"),
		ini.conv(layers.NewConv("conv5", 16, 12, 3, 1, 1), 0.6),
		layers.NewReLU("relu5"),
		layers.NewPool("pool5", 2, 2),
		ini.fc(layers.NewFC("fc6", 12*3*3, 192), 0.6),
		layers.NewReLU("relu6"),
		ini.fc(layers.NewFC("fc7", 192, 128), 0.5),
		layers.NewReLU("relu7"),
		// The classifier gain sets the spread of the final scores: large
		// enough that the golden softmax is decisive (trained networks
		// are confident), keeping the Table 4 layer-8 range near the
		// paper's ±15.
		ini.fc(layers.NewFC("fc8", 128, imageNetClasses), 1.4),
		layers.NewSoftmax("prob"),
	)

	n := &network.Network{
		Name:    name,
		InShape: tensor.Shape{C: 3, H: imageNetSize, W: imageNetSize},
		Classes: imageNetClasses,
		Layers:  ls,
	}
	mustValidate(n)
	return n
}

func buildNiN() *network.Network {
	ini := newInitializer("NiN")
	// Four NiN blocks of conv + two 1x1 "cccp" convs; max pools between
	// blocks; a full-extent max pool reduces the final 1000-channel fmap
	// to the class vector. No FC, no LRN, no softmax (Table 2).
	n := &network.Network{
		Name:    "NiN",
		InShape: tensor.Shape{C: 3, H: imageNetSize, W: imageNetSize},
		Classes: imageNetClasses,
		Layers: []layers.Layer{
			ini.conv(layers.NewConv("conv1", 3, 12, 3, 1, 1), 1.1),
			layers.NewReLU("relu1"),
			ini.conv(layers.NewConv("cccp1", 12, 8, 1, 1, 0), 1.4),
			layers.NewReLU("relu_c1"),
			ini.conv(layers.NewConv("cccp2", 8, 8, 1, 1, 0), 1.4),
			layers.NewReLU("relu_c2"),
			layers.NewPool("pool1", 2, 2),

			ini.conv(layers.NewConv("conv2", 8, 16, 3, 1, 1), 1.2),
			layers.NewReLU("relu2"),
			ini.conv(layers.NewConv("cccp3", 16, 12, 1, 1, 0), 1.3),
			layers.NewReLU("relu_c3"),
			ini.conv(layers.NewConv("cccp4", 12, 12, 1, 1, 0), 1.3),
			layers.NewReLU("relu_c4"),
			layers.NewPool("pool2", 2, 2),

			ini.conv(layers.NewConv("conv3", 12, 16, 3, 1, 1), 1.1),
			layers.NewReLU("relu3"),
			ini.conv(layers.NewConv("cccp5", 16, 16, 1, 1, 0), 1.1),
			layers.NewReLU("relu_c5"),
			ini.conv(layers.NewConv("cccp6", 16, 16, 1, 1, 0), 1.0),
			layers.NewReLU("relu_c6"),
			layers.NewPool("pool3", 2, 2),

			ini.conv(layers.NewConv("conv4", 16, 16, 3, 1, 1), 0.5),
			layers.NewReLU("relu4"),
			ini.conv(layers.NewConv("cccp7", 16, 16, 1, 1, 0), 0.4),
			layers.NewReLU("relu_c7"),
			ini.conv(layers.NewConv("cccp8", 16, imageNetClasses, 1, 1, 0), 0.3),
			layers.NewReLU("relu_c8"),
			layers.NewPool("gpool", 3, 3), // full-extent pool over the 3x3 fmap
		},
	}
	mustValidate(n)
	return n
}

func mustValidate(n *network.Network) {
	if err := n.Validate(); err != nil {
		panic(err)
	}
}
