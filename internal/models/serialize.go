package models

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/layers"
	"repro/internal/network"
)

// weightFile is the on-disk format of a trained model: per-layer weight
// and bias vectors keyed by layer name, mirroring how Caffe model files
// pair with a network prototype (§4.1's pre-trained BVLC models).
type weightFile struct {
	Network string
	Weights map[string][]float64
	Biases  map[string][]float64
}

// SaveWeights writes a network's trainable parameters to path.
func SaveWeights(net *network.Network, path string) error {
	wf := weightFile{
		Network: net.Name,
		Weights: map[string][]float64{},
		Biases:  map[string][]float64{},
	}
	for _, l := range net.Layers {
		switch tl := l.(type) {
		case *layers.ConvLayer:
			wf.Weights[tl.Name()] = tl.Weights
			wf.Biases[tl.Name()] = tl.Bias
		case *layers.FCLayer:
			wf.Weights[tl.Name()] = tl.Weights
			wf.Biases[tl.Name()] = tl.Bias
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("models: save %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("models: save %s: %w", path, err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(wf); err != nil {
		return fmt.Errorf("models: encode %s: %w", path, err)
	}
	return nil
}

// LoadWeights replaces a network's trainable parameters with the contents
// of path. Layer names and vector lengths must match the network exactly.
func LoadWeights(net *network.Network, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("models: load %s: %w", path, err)
	}
	defer f.Close()
	var wf weightFile
	if err := gob.NewDecoder(f).Decode(&wf); err != nil {
		return fmt.Errorf("models: decode %s: %w", path, err)
	}
	for _, l := range net.Layers {
		var w, b []float64
		switch tl := l.(type) {
		case *layers.ConvLayer:
			w, b = tl.Weights, tl.Bias
		case *layers.FCLayer:
			w, b = tl.Weights, tl.Bias
		default:
			continue
		}
		sw, ok := wf.Weights[l.Name()]
		if !ok {
			return fmt.Errorf("models: %s: no weights for layer %s", path, l.Name())
		}
		sb := wf.Biases[l.Name()]
		if len(sw) != len(w) || len(sb) != len(b) {
			return fmt.Errorf("models: %s: layer %s size mismatch (%d/%d weights, %d/%d biases)",
				path, l.Name(), len(sw), len(w), len(sb), len(b))
		}
		copy(w, sw)
		copy(b, sb)
	}
	return nil
}

// LoadPretrained builds the named network and loads its weight file from
// dir (as written by cmd/pretrain). A missing file is an error naming the
// path, never a silent fall back to the synthetic weights: processes that
// see different directory contents would otherwise run different networks
// under one spec.
func LoadPretrained(name, dir string) (*network.Network, error) {
	net := Build(name)
	if err := LoadWeights(net, filepath.Join(dir, name+".weights")); err != nil {
		return nil, err
	}
	return net, nil
}
