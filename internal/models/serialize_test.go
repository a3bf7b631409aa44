package models

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ConvNet.weights")
	a := Build("ConvNet")
	// Perturb so the file differs from a fresh build.
	conv := a.Layers[0].(*layers.ConvLayer)
	conv.Weights[0] = 42.5
	if err := SaveWeights(a, path); err != nil {
		t.Fatal(err)
	}
	b := Build("ConvNet")
	if err := LoadWeights(b, path); err != nil {
		t.Fatal(err)
	}
	if got := b.Layers[0].(*layers.ConvLayer).Weights[0]; got != 42.5 {
		t.Errorf("loaded weight = %v, want 42.5", got)
	}
	// Outputs must now be bit-identical.
	in := InputFor("ConvNet", 0)
	fa, fb := a.Forward(numeric.Double, in), b.Forward(numeric.Double, in)
	for i := range fa.Output().Data {
		if fa.Output().Data[i] != fb.Output().Data[i] {
			t.Fatal("round-tripped network diverges")
		}
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.weights")
	if err := SaveWeights(Build("ConvNet"), path); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(Build("AlexNet"), path); err == nil {
		t.Error("loading ConvNet weights into AlexNet did not fail")
	}
}

func TestLoadWeightsMissingFile(t *testing.T) {
	if err := LoadWeights(Build("ConvNet"), filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file did not fail")
	}
}

// TestLoadPretrainedFallback: a directory without the network's file is an
// error naming the missing path, not the synthetic weights.
func TestLoadPretrainedFallback(t *testing.T) {
	dir := t.TempDir()
	net, err := LoadPretrained("ConvNet", dir)
	if err == nil {
		t.Fatal("an empty weights dir loaded a network")
	}
	if want := filepath.Join(dir, "ConvNet.weights"); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if net != nil {
		t.Error("a failed load returned a network")
	}
}

func TestLoadPretrainedReadsFile(t *testing.T) {
	dir := t.TempDir()
	src := Build("ConvNet")
	src.Layers[0].(*layers.ConvLayer).Weights[0] = -9
	if err := SaveWeights(src, filepath.Join(dir, "ConvNet.weights")); err != nil {
		t.Fatal(err)
	}
	net, err := LoadPretrained("ConvNet", dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Layers[0].(*layers.ConvLayer).Weights[0]; got != -9 {
		t.Errorf("pretrained weight = %v, want -9", got)
	}
}
