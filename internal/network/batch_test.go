package network_test

import (
	"math"
	"testing"

	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/numeric"
)

func TestWeightsHashStability(t *testing.T) {
	a, b := models.Build("AlexNet"), models.Build("AlexNet")
	if a.WeightsHash() != b.WeightsHash() {
		t.Fatal("two identical builds hash differently")
	}
	if models.Build("AlexNet").WeightsHash() == models.Build("CaffeNet").WeightsHash() {
		t.Fatal("different networks share a hash")
	}
	h0 := b.WeightsHash()
	for _, l := range b.Layers {
		if conv, ok := l.(*layers.ConvLayer); ok {
			conv.Weights[0] += 1e-9
			break
		}
	}
	if b.WeightsHash() == h0 {
		t.Fatal("weight mutation did not change the hash")
	}
}

func TestWeightsHashKeysGoldenEquivalence(t *testing.T) {
	// The golden-cache contract: equal hash => bit-identical golden runs.
	a, b := models.Build("NiN"), models.Build("NiN")
	if a.WeightsHash() != b.WeightsHash() {
		t.Fatal("deterministic builds must hash equal")
	}
	in := models.InputFor("NiN", 5)
	ea, eb := a.Forward(numeric.Float16, in), b.Forward(numeric.Float16, in)
	for li := range ea.Acts {
		for e := range ea.Acts[li].Data {
			if math.Float64bits(ea.Acts[li].Data[e]) != math.Float64bits(eb.Acts[li].Data[e]) {
				t.Fatalf("equal-hash networks diverged at layer %d elem %d", li, e)
			}
		}
	}
}
