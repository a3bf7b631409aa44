package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/models"
)

// TestSpecEvalValidation covers the Eval field's normalization rules: only
// the known modes pass, site modes demand the uniform selector, and the
// shard count of a site-draw campaign clamps to its draw-unit count rather
// than its injection count.
func TestSpecEvalValidation(t *testing.T) {
	bad := []Spec{
		{N: 10, Eval: "site"},
		{N: 10, Eval: "bitplane"},
		{N: 10, Eval: "site-bitplane", Select: "perbit", Param: 3},
		{N: 10, Eval: "site-scalar", Select: "perlayer"},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Fatalf("bad spec %d passed validation: %+v", i, s)
		}
	}

	s := Spec{N: 40, DType: "16b_rb10", Shards: 64, Eval: "site-scalar"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if want := engine.DrawUnits(40, 16); s.Shards != want {
		t.Fatalf("site-mode shards clamped to %d, want %d draw units", s.Shards, want)
	}
	b := Spec{N: 64, Surface: "buffer", Buffer: "psum", Eval: "site-bitplane"}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
}

// TestSiteEvalSoloModesBitIdentical runs the same spec through both
// site-draw modes end-to-end at the campaign layer: the bit-plane fast
// path must reproduce the scalar oracle's report exactly (PreMasked is the
// one permitted difference — the scalar mode simulates what the pre-screen
// proves).
func TestSiteEvalSoloModesBitIdentical(t *testing.T) {
	for _, dtype := range []string{"FLOAT16", "16b_rb10"} {
		for _, sampling := range []string{"uniform", "stratified"} {
			spec := testSpec(dtype)
			spec.Sampling = sampling
			spec.Eval = "site-scalar"
			want, err := solo(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			spec.Eval = "site-bitplane"
			got, err := solo(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, dtype+"/"+sampling, got, want)
			if want.PreMasked != 0 {
				t.Errorf("%s/%s: scalar mode pre-masked %d", dtype, sampling, want.PreMasked)
			}
		}
	}
}

// TestBufferWeightsDirCampaign pins the weights plumbing of buffer
// campaigns: a spec with WeightsDir must validate, build its per-shard
// networks from the saved weights, and run end-to-end.
func TestBufferWeightsDirCampaign(t *testing.T) {
	dir := t.TempDir()
	src := models.Build("ConvNet")
	src.Layers[0].(*layers.ConvLayer).Weights[0] = -9
	if err := models.SaveWeights(src, filepath.Join(dir, "ConvNet.weights")); err != nil {
		t.Fatal(err)
	}

	spec := bufSpec("uniform")
	spec.Buffer = "psum"
	spec.WeightsDir = dir
	if err := spec.Normalize(); err != nil {
		t.Fatalf("buffer spec with weights dir rejected: %v", err)
	}
	ec, b, err := spec.NewBufferCampaign()
	if err != nil {
		t.Fatal(err)
	}
	net := ec.Build()
	if got := net.Layers[0].(*layers.ConvLayer).Weights[0]; got != -9 {
		t.Fatalf("Build() ignored WeightsDir: weight %v, want -9", got)
	}
	r := ec.Run(b, spec.BufferOptions())
	if r.Counts.Trials != spec.N {
		t.Fatalf("weights-dir buffer campaign ran %d injections, want %d", r.Counts.Trials, spec.N)
	}

	// A corrupt weights file must fail eagerly at campaign construction.
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "ConvNet.weights"), []byte("not weights"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec.WeightsDir = badDir
	if _, _, err := spec.NewBufferCampaign(); err == nil {
		t.Fatal("corrupt weights dir did not fail campaign construction")
	}
}
