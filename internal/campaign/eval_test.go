package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/models"
)

// evalRefused are the specs the Eval rules refuse.
var evalRefused = []Spec{
	{N: 10, Eval: "site"},
	{N: 10, Eval: "bitplane"},
	{N: 10, Eval: "site-bitplane", Select: "perbit", Param: 3},
	{N: 10, Eval: "site-scalar", Select: "perlayer"},
}

// TestSpecEvalValidation covers the Eval field's normalization rules: only
// the known modes pass, site modes demand the uniform selector, and the
// shard count of a site-draw campaign clamps to its draw-unit count rather
// than its injection count.
func TestSpecEvalValidation(t *testing.T) {
	for i, s := range evalRefused {
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

// unboundedRefused are specs past the input or shard bound; atBound sit on
// it.
var (
	unboundedRefused = []Spec{
		{N: 1, Inputs: 2_000_000_000},
		{N: 40, Inputs: 41},
		{N: 2_000_000_000, Shards: 2_000_000_000},
		{N: 1 << 20, Shards: maxShards + 1},
	}
	atBound = []Spec{
		{N: 40, Inputs: 40},
		{N: 1 << 20, Shards: maxShards},
	}
)

// TestNormalizeRefusesUnboundedSpec: the two spec fields that size
// allocations before any injection runs are bounded at Normalize — a spec
// past either bound used to be journaled and then kill every worker that
// leased it (one golden per input) or the plane itself (one ledger entry
// per shard, inside Submit).
func TestNormalizeRefusesUnboundedSpec(t *testing.T) {
	for _, s := range unboundedRefused {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %+v normalized to %d inputs, %d shards, want a refusal", s, s.Inputs, s.Shards)
		}
	}
	for _, s := range atBound {
		if err := s.Normalize(); err != nil {
			t.Errorf("spec at the bound refused: %v", err)
		}
	}
}

// TestBufferWeightsDirCampaign pins the weights plumbing of buffer
// campaigns: a spec with WeightsDir must validate, build its one network
// from the saved weights, and run end-to-end — on that network, whatever
// happens to the directory once the campaign is prepared.
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
	if got := ec.Net.Layers[0].(*layers.ConvLayer).Weights[0]; got != -9 {
		t.Fatalf("campaign network ignored WeightsDir: weight %v, want -9", got)
	}
	r := ec.Run(b, spec.BufferOptions())
	if r.Counts.Trials != spec.N {
		t.Fatalf("weights-dir buffer campaign ran %d injections, want %d", r.Counts.Trials, spec.N)
	}

	// The directory is read once: with the file overwritten by all-zero
	// weights, the prepared campaign's slots still run the network it
	// loaded and report exactly what they reported before the edit.
	for _, l := range src.Layers {
		switch l := l.(type) {
		case *layers.ConvLayer:
			clear(l.Weights)
		case *layers.FCLayer:
			clear(l.Weights)
		}
	}
	if err := models.SaveWeights(src, filepath.Join(dir, "ConvNet.weights")); err != nil {
		t.Fatal(err)
	}
	if again := ec.Run(b, spec.BufferOptions()); !reflect.DeepEqual(again, r) {
		t.Fatalf("weights file edited mid-campaign changed the report:\n got %+v\nwant %+v", again, r)
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
