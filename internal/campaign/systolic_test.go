package campaign

import (
	"testing"

	"repro/internal/systolic"
)

func sysSpec(sampling string) Spec {
	return Spec{
		Net: "ConvNet", DType: "16b_rb10", N: 60, Inputs: 2, Seed: 11,
		Shards: 3, Surface: "systolic", Sampling: sampling,
	}
}

// systolicRefused are the specs the systolic-surface, MBU and dataflow
// rules refuse.
var systolicRefused = []Spec{
	{N: 10, Surface: "systolic", Buffer: "global"},
	{N: 10, Surface: "systolic", Select: "perbit", Param: 3},
	{N: 10, Surface: "systolic", TrackValues: 5},
	{N: 10, Surface: "systolic", TrackSpread: true},
	{N: 10, Surface: "systolic", MBU: -1},
	{N: 10, Surface: "systolic", DType: "16b_rb10", MBU: 17},
	{N: 10, Surface: "systolic", MBU: 3, Eval: "site-scalar"},
	{N: 10, Surface: "systolic", MBU: 3, Eval: "site-bitplane"},
	{N: 10, Surface: "datapath", MBU: -1},
	{N: 10, Surface: "datapath", DType: "16b_rb10", MBU: 17},
	{N: 10, Surface: "datapath", MBU: 3, Eval: "site-bitplane"},
	{N: 10, Surface: "datapath", MBU: 3, Select: "perbit", Param: 3},
	{N: 10, Surface: "buffer", MBU: 3, Eval: "site-scalar"},
	{N: 10, Surface: "systolic", Dataflow: "rowstat"},
	{N: 10, Surface: "systolic", Dataflow: "weight-stationary"},
	{N: 10, Surface: "datapath", Dataflow: "output"},
	{N: 10, Surface: "buffer", Dataflow: "weight"},
}

// TestSpecNormalizeSystolic covers the systolic-surface validation rules
// plus the cross-surface MBU and dataflow matrix: MBU is now valid on
// every surface (bounded by the word and the per-bit evaluation mode),
// while the dataflow axis stays systolic-only.
func TestSpecNormalizeSystolic(t *testing.T) {
	for i, s := range systolicRefused {
		if err := s.Normalize(); err == nil {
			t.Fatalf("bad spec %d passed validation: %+v", i, s)
		}
	}

	s := Spec{N: 10, Surface: "systolic", MBU: 3}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Surface != "systolic" || s.MBU != 3 {
		t.Fatalf("systolic defaults off: %+v", s)
	}
	opt := s.SystolicOptions()
	if opt.MBU != 3 || opt.N != 10 {
		t.Fatalf("systolic options off: %+v", opt)
	}

	// MBU accepted on the datapath and buffer surfaces, flowing into the
	// per-surface options.
	d := Spec{N: 10, Surface: "datapath", MBU: 3}
	if err := d.Normalize(); err != nil {
		t.Fatalf("datapath MBU spec rejected: %v", err)
	}
	if got := d.Options().MBU; got != 3 {
		t.Fatalf("datapath options MBU = %d, want 3", got)
	}
	b := Spec{N: 10, Surface: "buffer", MBU: 3}
	if err := b.Normalize(); err != nil {
		t.Fatalf("buffer MBU spec rejected: %v", err)
	}
	if got := b.BufferOptions().MBU; got != 3 {
		t.Fatalf("buffer options MBU = %d, want 3", got)
	}

	// Every dataflow name parses on the systolic surface and reaches the
	// campaign's Flow.
	for _, name := range []string{"", "weight", "output", "input"} {
		f := Spec{N: 10, Surface: "systolic", Dataflow: name}
		if err := f.Normalize(); err != nil {
			t.Fatalf("dataflow %q rejected: %v", name, err)
		}
		sc, err := f.NewSystolicCampaign()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := systolic.ParseDataflow(name)
		if sc.Flow != want {
			t.Fatalf("dataflow %q built campaign flow %v, want %v", name, sc.Flow, want)
		}
	}
}
