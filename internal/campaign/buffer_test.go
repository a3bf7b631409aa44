package campaign

import "testing"

func bufSpec(sampling string) Spec {
	return Spec{
		Net: "ConvNet", DType: "16b_rb10", N: 60, Inputs: 2, Seed: 11,
		Shards: 3, Surface: "buffer", Buffer: "global", Sampling: sampling,
	}
}

// bufferRefused are the specs the buffer-surface and prior-path rules
// refuse.
var bufferRefused = []Spec{
	{N: 10, Surface: "cache"},
	{N: 10, Surface: "buffer", Buffer: "l2"},
	{N: 10, Surface: "buffer", Select: "perbit", Param: 3},
	{N: 10, Surface: "buffer", TrackValues: 5},
	{N: 10, Surface: "buffer", TrackSpread: true},
	{N: 10, Surface: "datapath", Buffer: "global"},
	{N: 10, PriorPath: "x.json"}, // prior on a uniform campaign
}

// TestSpecNormalizeBuffer covers the buffer-surface and prior-path
// validation rules.
func TestSpecNormalizeBuffer(t *testing.T) {
	for i, s := range bufferRefused {
		if err := s.Normalize(); err == nil {
			t.Fatalf("bad spec %d passed validation: %+v", i, s)
		}
	}

	s := Spec{N: 10, Surface: "buffer"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Buffer != "global" || s.Surface != "buffer" || s.PriorAllocated() {
		t.Fatalf("buffer defaults off: %+v", s)
	}
	d := Spec{N: 10}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.Surface != "datapath" {
		t.Fatalf("datapath default off: %+v", d)
	}
}
