package main

import (
	"fmt"
	"slices"

	"repro/internal/campaign"
)

// cell is one distinct campaign of a workload: a name for messages and
// pins, and the spec the program under test receives.
type cell struct {
	Name string
	Spec campaign.Spec
}

// workload describes one benchmark workload. A workload is a fixed cycle
// of distinct cells; the timed phase runs whole cycles (rounds) until the
// requested duration has passed, so every run measures the same mix and
// only the number of repetitions follows the clock.
type workload struct {
	Name string
	Why  string
	// Cells is the cycle, in submission order.
	Cells []cell
	// PerRound is how many campaigns one round submits (the cycle
	// repeated or truncated to this length).
	PerRound int
}

var workloadNames = []string{"solo-small", "solo-deep", "fleet-mixed", "fleet-ingest"}

var workloadWhy = map[string]string{
	"solo-small":   "13-layer ConvNet, every evaluation path: per-injection fixed cost (site draw, early exit, pre-screen, tally, merge, cold golden) dominates",
	"solo-deep":    "ImageNet-class nets: chain replay, sparse-to-dense propagation and the golden forward dominate, per-injection bookkeeping is negligible",
	"fleet-mixed":  "real plane over loopback TCP, one 2-proc worker, 4 closed-loop tenants, all three surfaces: everything between submit and merged report is on the clock",
	"fleet-ingest": "same plane used write-heavy: precomputed shard reports pushed over 2 connections, so JSON decode, ledger accept, group commit and compaction dominate",
}

// scale holds the fixed sizes of one benchmark scale. quick is roughly a
// twentieth of full and exists for bench_test.go.
type scale struct {
	Name        string
	SmallN      int // solo-small injections per campaign
	DeepN       int // solo-deep injections per campaign
	MixedDiv    int // fleet-mixed divides its per-cell N by this
	IngestN     int // fleet-ingest injections per campaign
	IngestSh    int // fleet-ingest shards per campaign
	IngestRound int // fleet-ingest campaigns per round
	IngestSpecs int // fleet-ingest distinct specs
	ProbeDiv    int // probes divide their fixed counts by this
}

var (
	fullScale  = scale{Name: "full", SmallN: 5000, DeepN: 700, MixedDiv: 1, IngestN: 256, IngestSh: 64, IngestRound: 100, IngestSpecs: 16, ProbeDiv: 1}
	quickScale = scale{Name: "quick", SmallN: 250, DeepN: 35, MixedDiv: 20, IngestN: 32, IngestSh: 8, IngestRound: 8, IngestSpecs: 4, ProbeDiv: 20}
)

// specSeed derives the campaign seed of cell i of workload w from the
// benchmark seed (splitmix64 finalizer, kept positive). The program under
// test never sees the benchmark seed, only the specs made from it.
func specSeed(seed int64, w, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(w)<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// buildWorkload returns the named workload with every spec normalized and
// seeded from seed.
func buildWorkload(name string, seed int64, sc scale) (*workload, error) {
	w := &workload{Name: name, Why: workloadWhy[name]}
	add := func(cellName string, s campaign.Spec) {
		w.Cells = append(w.Cells, cell{Name: cellName, Spec: s})
	}
	switch name {
	case "solo-small":
		base := campaign.Spec{Net: "ConvNet", N: sc.SmallN, Inputs: 2, Shards: 8}
		for _, dt := range []string{"DOUBLE", "FLOAT", "FLOAT16", "32b_rb26", "32b_rb10", "16b_rb10"} {
			s := base
			s.DType = dt
			add("ConvNet/"+dt+"/perbit", s)
		}
		for _, dt := range []string{"16b_rb10", "32b_rb10"} {
			s := base
			s.DType, s.Sampling = dt, "stratified"
			add("ConvNet/"+dt+"/stratified", s)
		}
		s := base
		s.DType, s.Eval = "DOUBLE", "site-bitplane"
		add("ConvNet/DOUBLE/site-bitplane", s)
		s = base
		s.DType, s.Eval = "FLOAT16", "site-scalar"
		add("ConvNet/FLOAT16/site-scalar", s)
		s = base
		s.DType, s.MBU = "FLOAT16", 2
		add("ConvNet/FLOAT16/mbu2", s)
	case "solo-deep":
		base := campaign.Spec{N: sc.DeepN, Inputs: 1, Shards: 8}
		for _, net := range []string{"AlexNet", "CaffeNet", "NiN"} {
			for _, dt := range []string{"FLOAT16", "32b_rb10"} {
				s := base
				s.Net, s.DType = net, dt
				add(net+"/"+dt+"/perbit", s)
			}
		}
		s := base
		s.Net, s.DType, s.Sampling = "AlexNet", "FLOAT16", "stratified"
		add("AlexNet/FLOAT16/stratified", s)
		s = base
		s.Net, s.DType = "AlexNet", "DOUBLE"
		add("AlexNet/DOUBLE/perbit", s)
	case "fleet-mixed":
		n := func(full int) int { return max(full/sc.MixedDiv, 16) }
		add("ConvNet/FLOAT16/perbit", campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: n(4000), Inputs: 1, Shards: 8})
		add("ConvNet/32b_rb10/stratified", campaign.Spec{Net: "ConvNet", DType: "32b_rb10", N: n(4000), Inputs: 1, Shards: 8, Sampling: "stratified"})
		add("AlexNet/FLOAT16/perbit", campaign.Spec{Net: "AlexNet", DType: "FLOAT16", N: n(600), Inputs: 1, Shards: 8})
		add("buffer-filter/16b_rb10", campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: n(240), Inputs: 1, Shards: 6, Surface: "buffer", Buffer: "filter"})
		add("systolic-weight/16b_rb10/stratified-mbu3", campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: n(400), Inputs: 1, Shards: 6, Surface: "systolic", Dataflow: "weight", Sampling: "stratified", MBU: 3})
		add("systolic-output/FLOAT16", campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: n(800), Inputs: 1, Shards: 8, Surface: "systolic", Dataflow: "output"})
		add("ConvNet/DOUBLE/site-bitplane", campaign.Spec{Net: "ConvNet", DType: "DOUBLE", N: n(6400), Inputs: 1, Shards: 8, Eval: "site-bitplane"})
		add("buffer-global/16b_rb10/stratified", campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: n(240), Inputs: 1, Shards: 6, Surface: "buffer", Buffer: "global", Sampling: "stratified"})
	case "fleet-ingest":
		for i := 0; i < sc.IngestSpecs; i++ {
			add(fmt.Sprintf("ConvNet/FLOAT16/ingest%02d", i), campaign.Spec{
				Net: "ConvNet", DType: "FLOAT16", N: sc.IngestN, Inputs: 1,
				Shards: sc.IngestSh, TrackValues: 32,
			})
		}
		w.PerRound = sc.IngestRound
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if w.PerRound == 0 {
		w.PerRound = len(w.Cells)
	}
	wi := slices.Index(workloadNames, name)
	for i := range w.Cells {
		w.Cells[i].Spec.Seed = specSeed(seed, wi, i)
		if err := w.Cells[i].Spec.Normalize(); err != nil {
			return nil, fmt.Errorf("%s cell %s: %v", name, w.Cells[i].Name, err)
		}
	}
	return w, nil
}

// isFleet reports whether the workload runs through the control plane.
func (w *workload) isFleet() bool { return w.Name == "fleet-mixed" || w.Name == "fleet-ingest" }

// slotsPerRound is how many shard reports one round merges.
func (w *workload) slotsPerRound() int {
	n := 0
	for i := 0; i < w.PerRound; i++ {
		n += w.Cells[i%len(w.Cells)].Spec.Slots()
	}
	return n
}

// injectionsPerRound is how many injections one round's campaigns hold.
func (w *workload) injectionsPerRound() int {
	n := 0
	for i := 0; i < w.PerRound; i++ {
		n += w.Cells[i%len(w.Cells)].Spec.N
	}
	return n
}
