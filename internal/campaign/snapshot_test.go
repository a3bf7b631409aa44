package campaign

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/sdc"
)

// TestSnapshotMatchesFinalReport drives every surface, uniform and
// stratified, to completion and holds the finished status to the final
// report's estimators bit for bit: the overall SDC-1 bar on every cell, a
// per-block aggregate for every block of a stratified campaign (its strata
// cover every block on every surface), the datapath's per-block tallies for
// a uniform one, and no per-block view of a uniform buffer or systolic
// campaign, which tallies no blocks.
func TestSnapshotMatchesFinalReport(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	blocks := models.Build("ConvNet").NumBlocks()
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"datapath", Spec{Surface: "datapath"}},
		{"datapath/stratified", Spec{Surface: "datapath", Sampling: "stratified"}},
		{"buffer-global", Spec{Surface: "buffer", Buffer: "global"}},
		{"buffer-global/stratified", Spec{Surface: "buffer", Buffer: "global", Sampling: "stratified"}},
		{"systolic-weight", Spec{Surface: "systolic", Dataflow: "weight"}},
		{"systolic-weight/stratified-mbu3", Spec{Surface: "systolic", Dataflow: "weight", Sampling: "stratified", MBU: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Net, spec.DType, spec.N, spec.Inputs, spec.Seed, spec.Shards = "ConvNet", "16b_rb10", 60, 2, 11, 3
			m, err := NewMachine(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			driveMachine(t, m)
			snap := m.Snapshot()
			final, err := m.FinalReport()
			if err != nil {
				t.Fatal(err)
			}
			if p, ci := final.SDCEstimate(sdc.SDC1); !same(snap.SDC1, p) || !same(snap.SDC1CI95, ci) {
				t.Errorf("status SDC-1 %v ±%v, final report %v ±%v", snap.SDC1, snap.SDC1CI95, p, ci)
			}
			strata := final.Strata()
			var perBlock []sdc.Counts
			switch {
			case strata != nil:
				perBlock = make([]sdc.Counts, strata.Blocks)
				for h, c := range strata.Counts {
					perBlock[h/strata.Bits].Merge(c)
				}
			case final.Datapath != nil:
				perBlock = final.Datapath.PerBlock
			}
			if strata != nil && len(perBlock) != blocks {
				t.Fatalf("strata cover %d blocks, ConvNet has %d", len(perBlock), blocks)
			}
			if len(snap.PerBlock) != len(perBlock) {
				t.Fatalf("status has %d per-block aggregates, want %d", len(snap.PerBlock), len(perBlock))
			}
			for b, got := range snap.PerBlock {
				want := engine.Estimate(perBlock[b], nil, sdc.SDC1)
				if strata != nil {
					want = strata.BlockEstimate(b, sdc.SDC1)
				}
				lo, hi := want.Bounds()
				if got.Block != b || got.Trials != perBlock[b].Trials ||
					!same(got.SDC1, want.P()) || !same(got.CI95, want.CI95()) || !same(got.Lo, lo) || !same(got.Hi, hi) {
					t.Errorf("block %d: status %+v, want %d trials, %v ±%v in [%v,%v]",
						b, got, perBlock[b].Trials, want.P(), want.CI95(), lo, hi)
				}
				if final.Datapath != nil && got.Trials != final.Datapath.PerBlock[b].Trials {
					t.Errorf("block %d: status counts %d trials, datapath tallied %d", b, got.Trials, final.Datapath.PerBlock[b].Trials)
				}
			}
		})
	}
}
