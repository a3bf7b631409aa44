package campaign

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/models"
)

// TestMachineLedgerIsThePlan: on every surface, for every design and
// evaluation mode, the Machine's ledger is the engine.Plan of the same
// options — slot count, each slot's (phase, shard), and leases that spell
// those out, carry the table exactly on the plan's gated slots, and are
// only granted for a gated slot once the plan's table exists.
func TestMachineLedgerIsThePlan(t *testing.T) {
	bases := map[string]Spec{
		"datapath": {Net: "ConvNet", DType: "16b_rb10", Inputs: 2, Seed: 11},
		"buffer":   bufSpec(""),
		"systolic": sysSpec(""),
	}
	for name, base := range bases {
		for _, eval := range []string{"", "site-bitplane"} {
			// The stratified row's pilot is the prior row's artifact.
			prior := filepath.Join(t.TempDir(), "strata.json")
			for _, design := range []string{"uniform", "stratified", "prior"} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, eval, design), func(t *testing.T) {
					spec := base
					spec.N, spec.Shards, spec.Eval = 160, 3, eval
					opt := engine.Options{N: 160, Seed: spec.Seed, Workers: 3, Eval: engine.EvalMode(eval)}
					switch design {
					case "stratified":
						spec.Sampling, opt.Sampling = "stratified", engine.SamplingStratified
					case "prior":
						spec.Sampling, spec.PriorPath = "stratified", prior
						opt.Sampling, opt.PilotN = engine.SamplingStratified, -1
					}
					m, err := NewMachine(spec, 3)
					if err != nil {
						t.Fatal(err)
					}
					spec = m.Spec()
					plan := engine.NewPlan(opt, spec.Type().Width())
					if spec.Slots() != plan.Slots() || spec.Shards != plan.Shards() || spec.PriorAllocated() != plan.PriorAllocated() {
						t.Fatalf("ledger has %d slots over %d shards (prior=%v), plan %d over %d (prior=%v)",
							spec.Slots(), spec.Shards, spec.PriorAllocated(), plan.Slots(), plan.Shards(), plan.PriorAllocated())
					}

					// The grant order is the plan's: every ungated slot in slot
					// order, then — pilots accepted — every gated one.
					var order []int
					for _, gated := range []bool{false, true} {
						for slot := 0; slot < plan.Slots(); slot++ {
							if plan.Gated(slot) == gated {
								order = append(order, slot)
							}
						}
					}
					var table []byte
					now := time.Now()
					for _, slot := range order {
						if plan.Gated(slot) && table == nil {
							strata := m.PilotStrata()
							if design == "prior" {
								if strata, err = spec.LoadPrior(); err != nil {
									t.Fatal(err)
								}
							}
							if table, err = json.Marshal(plan.Table(strata)); err != nil {
								t.Fatal(err)
							}
						}
						l := m.Lease(now, time.Minute)
						if l == nil || l.Slot != slot {
							t.Fatalf("want a lease of slot %d, got %+v", slot, l)
						}
						phase, shard := plan.Slot(slot)
						if sp, ss := spec.SlotPhase(slot); sp != phase || ss != shard || l.Phase != phase || l.Shard != shard || l.Of != plan.Shards() {
							t.Errorf("slot %d: spec says (%q, %d), lease (%q, %d of %d), plan (%q, %d of %d)",
								slot, sp, ss, l.Phase, l.Shard, l.Of, phase, shard, plan.Shards())
						}
						if (l.Table != nil) != plan.Gated(slot) {
							t.Errorf("slot %d (%s): table present=%v", slot, phase, l.Table != nil)
						}
						if l.Table != nil {
							if got, _ := json.Marshal(l.Table); string(got) != string(table) {
								t.Errorf("slot %d: lease table is not the plan's:\n got %s\nwant %s", slot, got, table)
							}
						}
						if phase == engine.PhasePilot {
							r, err := ExecuteLease(l, nil)
							if err != nil {
								t.Fatal(err)
							}
							if first, err := m.Accept(slot, r); err != nil || !first {
								t.Fatalf("pilot slot %d: first=%v err=%v", slot, first, err)
							}
						}
					}
					if l := m.Lease(now, time.Minute); l != nil {
						t.Errorf("lease of slot %d past the plan's %d slots", l.Slot, plan.Slots())
					}
					if design == "stratified" {
						if err := engine.WriteStrataArtifact(prior, &engine.StrataArtifact{
							Surface: spec.Surface, Net: spec.Net, DType: spec.DType, Buffer: spec.Buffer, Pilot: m.PilotStrata(),
						}); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestNormalizeRefusesOutOfRangeBlock: perlayer's Param indexes the
// network's MAC layers; the first block past them — accepted, it panics the
// shard that draws a site in it — is refused for every network, the last
// block in range is not.
func TestNormalizeRefusesOutOfRangeBlock(t *testing.T) {
	for _, net := range models.Names {
		blocks := models.Build(net).NumBlocks()
		for _, tc := range []struct {
			param int
			ok    bool
		}{{blocks - 1, true}, {blocks, false}, {99, false}, {-1, false}} {
			s := Spec{Net: net, N: 10, Select: "perlayer", Param: tc.param}
			if err := s.Normalize(); (err == nil) != tc.ok {
				t.Errorf("%s (%d MAC layers): perlayer block %d: err = %v", net, blocks, tc.param, err)
			}
		}
	}
}
