package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestForgedFirstPilotRefused: on every stratified surface, a first pilot
// report with one weight bit forged is refused with the ledger unchanged,
// then every honest slot lands and the campaign folds. The ledger used to
// adopt the weights of the first strata-carrying report it accepted, so
// the forgery was taken and every honest report after it refused — the
// fault FuzzReportIntake found (its crasher is in testdata/fuzz).
func TestForgedFirstPilotRefused(t *testing.T) {
	for _, c := range intakeCases(t) {
		if !c.spec.Stratified() {
			continue
		}
		t.Run(c.spec.Surface, func(t *testing.T) {
			m, err := NewMachine(c.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if phase, _ := c.spec.SlotPhase(0); phase != engine.PhasePilot {
				t.Fatalf("slot 0 is a %q slot, want a pilot", phase)
			}
			before, _ := json.Marshal(m.Snapshot())
			forged := cloneReport(t, c.honest[0])
			w := forged.Strata().Weight
			w[0] = math.Float64frombits(math.Float64bits(w[0]) ^ 1)
			if first, err := m.AcceptLeased(0, forged); err == nil || first || !strings.Contains(err.Error(), "stratum weights differ from the spec's") {
				t.Fatalf("forged first pilot: first=%v err=%v, want the weights refusal", first, err)
			}
			if after, _ := json.Marshal(m.Snapshot()); m.Completed() != 0 || string(after) != string(before) {
				t.Fatalf("refusal touched the ledger: %s → %s", before, after)
			}
			for slot, r := range c.honest {
				if first, err := m.AcceptLeased(slot, r); err != nil || !first {
					t.Fatalf("honest slot %d after the forgery: first=%v err=%v", slot, first, err)
				}
			}
			if _, err := m.FinalReport(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpecWeightsMatchReports: the stratum weights the plane computes from
// a spec alone are, bit for bit, the ones the campaign's workers put in
// their reports — on every surface, buffer class (Img REG's FC strata
// weighing 0) and dataflow, at upset widths 1–3 — so an honest report is
// never refused for its weights.
func TestSpecWeightsMatchReports(t *testing.T) {
	var specs []Spec
	for _, dtype := range []string{"FLOAT16", "DOUBLE"} {
		specs = append(specs, Spec{DType: dtype})
	}
	for _, b := range BufferNames {
		specs = append(specs, Spec{DType: "16b_rb10", Surface: "buffer", Buffer: b})
	}
	for _, flow := range []string{"weight", "output", "input"} {
		specs = append(specs, Spec{DType: "16b_rb10", Surface: "systolic", Dataflow: flow})
	}
	for _, s := range specs {
		var single engine.HexFloats
		for mbu := 1; mbu <= 3; mbu++ {
			s.Net, s.N, s.Inputs, s.Seed, s.Shards, s.Sampling, s.MBU = "ConvNet", 48, 1, 3, 2, "stratified", mbu
			t.Run(fmt.Sprintf("%s/%s%s/%s/mbu%d", s.Surface, s.Buffer, s.Dataflow, s.DType, mbu), func(t *testing.T) {
				if err := s.Normalize(); err != nil {
					t.Fatal(err)
				}
				final, pilot, err := SoloReport(s, nil)
				if err != nil || pilot == nil {
					t.Fatalf("pilot %v, err %v", pilot, err)
				}
				want := s.dims().weights
				if !final.Strata().Weight.Equal(want) || !pilot.Weight.Equal(want) {
					t.Fatalf("reports carry weights\n%v (final)\n%v (pilot), the spec implies\n%v", final.Strata().Weight, pilot.Weight, want)
				}
				if mbu == 1 {
					single = want
				} else if want.Equal(single) {
					t.Fatalf("MBU-%d weights equal the single-bit ones", mbu)
				}
			})
		}
	}
}
