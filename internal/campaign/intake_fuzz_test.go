package campaign

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sdc"
)

// intakeCase is one campaign of FuzzReportIntake with the honest report of
// every slot, as its fleet would deliver them.
type intakeCase struct {
	spec   Spec
	honest []*Report
}

// intakeCases are a uniform and a stratified small ConvNet campaign on each
// surface.
func intakeCases(tb testing.TB) []intakeCase {
	tb.Helper()
	var cases []intakeCase
	for _, sampling := range []string{"uniform", "stratified"} {
		for _, s := range []Spec{
			{Net: "ConvNet", DType: "FLOAT16", TrackValues: 8, TrackSpread: true},
			{Net: "ConvNet", DType: "16b_rb10", Surface: "buffer", Buffer: "psum"},
			{Net: "ConvNet", DType: "16b_rb10", Surface: "systolic", Dataflow: "output"},
		} {
			s.N, s.Inputs, s.Seed, s.Shards, s.Sampling = 40, 1, 5, 2, sampling
			m, err := NewMachine(s, 0)
			if err != nil {
				tb.Fatal(err)
			}
			c := intakeCase{spec: m.Spec(), honest: make([]*Report, m.Spec().Slots())}
			for !m.Done() {
				for l := m.Lease(time.Now(), time.Minute); l != nil; l = m.Lease(time.Now(), time.Minute) {
					r, err := ExecuteLease(l, nil)
					if err == nil {
						_, err = m.AcceptLeased(l.Slot, r)
					}
					if err != nil {
						tb.Fatal(err)
					}
					c.honest[l.Slot] = r
				}
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// FuzzReportIntake decodes arbitrary bytes as the report of a leased slot —
// uniform, pilot, or main once the honest pilots have landed — and hands it
// to the ledger's leased intake (Machine.AcceptLeased). The ledger never
// panics; a report it accepts passes validation again; the campaign it
// joins still snapshots, derives an allocation table whose cells are
// non-negative and sum to the main phase's draw units, and folds into a
// final report once the honest rest of the fleet reports. The seed corpus
// is the honest reports and, for each that carries strata, one forged
// stratum.
func FuzzReportIntake(f *testing.F) {
	cases := intakeCases(f)
	for ci, c := range cases {
		for slot, r := range c.honest {
			data, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(ci), uint8(slot), data)
			if r.Strata() == nil {
				continue
			}
			// And the forgery that turns a table's cells to ≈ −9·10¹⁸:
			// negative hits over no defined trials in one stratum.
			var forged Report
			if err := json.Unmarshal(data, &forged); err != nil {
				f.Fatal(err)
			}
			forged.Strata().Counts[0].Hits[sdc.SDC1], forged.Strata().Counts[0].DefinedTrials[sdc.SDC1] = -1_000_000, 0
			if data, err = json.Marshal(&forged); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(ci), uint8(slot), data)
		}
	}
	f.Fuzz(func(t *testing.T, ci, slot uint8, data []byte) {
		c := cases[int(ci)%len(cases)]
		m, err := NewMachine(c.spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := int(slot) % len(c.honest)
		landed := map[int]bool{s: true}
		if m.plan.Gated(s) {
			for p := range c.honest {
				if !m.plan.Gated(p) {
					if _, err := m.AcceptLeased(p, c.honest[p]); err != nil {
						t.Fatalf("honest pilot %d refused: %v", p, err)
					}
					landed[p] = true
				}
			}
		}
		var r Report
		if json.Unmarshal(data, &r) != nil {
			return
		}
		completed := m.Completed()
		first, err := m.AcceptLeased(s, &r)
		if err != nil || !first {
			if m.Completed() != completed {
				t.Fatalf("refused report (%v) changed the ledger", err)
			}
			return
		}
		phase, _ := m.plan.Slot(s)
		if _, err := r.validate(c.spec, phase); err != nil {
			t.Fatalf("accepted report fails validation: %v", err)
		}
		m.Snapshot()
		for p := range c.honest {
			if !landed[p] {
				if _, err := m.AcceptLeased(p, c.honest[p]); err != nil {
					t.Fatalf("honest slot %d refused after the fuzzed one: %v", p, err)
				}
			}
		}
		if tb := m.table; tb != nil {
			sum := 0
			for cell, a := range tb.Alloc {
				if a < 0 {
					t.Fatalf("table allocates %d units to cell %d", a, cell)
				}
				sum += a
			}
			if sum != tb.MainN {
				t.Fatalf("table allocates %d units, main phase has %d", sum, tb.MainN)
			}
		}
		m.Snapshot()
		final, err := m.FinalReport()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(final); err != nil {
			t.Fatalf("final report does not marshal: %v", err)
		}
	})
}
