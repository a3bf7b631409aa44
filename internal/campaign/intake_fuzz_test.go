package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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

// batchBody wraps one report's JSON as the POST /v1/reports body a worker
// posts for it.
func batchBody(slot int, report []byte) []byte {
	return fmt.Appendf(nil, `{"reports":[{"campaign":"c1","lease_id":"L1-s%d","shard":%d,"report":%s}]}`, slot, slot, report)
}

// equalBits is reflect.DeepEqual with floats compared by bit pattern, so a
// NaN the hex forms carry equals itself, and without a Report's wire bytes,
// which checkCodec holds to json.Marshal on their own.
func equalBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if !equalBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if a.Type() == reflect.TypeFor[Report]() && a.Type().Field(i).Name == "wire" {
				continue
			}
			if !equalBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// checkCodec is the wire codec's oracle, encoding/json: a batch body the
// hand-written parser accepts decodes to the value encoding/json decodes
// and re-marshals to the same bytes, each of its reports keeps exactly
// json.Marshal's bytes of that report (and a report of any other body
// keeps none), and AppendJSON of any report that decodes writes
// json.Marshal's bytes, or fails where it fails. It returns whether the
// body took the parser.
func checkCodec(t testing.TB, body []byte) bool {
	t.Helper()
	got, canonical, err := DecodeReportBatch(body)
	var want ReportBatchRequest
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("DecodeReportBatch error %v, encoding/json's %v", err, werr)
	}
	if !equalBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("DecodeReportBatch (canonical %v) decoded %+v, encoding/json %+v", canonical, got, want)
	}
	if canonical {
		a, aerr := json.Marshal(got)
		b, berr := json.Marshal(want)
		if aerr != nil || berr != nil || !bytes.Equal(a, b) {
			t.Fatalf("canonical decode re-marshals to %s (%v), encoding/json's to %s (%v)", a, aerr, b, berr)
		}
	}
	for i, q := range got.Reports {
		if q.Report == nil {
			continue
		}
		if !canonical {
			if q.Report.wire != nil {
				t.Fatalf("report %d of a body off the canonical form keeps wire bytes %s", i, q.Report.wire)
			}
			continue
		}
		if b, err := json.Marshal(q.Report); err != nil || !bytes.Equal(q.Report.wire, b) {
			t.Fatalf("report %d keeps wire bytes\n%s, json.Marshal writes\n%s (%v)", i, q.Report.wire, b, err)
		}
	}
	for _, q := range want.Reports {
		a, aerr := q.Report.AppendJSON(nil)
		b, berr := json.Marshal(q.Report)
		if (aerr == nil) != (berr == nil) || (aerr == nil && !bytes.Equal(a, b)) {
			t.Fatalf("AppendJSON wrote %s (%v), json.Marshal %s (%v)", a, aerr, b, berr)
		}
	}
	return canonical
}

// FuzzReportIntake decodes arbitrary bytes as the report of a leased slot —
// uniform, pilot, or main once the honest pilots have landed — and hands it
// to the ledger's leased intake (Machine.AcceptLeased). The ledger never
// panics; a report it accepts passes validation again; the campaign it
// joins still snapshots, derives an allocation table whose cells are
// non-negative and sum to the main phase's draw units, and folds into a
// final report once the honest rest of the fleet reports. The same bytes,
// posted as a report batch, hold the wire codec to its oracle (checkCodec).
// The seed corpus is the honest reports and, for each that carries strata,
// one forged stratum; every seed takes the codec's hand-written path.
func FuzzReportIntake(f *testing.F) {
	cases := intakeCases(f)
	for ci, c := range cases {
		for slot, r := range c.honest {
			data, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			if !checkCodec(f, batchBody(slot, data)) {
				f.Fatalf("case %d slot %d: honest report is not decoded by the codec", ci, slot)
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
			if !checkCodec(f, batchBody(slot, data)) {
				f.Fatalf("case %d slot %d: forged stratum is not decoded by the codec", ci, slot)
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
		checkCodec(t, batchBody(s, data))
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
		if err := r.validate(c.spec, c.spec.dims(), phase); err != nil {
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

// TestRetireDropsWireBytes: the reports a ledger accepts from a worker's
// body keep their wire bytes while the campaign is live, and Retire drops
// them without changing what they encode to.
func TestRetireDropsWireBytes(t *testing.T) {
	for _, c := range intakeCases(t) {
		m, err := NewMachine(c.spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for slot, r := range c.honest {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			req, canonical, err := DecodeReportBatch(batchBody(slot, data))
			if !canonical || err != nil {
				t.Fatalf("slot %d: decoded off the canonical path (%v)", slot, err)
			}
			if _, err := m.AcceptLeased(slot, req.Reports[0].Report); err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			if !bytes.Equal(m.SlotReport(slot).wire, data) {
				t.Fatalf("slot %d: accepted report keeps %q, its body held %s", slot, m.SlotReport(slot).wire, data)
			}
		}
		m.Retire()
		for slot, r := range c.honest {
			want, _ := json.Marshal(r)
			got, err := m.SlotReport(slot).AppendJSON(nil)
			if m.SlotReport(slot).wire != nil || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("slot %d after Retire: wire bytes kept %v, encodes to %s (%v), want %s", slot, m.SlotReport(slot).wire != nil, got, err, want)
			}
		}
	}
}
