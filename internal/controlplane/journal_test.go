package controlplane

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

func journalLines(bs ...[]byte) []byte {
	var out []byte
	for _, b := range bs {
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out
}

// datapathReport is an empty datapath report of a campaign with the given
// bit width and block count.
func datapathReport(bits, blocks int) *faultinj.Report {
	return &faultinj.Report{PerBit: make([]sdc.Counts, bits), PerBlock: make([]sdc.Counts, blocks),
		SpreadSum: make([]float64, blocks), SpreadN: make([]int, blocks)}
}

// testReport is a datapath report of a slot of spec, shaped and counted
// like a real one but with every injection masked.
func testReport(spec campaign.Spec, slot int) *campaign.Report {
	r := &campaign.Report{Datapath: datapathReport(spec.Type().Width(), 5)}
	r.Datapath.Counts.Trials = engine.NewPlan(spec.BufferOptions(), spec.Type().Width()).Injections(slot)
	r.Datapath.Masked = 1
	return r
}

// TestJournalTornTail crashes mid-append (a half-written last line) and
// checks the resume drops exactly that line, truncates the file to the
// good prefix, and keeps every earlier campaign. The file was never
// compacted, so its header carries no seq: the ID counter must come from
// the replayed campaign IDs, or the next submission would reuse one.
func TestJournalTornTail(t *testing.T) {
	spec := testSpec(1)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	hdr, _ := json.Marshal(journalHeader{Version: journalVersion})
	sub, _ := json.Marshal(journalEvent{Event: evSubmit, Campaign: "c7", Tenant: "alice", Priority: 2, Spec: &spec})
	rep, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c7", Slot: 0, Report: testReport(spec, 0)})

	path := filepath.Join(t.TempDir(), "ctl.journal")
	good := journalLines(hdr, sub, rep)
	torn := append(append([]byte{}, good...), []byte(`{"event":"report","campaign":"c7","slot":1,"rep`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := p.Get("alice", "c7")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateActive || st.Snapshot.CompletedShards != 1 {
		t.Fatalf("resumed state %s with %d shards, want active with 1", st.State, st.Snapshot.CompletedShards)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(good) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(data), len(good))
	}
	if id := mustSubmit(t, p, "bob", testSpec(2), 1, 0); id != "c8" {
		t.Fatalf("submission after replaying c7 got ID %s, want c8", id)
	}
}

// TestJournalRefusals: every file that is not a well-formed v5 journal —
// the retired v3 single-campaign checkpoint and v4 journal formats, an
// event for a campaign the journal never admitted, corruption before the
// tail — refuses the resume with an error naming the file instead of
// silently dropping state.
func TestJournalRefusals(t *testing.T) {
	spec := testSpec(1)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	hdr, _ := json.Marshal(journalHeader{Version: journalVersion})
	v3hdr, _ := json.Marshal(journalHeader{Version: 3})
	v4hdr, _ := json.Marshal(journalHeader{Version: 4})
	sub, _ := json.Marshal(journalEvent{Event: evSubmit, Campaign: "c1", Spec: &spec})
	rep, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c1", Slot: 0, Report: testReport(spec, 0)})
	foreign, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c9", Slot: 0, Report: testReport(spec, 0)})
	// A stratified campaign's pilot report, shaped as its slot's, whose
	// stratum weights differ from its spec's in one bit.
	strat := testSpec(1)
	strat.Sampling = "stratified"
	if err := strat.Normalize(); err != nil {
		t.Fatal(err)
	}
	stratSub, _ := json.Marshal(journalEvent{Event: evSubmit, Campaign: "c1", Spec: &strat})
	pilot := func(w engine.HexFloats) []byte {
		r := &campaign.Report{Datapath: datapathReport(16, 5)}
		r.Datapath.Strata = engine.NewStrata(5, 16, w, false)
		b, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c1", Slot: 0, Report: r})
		return b
	}
	w := faultinj.StratumWeights(accel.NewProfile(models.Build("ConvNet"), numeric.Float16), 16, 1)
	honest := filepath.Join(t.TempDir(), "ctl.journal")
	if err := os.WriteFile(honest, journalLines(hdr, stratSub, pilot(w)), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{JournalPath: honest})
	if err != nil {
		t.Fatalf("journal of an honest pilot report refused: %v", err)
	}
	p.Close()
	forged := append(engine.HexFloats(nil), w...)
	forged[0] = math.Float64frombits(math.Float64bits(forged[0]) ^ 1)

	cases := map[string][]byte{
		"v3 checkpoint":     journalLines(v3hdr, sub),
		"v4 journal":        journalLines(v4hdr, sub, rep),
		"foreign campaign":  journalLines(hdr, sub, foreign, rep),
		"corrupt middle":    journalLines(hdr, sub, []byte(`{"event":`), rep),
		"dup submission":    journalLines(hdr, sub, sub),
		"cancel before sub": journalLines(hdr, []byte(`{"event":"cancel","campaign":"c1"}`), sub),
		"slot out of range": journalLines(hdr, sub, []byte(`{"event":"report","campaign":"c1","slot":99,"report":{}}`), rep),
		"empty file":        {},
		"foreign weights":   journalLines(hdr, stratSub, pilot(forged)),
	}
	// The refusal names the campaign and slot as well as the file.
	named := map[string]string{"foreign weights": "restoring c1 slot 0: campaign: datapath report's stratum weights differ from the spec's"}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ctl.journal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := New(Config{JournalPath: path}); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), named[name]) {
				t.Fatalf("resume not refused with an error naming %s %s: %v", path, named[name], err)
			}
		})
	}
}

// FuzzQueueCheckpoint throws arbitrary bytes at the interleaved journal
// loader. The contract: New never panics; when it succeeds, every
// recovered campaign replays cleanly (reports land in their own ledgers,
// in range) and a re-resume of the now-truncated file also succeeds —
// loading is idempotent once the torn tail is gone. Seeds cover the
// interesting shapes: multi-campaign interleaving, torn tail, foreign
// campaign IDs, v3 refusal, cancel events.
func FuzzQueueCheckpoint(f *testing.F) {
	specA := testSpec(1)
	specB := testSpec(2)
	specB.Shards = 2
	specB.N = 30
	for _, s := range []*campaign.Spec{&specA, &specB} {
		if err := s.Normalize(); err != nil {
			f.Fatal(err)
		}
	}
	hdr, _ := json.Marshal(journalHeader{Version: journalVersion})
	v3hdr, _ := json.Marshal(journalHeader{Version: 3})
	subA, _ := json.Marshal(journalEvent{Event: evSubmit, Campaign: "c1", Tenant: "alice", Priority: 4, Quota: 2, Spec: &specA})
	subB, _ := json.Marshal(journalEvent{Event: evSubmit, Campaign: "c2", Tenant: "bob", Priority: 1, Spec: &specB})
	repA, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c1", Slot: 1, Report: testReport(specA, 1)})
	repB, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c2", Slot: 0, Report: testReport(specB, 0)})
	cancelB, _ := json.Marshal(journalEvent{Event: evCancel, Campaign: "c2"})
	foreign, _ := json.Marshal(journalEvent{Event: evReport, Campaign: "c9", Slot: 0, Report: testReport(specA, 0)})

	f.Add([]byte{})
	f.Add(journalLines(hdr))
	f.Add(journalLines(hdr, subA, subB, repB, repA))       // interleaved
	f.Add(journalLines(hdr, subA, repA, subB, cancelB))    // cancel
	f.Add(append(journalLines(hdr, subA), subA[:20]...))   // torn tail
	f.Add(journalLines(hdr, subA, foreign, repA))          // foreign ID mid-file
	f.Add(journalLines(hdr, subA, repA, foreign))          // foreign ID at tail
	f.Add(journalLines(v3hdr, subA))                       // v3 refusal
	f.Add(journalLines(hdr, []byte(`{"event":"submit"}`))) // no campaign ID
	f.Add([]byte("not json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ctl.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
		if err != nil {
			return
		}
		for _, st := range p.List("") {
			if st.Snapshot.CompletedShards > st.Snapshot.TotalShards {
				t.Fatalf("campaign %s recovered %d/%d shards", st.ID, st.Snapshot.CompletedShards, st.Snapshot.TotalShards)
			}
		}
		p.Close()
		// Idempotence: the surviving file must load again, byte-stable.
		p2, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatalf("clean journal refused on second load: %v", err)
		}
		p2.Close()
	})
}
