package controlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
)

// honestSlots runs every slot of spec through a ledger of its own, in lease
// order, and returns the slot reports by slot.
func honestSlots(tb testing.TB, spec campaign.Spec) []*campaign.Report {
	tb.Helper()
	m, err := campaign.NewMachine(spec, 0)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*campaign.Report, m.Spec().Slots())
	for !m.Done() {
		for l := m.Lease(time.Now(), time.Minute); l != nil; l = m.Lease(time.Now(), time.Minute) {
			r, err := campaign.ExecuteLease(l, nil)
			if err == nil {
				_, err = m.AcceptLeased(l.Slot, r)
			}
			if err != nil {
				tb.Fatal(err)
			}
			out[l.Slot] = r
		}
	}
	return out
}

// surfaceSpecs is a small ConvNet campaign on every surface, uniform and
// stratified, the datapath one with values and spread.
func surfaceSpecs() []campaign.Spec {
	var specs []campaign.Spec
	for _, sampling := range []string{"uniform", "stratified"} {
		for _, s := range []campaign.Spec{
			{Net: "ConvNet", DType: "FLOAT16", TrackValues: 8, TrackSpread: true},
			{Net: "ConvNet", DType: "16b_rb10", Surface: "buffer", Buffer: "psum"},
			{Net: "ConvNet", DType: "16b_rb10", Surface: "systolic", Dataflow: "output"},
		} {
			s.N, s.Inputs, s.Seed, s.Shards, s.Sampling = 40, 1, 5, 2, sampling
			specs = append(specs, s)
		}
	}
	return specs
}

// TestJournalSplicesReports: a report event's journal line, built from the
// event's own json.Marshal with the wire codec's report spliced in, is
// byte for byte json.Marshal of the whole event — for every surface's
// honest reports, uniform and stratified — and so are events without one.
func TestJournalSplicesReports(t *testing.T) {
	spec := testSpec(1)
	events := []journalEvent{
		{Event: evSubmit, Campaign: "c1", Tenant: "alice", Priority: 2, Quota: 3, Spec: &spec},
		{Event: evCancel, Campaign: "c1"},
	}
	for _, spec := range surfaceSpecs() {
		for slot, r := range honestSlots(t, spec) {
			events = append(events, journalEvent{Event: evReport, Campaign: "c7", Slot: slot, Retries: slot % 2, Report: r})
		}
	}
	var buf []byte
	for _, e := range events {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = appendEvent(buf[:0], &e); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("%s event journals as\n%s (%v), json.Marshal writes\n%s", e.Event, buf, err, want)
		}
	}
	// A non-finite spread sum, block or stratum, fails both the same way.
	stratified := honestSlots(t, surfaceSpecs()[3])[0].Datapath
	for _, sum := range [][]float64{stratified.SpreadSum, stratified.Strata.SpreadSum} {
		sum[0] = math.Inf(1)
		e := journalEvent{Event: evReport, Campaign: "c7", Report: &campaign.Report{Datapath: stratified}}
		_, werr := json.Marshal(e)
		if _, err := appendEvent(nil, &e); err == nil || werr == nil || err.Error() != werr.Error() {
			t.Errorf("a +Inf spread sum journals with error %v, json.Marshal's is %v", err, werr)
		}
		sum[0] = 0
	}
}

// TestJournalReportEncodeAllocatesNothing: encoding an honest report of
// every surface into a buffer with room — what the journal does per
// accepted report — allocates nothing.
func TestJournalReportEncodeAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1<<16)
	for _, spec := range surfaceSpecs() {
		r := honestSlots(t, spec)[0]
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if buf, err = r.AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s/%s: AppendJSON allocates %.1f times per report", spec.Surface, spec.Sampling, allocs)
		}
	}
}

// TestNaNSpreadRefusedInProcess: a datapath report whose spread sum is NaN
// used to pass the ledger through Plane.ReportBatch and then fail to
// journal, after which the honest redelivery of the slot failed too and a
// restart lost it. It is refused with the ledger and journal untouched; the
// honest report then lands and survives a restart.
func TestNaNSpreadRefusedInProcess(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "ctl.journal")
	p1, err := New(Config{JournalPath: journal, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	spec.TrackSpread = true
	id := mustSubmit(t, p1, "alice", spec, 1, 0)
	l := firstLease(t, p1.LeaseBatch(time.Now(), 1))
	if l == nil {
		t.Fatal("no lease granted")
	}
	rep, err := campaign.ExecuteLease(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := *rep.Datapath
	forged.SpreadSum = append([]float64(nil), forged.SpreadSum...)
	forged.SpreadSum[0] = math.NaN()
	events := p1.JournalStats().Events
	report := func(r *campaign.Report) error {
		return p1.ReportBatch([]campaign.ReportRequest{{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: r}})[0]
	}
	if err := report(&campaign.Report{Datapath: &forged}); err == nil {
		t.Fatal("report with a NaN spread sum accepted")
	}
	if st, _ := p1.Get("", id); st.Snapshot.CompletedShards != 0 || p1.JournalStats().Events != events {
		t.Fatalf("refused report completed %d slots, journaled %d events", st.Snapshot.CompletedShards, p1.JournalStats().Events-events)
	}
	if err := report(rep); err != nil {
		t.Fatalf("honest redelivery refused: %v", err)
	}
	p1.Close()

	p2 := newTestPlane(t, Config{JournalPath: journal, LeaseTTL: time.Minute})
	if st, err := p2.Get("", id); err != nil || st.Snapshot.CompletedShards != 1 {
		t.Fatalf("after restart: completed %d slots (%v), want 1", st.Snapshot.CompletedShards, err)
	}
}

// TestReportDecodeFallbackCounted: POST /v1/reports takes a body in any
// form encoding/json reads. An indented batch — off the codec's canonical
// form — earns the per-report outcomes the compact batch earns and moves
// controlplane_report_decode_fallbacks by exactly one; a campaign.Worker's
// batches never move it.
func TestReportDecodeFallbackCounted(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	id := mustSubmit(t, p, "alice", testSpec(1), 1, 0)
	var reqs []campaign.ReportRequest
	for _, l := range p.LeaseBatch(time.Now(), 2).Leases {
		rep, err := campaign.ExecuteLease(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, campaign.ReportRequest{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: rep})
	}
	if len(reqs) != 2 {
		t.Fatalf("granted %d leases, want 2", len(reqs))
	}
	forged := reqs[0]
	forged.LeaseID = "L99-s0"
	reqs = append(reqs, forged)
	post := func(body []byte) []campaign.ReportOutcome {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/reports", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out campaign.ReportBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/reports: %s (%v)", resp.Status, err)
		}
		return out.Results
	}
	batch := campaign.ReportBatchRequest{Reports: reqs}
	indented, err := json.MarshalIndent(batch, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	fallbacks := mFallbacks.Value()
	got := post(indented)
	if d := mFallbacks.Value() - fallbacks; d != 1 {
		t.Errorf("an indented batch moved controlplane_report_decode_fallbacks by %d, want 1", d)
	}
	fallbacks = mFallbacks.Value()
	want := post(compact) // the same reports again: duplicates, answered like the first
	if d := mFallbacks.Value() - fallbacks; d != 0 {
		t.Errorf("a compact batch moved controlplane_report_decode_fallbacks by %d", d)
	}
	if len(got) != 3 || got[0].Code != 0 || got[1].Code != 0 || got[2].Code != http.StatusForbidden {
		t.Fatalf("indented batch outcomes %+v, want two accepted and one 403", got)
	}
	for i := range got {
		if got[i].Code != want[i].Code {
			t.Errorf("report %d: indented batch earned %+v, compact %+v", i, got[i], want[i])
		}
	}

	fallbacks = mFallbacks.Value()
	stop := make(chan struct{})
	errs := runFleet(t, srv, 1, "", stop)
	waitState(t, p, id, StateDone)
	close(stop)
	<-errs
	if d := mFallbacks.Value() - fallbacks; d != 0 {
		t.Errorf("a worker's batches moved controlplane_report_decode_fallbacks by %d", d)
	}
}

// BenchmarkReportIntake is the plane's per-batch intake cost at
// fleet-ingest's shape (32 uniform ConvNet FLOAT16 slot reports of 4
// injections with 32 tracked values each): decoding the POST /v1/reports
// body, and encoding the 32 journal lines, through the wire codec and
// through encoding/json.
func BenchmarkReportIntake(b *testing.B) {
	spec := campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 256, Inputs: 1, Seed: 1, Shards: 64, TrackValues: 32}
	var batch campaign.ReportBatchRequest
	var events []journalEvent
	for slot, r := range honestSlots(b, spec)[:32] {
		batch.Reports = append(batch.Reports, campaign.ReportRequest{Campaign: "c1", LeaseID: "L1-s0", Shard: slot, Report: r})
		events = append(events, journalEvent{Event: evReport, Campaign: "c1", Slot: slot, Report: r})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode/codec", func(b *testing.B) {
		for range b.N {
			if _, canonical, err := campaign.DecodeReportBatch(body); !canonical || err != nil {
				b.Fatalf("canonical %v, %v", canonical, err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		for range b.N {
			var req campaign.ReportBatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journal/codec", func(b *testing.B) {
		var buf []byte
		for range b.N {
			buf = buf[:0]
			for i := range events {
				if buf, err = appendEvent(buf, &events[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("journal/json", func(b *testing.B) {
		for range b.N {
			for _, e := range events {
				if _, err := json.Marshal(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
