package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
	// And the same reports as the plane holds them, decoded from the body a
	// worker posts: their lines are spliced from their own wire bytes.
	var batch campaign.ReportBatchRequest
	for _, e := range events {
		if e.Report != nil {
			batch.Reports = append(batch.Reports, campaign.ReportRequest{Campaign: e.Campaign, LeaseID: "L1-s0", Shard: e.Slot, Report: e.Report})
		}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	decoded, canonical, err := campaign.DecodeReportBatch(body)
	if !canonical || err != nil {
		t.Fatalf("a worker's body decoded off the canonical path (%v)", err)
	}
	for i, q := range decoded.Reports {
		events = append(events, journalEvent{Event: evReport, Campaign: "c8", Slot: i, Retries: i % 3, Report: q.Report})
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

	// Spellings encoding/json reads but json.Marshal never writes: each body
	// is a slot's honest report respelled, so the codec would keep bytes that
	// are not AppendJSON's. Each takes the fallback, decodes to
	// encoding/json's value, and an accepted one journals json.Marshal's line.
	uniform := testSpec(1)
	uniform.TrackValues, uniform.TrackSpread = 8, true
	stratified := campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 60, Inputs: 1, Seed: 3, Shards: 2, Sampling: "stratified"}
	systolic := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: 30, Inputs: 1, Seed: 4, Shards: 2, Surface: "systolic", Dataflow: "output"}
	weights := regexp.MustCompile(`"weight":\[[^\]]*\]`)
	firstSpread := regexp.MustCompile(`"SpreadSum":\[[^,\]]*`)
	spreadSpelling := func(spell func(f float64, lit string) string) func(t *testing.T, data []byte) []byte {
		return func(t *testing.T, data []byte) []byte {
			return firstSpread.ReplaceAllFunc(data, func(m []byte) []byte {
				lit := string(m[len(`"SpreadSum":[`):])
				f, err := strconv.ParseFloat(lit, 64)
				if err != nil {
					t.Fatal(err)
				}
				return []byte(`"SpreadSum":[` + spell(f, lit))
			})
		}
	}
	insert := func(at, what string) func(*testing.T, []byte) []byte {
		return func(t *testing.T, data []byte) []byte {
			i := bytes.LastIndex(data, []byte(at))
			if i < 0 {
				t.Fatalf("report holds no %s", at)
			}
			return slices.Concat(data[:i], []byte(what), data[i:])
		}
	}
	for _, c := range []struct {
		name     string
		spec     campaign.Spec
		respell  func(*testing.T, []byte) []byte
		accepted bool
	}{
		{"minus zero int", uniform, func(t *testing.T, data []byte) []byte {
			return bytes.Replace(data, []byte(`"Detection":{"Total":0,`), []byte(`"Detection":{"Total":-0,`), 1)
		}, true},
		{"zero PreMasked", uniform, insert(`,"Detection":`, `,"PreMasked":0`), true},
		{"zero ArchMasked", systolic, insert(`}}`, `,"ArchMasked":0`), true},
		{"empty PreMaskedPerBit", uniform, insert(`,"Detection":`, `,"PreMaskedPerBit":[]`), true},
		{"null PreMaskedPerBit", uniform, insert(`,"Detection":`, `,"PreMaskedPerBit":null`), true},
		{"empty spread_sum", stratified, insert(`}}}`, `,"spread_sum":[]`), true},
		{"empty spread_n", stratified, insert(`}}}`, `,"spread_n":[]`), true},
		{"null weight", stratified, func(_ *testing.T, data []byte) []byte {
			return weights.ReplaceAll(data, []byte(`"weight":null`))
		}, false},
		{"upper-case hex", stratified, func(_ *testing.T, data []byte) []byte {
			return weights.ReplaceAllFunc(data, func(m []byte) []byte { return slices.Concat([]byte(`"weight"`), bytes.ToUpper(m[len(`"weight"`):])) })
		}, true},
		{"zero-padded hex", stratified, func(_ *testing.T, data []byte) []byte {
			return bytes.Replace(data, []byte(`"weight":["`), []byte(`"weight":["0`), 1)
		}, true},
		{"float 1.0 form", uniform, spreadSpelling(func(_ float64, lit string) string {
			if strings.Contains(lit, ".") {
				return lit + "0"
			}
			return lit + ".0"
		}), true},
		{"float 1e0 form", uniform, spreadSpelling(func(f float64, _ string) string { return strconv.FormatFloat(f, 'e', -1, 64) }), true},
		{"float 5E-1 form", uniform, spreadSpelling(func(f float64, _ string) string { return strconv.FormatFloat(f, 'E', -1, 64) }), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ctl.journal")
			p := newTestPlane(t, Config{JournalPath: path, LeaseTTL: time.Minute})
			srv := httptest.NewServer(p.Handler())
			defer srv.Close()
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
			id := mustSubmit(t, p, "alice", c.spec, 1, 0)
			l := firstLease(t, p.LeaseBatch(time.Now(), 1))
			rep, err := campaign.ExecuteLease(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			honest, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			data := c.respell(t, honest)
			if bytes.Equal(data, honest) {
				t.Fatalf("respelling left the report as json.Marshal writes it:\n%s", data)
			}
			body := fmt.Appendf(nil, `{"reports":[{"campaign":%q,"lease_id":%q,"shard":%d,"report":%s}]}`, id, l.ID, l.Slot, data)
			got, canonical, err := campaign.DecodeReportBatch(body)
			var want campaign.ReportBatchRequest
			if werr := json.Unmarshal(body, &want); werr != nil || err != nil || canonical || !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeReportBatch (canonical %v, %v) decoded %+v, encoding/json (%v) %+v", canonical, err, got, werr, want)
			}
			journaled := p.JournalStats().Events
			fallbacks := mFallbacks.Value()
			out := post(body)
			if d := mFallbacks.Value() - fallbacks; d != 1 {
				t.Errorf("moved controlplane_report_decode_fallbacks by %d, want 1", d)
			}
			if !c.accepted {
				if len(out) != 1 || out[0].Code != http.StatusBadRequest || p.JournalStats().Events != journaled {
					t.Fatalf("outcome %+v, journaled %d events; want one 400 and none", out, p.JournalStats().Events-journaled)
				}
				return
			}
			if len(out) != 1 || out[0].Code != 0 {
				t.Fatalf("outcome %+v, want accepted", out)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSuffix(file, []byte("\n")), []byte("\n"))
			line, err := json.Marshal(journalEvent{Event: evReport, Campaign: id, Slot: l.Slot, Report: want.Reports[0].Report})
			if err != nil || !bytes.Equal(lines[len(lines)-1], line) {
				t.Fatalf("journal line\n%s\njson.Marshal writes\n%s (%v)", lines[len(lines)-1], line, err)
			}
		})
	}
}

// TestFinalReportRouteIsMarshalIndent: GET /v1/campaigns/{id}/report,
// written by the wire codec and indented, is json.MarshalIndent of the
// merged report's inner surface report, on every surface, uniform and
// stratified.
func TestFinalReportRouteIsMarshalIndent(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for _, spec := range surfaceSpecs() {
		id := mustSubmit(t, p, "alice", spec, 1, 0)
		for st, _ := p.Get("", id); st.State == StateActive; st, _ = p.Get("", id) {
			leases := p.LeaseBatch(time.Now(), 8).Leases
			if len(leases) == 0 {
				t.Fatalf("%s/%s: active with nothing leasable", spec.Surface, spec.Sampling)
			}
			for _, l := range leases {
				rep, err := campaign.ExecuteLease(l, nil)
				if err == nil {
					err = p.ReportBatch([]campaign.ReportRequest{{Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: rep}})[0]
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		_, r, _, err := p.Result("", id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(r.Inner(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Get(srv.URL + "/v1/campaigns/" + id + "/report")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: the route answered %s (%v)\n%s\njson.MarshalIndent writes\n%s", spec.Surface, spec.Sampling, resp.Status, err, got, want)
		}
	}
}

// ingestSpec is fleet-ingest's campaign shape: uniform ConvNet FLOAT16
// slot reports of 4 injections with up to 32 tracked values each.
var ingestSpec = campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 256, Inputs: 1, Seed: 1, Shards: 64, TrackValues: 32}

// wireReports returns rs as the plane holds them: decoded from the body a
// worker posts for them, so each keeps its wire bytes.
func wireReports(tb testing.TB, campaignID string, rs []*campaign.Report) []campaign.ReportRequest {
	tb.Helper()
	var batch campaign.ReportBatchRequest
	for slot, r := range rs {
		batch.Reports = append(batch.Reports, campaign.ReportRequest{Campaign: campaignID, LeaseID: fmt.Sprintf("L%d-s%d", slot+1, slot), Shard: slot, Report: r})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		tb.Fatal(err)
	}
	decoded, canonical, err := campaign.DecodeReportBatch(body)
	if !canonical || err != nil {
		tb.Fatalf("a worker's body decoded off the canonical path (%v)", err)
	}
	return decoded.Reports
}

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestJournalCommitAllocationGate: on a warm journal, enqueueing 32
// fleet-ingest-shaped report events and waiting for their commit allocates
// less than 512 B per event — the committer hands the buffer it wrote back
// as the next pending one, and each report line copies its wire bytes.
// Regrowing the pending buffer from nil after every commit cost ~6.9 KB.
func TestJournalCommitAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations, so counts differ from a plain build")
	}
	var events []journalEvent
	for _, q := range wireReports(t, "c1", honestSlots(t, ingestSpec)[:32]) {
		events = append(events, journalEvent{Event: evReport, Campaign: q.Campaign, Slot: q.Shard, Report: q.Report})
	}
	jl, err := openJournal(filepath.Join(t.TempDir(), "ctl.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jl.start()
	defer jl.Close()
	waits := make([]func() error, len(events))
	commit := func() {
		for i := range events {
			waits[i] = jl.enqueue(events[i])
		}
		for _, wait := range waits {
			if err := wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 10 {
		commit()
	}
	const batches = 100
	perEvent := float64(allocated(func() {
		for range batches {
			commit()
		}
	})) / float64(batches*len(events))
	t.Logf("enqueue→commit allocates %.0f B per event", perEvent)
	if perEvent >= 512 {
		t.Errorf("enqueue→commit allocates %.0f B per event, want < 512", perEvent)
	}
}

// TestCompactionAllocationGate: compacting at least 4 MiB of live
// fleet-ingest-shaped state allocates less than half the size of the file
// it writes — the snapshot streams through one buffered writer and one
// reused line buffer instead of being built whole — and the file is the
// header plus each live event's appendEvent line. Building the snapshot
// in one slice cost ~6× the file.
func TestCompactionAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations, so counts differ from a plain build")
	}
	honest := honestSlots(t, ingestSpec)
	path := filepath.Join(t.TempDir(), "ctl.journal")
	p := newTestPlane(t, Config{JournalPath: path, LeaseTTL: time.Hour})
	// Every slot but the last reports, so every campaign stays live.
	for p.JournalStats().Bytes < 4<<20 {
		id := mustSubmit(t, p, "alice", ingestSpec, 1, 0)
		if n := len(p.LeaseBatch(time.Now(), len(honest)).Leases); n != len(honest) {
			t.Fatalf("granted %d leases, want %d", n, len(honest))
		}
		for i, err := range p.ReportBatch(wireReports(t, id, honest[:len(honest)-1])) {
			if err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
		}
	}
	alloc := allocated(func() {
		if err := p.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(alloc) / float64(len(file))
	t.Logf("compaction of a %d B snapshot allocated %d B (%.2f×)", len(file), alloc, ratio)
	if len(file) < 4<<20 || ratio >= 0.5 {
		t.Errorf("compaction of a %d B snapshot allocated %.2f× its size, want a snapshot ≥ 4 MiB at < 0.5×", len(file), ratio)
	}
	seq, events, _ := p.compactionSnapshot()
	want, err := json.Marshal(journalHeader{Version: journalVersion, Seq: seq})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	for _, e := range events {
		if want, err = appendEvent(want, e); err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
	}
	if !bytes.Equal(file, want) {
		t.Errorf("the compacted journal (%d B) is not the header plus the live events' lines (%d B)", len(file), len(want))
	}
	if got := p.JournalStats().Bytes; got != int64(len(file)) {
		t.Errorf("the journal counts %d B after compaction, its file holds %d", got, len(file))
	}
}

// TestSnapshotEncodeFailureLeavesJournal: a snapshot whose event fails to
// encode part-way — a +Inf spread sum, after more lines than the writer
// buffers — leaves no temp file and the old journal as it was.
func TestSnapshotEncodeFailureLeavesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.journal")
	p := newTestPlane(t, Config{JournalPath: path, LeaseTTL: time.Minute})
	id := mustSubmit(t, p, "alice", ingestSpec, 1, 0)
	honest := honestSlots(t, ingestSpec)
	p.LeaseBatch(time.Now(), len(honest))
	for i, err := range p.ReportBatch(wireReports(t, id, honest[:len(honest)-1])) {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seq, events, _ := p.compactionSnapshot()
	bad := *honest[0].Datapath
	bad.SpreadSum = slices.Clone(bad.SpreadSum)
	bad.SpreadSum[0] = math.Inf(1)
	events = append(events, &journalEvent{Event: evReport, Campaign: id, Slot: len(honest) - 1, Report: &campaign.Report{Datapath: &bad}})
	if len(old) <= 64<<10 {
		t.Fatalf("the journal holds %d B: a snapshot of its events fits the writer's buffer, so none reaches the temp file before the bad event", len(old))
	}
	if f, _, err := writeSnapshotFile(path, seq, events); err == nil || !strings.Contains(err.Error(), "encoding journal snapshot event") {
		if f != nil {
			f.Close()
		}
		t.Fatalf("writeSnapshotFile with a +Inf spread sum returned %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("the failed snapshot left its temp file (%v)", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Errorf("the failed snapshot changed the journal (%v)", err)
	}
}

// BenchmarkReportIntake is the plane's per-batch intake cost at
// fleet-ingest's shape (32 uniform ConvNet FLOAT16 slot reports of 4
// injections with 32 tracked values each): decoding the POST /v1/reports
// body, and encoding the 32 journal lines, through the wire codec and
// through encoding/json; the 32 events of reports decoded from a body
// through the journal's enqueue and commit; and the body through the
// reports route, decode, ledger and journal included.
func BenchmarkReportIntake(b *testing.B) {
	spec := ingestSpec
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
	b.Run("journal/enqueue", func(b *testing.B) {
		var wired []journalEvent
		for _, q := range wireReports(b, "c1", honestSlots(b, spec)[:32]) {
			wired = append(wired, journalEvent{Event: evReport, Campaign: q.Campaign, Slot: q.Shard, Report: q.Report})
		}
		jl, err := openJournal(filepath.Join(b.TempDir(), "ctl.journal"))
		if err != nil {
			b.Fatal(err)
		}
		jl.start()
		defer jl.Close()
		waits := make([]func() error, len(wired))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			for i := range wired {
				waits[i] = jl.enqueue(wired[i])
			}
			for _, wait := range waits {
				if err := wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("route", func(b *testing.B) {
		// Each iteration delivers every slot of a fresh 32-slot campaign, so
		// every report is accepted and journaled and the campaign finishes.
		route := spec
		route.N, route.Shards = 128, 32
		honest := honestSlots(b, route)
		p, err := New(Config{JournalPath: filepath.Join(b.TempDir(), "ctl.journal"), LeaseTTL: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		h := p.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			st, err := p.Submit("local", route, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			var batch campaign.ReportBatchRequest
			for _, l := range p.LeaseBatch(time.Now(), len(honest)).Leases {
				batch.Reports = append(batch.Reports, campaign.ReportRequest{Campaign: st.ID, LeaseID: l.ID, Shard: l.Slot, Report: honest[l.Slot]})
			}
			body, err := json.Marshal(batch)
			if err != nil {
				b.Fatal(err)
			}
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/reports", bytes.NewReader(body))
			b.StartTimer()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK || bytes.Contains(w.Body.Bytes(), []byte(`"code"`)) {
				b.Fatalf("POST /v1/reports: %d %s", w.Code, w.Body.Bytes())
			}
		}
	})
}

// TestCompactionDuringWireIntake: a fleet delivers several campaigns over
// HTTP while the journal compacts back to back, so snapshots are written
// (outside the plane lock, from reports decoded off the wire) while
// campaigns finish and retire their reports' wire bytes. Run under -race
// this is the check that a snapshot reads no report a retiring campaign
// writes; every merged report is solo's, and the journal reopens.
func TestCompactionDuringWireIntake(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.journal")
	p, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	var specs []campaign.Spec
	var ids []string
	for seed := int64(11); seed < 19; seed++ {
		spec := testSpec(seed)
		spec.Shards = 8
		specs = append(specs, spec)
		ids = append(ids, mustSubmit(t, p, "alice", spec, 1, 0))
	}
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				compacted <- nil
				return
			default:
			}
			if err := p.Compact(); err != nil {
				compacted <- err
				return
			}
		}
	}()
	errs := runFleet(t, srv, 2, "", stop)
	for _, id := range ids {
		waitState(t, p, id, StateDone)
	}
	close(stop)
	for range 2 {
		<-errs
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := p.FinalReportJSON("alice", id)
		if want := soloBytes(t, specs[i]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("campaign %s: final report differs from solo's (%v)", id, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	newTestPlane(t, Config{JournalPath: path, LeaseTTL: time.Minute})
}
