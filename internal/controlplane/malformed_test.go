package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sdc"
)

// padding is an endless run of spaces: the whitespace before a JSON value
// that never comes, as long as its reader cares to make it.
type padding struct{}

func (padding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestMalformedReportsRefusedOverHTTP posts reports of the right surface
// but the wrong shape, or with tallies no slot of the campaign could have
// produced — from a worker holding a real lease — through
// POST /v1/reports, with a stream subscriber attached (the broadcast after
// an accept is where a mis-shaped report used to panic under the plane
// lock). Every one must come back as a per-report 4xx with no journal
// event and no ledger change — as must a submit whose spec would panic the
// workers that run it, and (413) any request whose body exceeds the plane's
// bound; List, Get and the stream must stay responsive; and
// the journal must replay on a reopened plane that then
// finishes both campaigns byte-equal to solo.
func TestMalformedReportsRefusedOverHTTP(t *testing.T) {
	uni := testSpec(31)
	strat := campaign.Spec{
		Net: "ConvNet", DType: "16b_rb10", N: 60, Inputs: 2, Seed: 32,
		Shards: 3, Surface: "buffer", Buffer: "psum", Sampling: "stratified",
	}
	sys := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: 30, Inputs: 1, Seed: 33, Shards: 2, Surface: "systolic"}
	wantUni, wantStrat, wantSys := soloBytes(t, uni), soloBytes(t, strat), soloBytes(t, sys)

	journal := filepath.Join(t.TempDir(), "ctl.journal")
	p1, err := New(Config{JournalPath: journal, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p1.Handler())
	client := srv.Client()
	client.Timeout = 10 * time.Second // a wedged plane fails the test instead of hanging it
	idUni := mustSubmit(t, p1, "alice", uni, 1, 0)
	idStrat := mustSubmit(t, p1, "bob", strat, 1, 0)
	idSys := mustSubmit(t, p1, "carol", sys, 1, 0)

	// The stream subscriber, attached before any report lands.
	lines := make(chan string, 64)
	streamResp, err := srv.Client().Get(srv.URL + "/v1/campaigns/" + idUni + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(streamResp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for subscribed := false; !subscribed; time.Sleep(time.Millisecond) {
		p1.mu.Lock()
		subscribed = len(p1.camps[idUni].subs) == 1
		p1.mu.Unlock()
	}

	post := func(path string, in, out any) {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	var leased campaign.LeaseResponse
	post("/v1/lease", campaign.LeaseRequest{Max: 16}, &leased)
	byCampaign := map[string]*campaign.Lease{}
	for _, l := range leased.Leases {
		if byCampaign[l.Campaign] == nil {
			byCampaign[l.Campaign] = l
		}
	}
	lu, ls, ly := byCampaign[idUni], byCampaign[idStrat], byCampaign[idSys]
	if lu == nil || ls == nil || ly == nil || ls.Phase != "pilot" {
		t.Fatalf("want a uniform, a pilot and a systolic lease, got %+v / %+v / %+v", lu, ls, ly)
	}
	// The leases' honest reports, and forgeries of them: a deep copy with
	// one tally changed.
	honest := map[*campaign.Lease]*campaign.Report{}
	for _, l := range []*campaign.Lease{lu, ls, ly} {
		if honest[l], err = campaign.ExecuteLease(l, nil); err != nil {
			t.Fatal(err)
		}
	}
	forged := func(l *campaign.Lease, forge func(r *campaign.Report)) string {
		b, err := json.Marshal(honest[l])
		if err != nil {
			t.Fatal(err)
		}
		var r campaign.Report
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		forge(&r)
		if b, err = json.Marshal(&r); err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	blocks20 := "[" + strings.TrimSuffix(strings.Repeat("{},", 20), ",") + "]"
	bad := []struct {
		lease *campaign.Lease
		body  string
	}{
		{lu, `null`},
		{lu, `{}`},
		{lu, `{"datapath":{"PerBit":[],"PerBlock":` + blocks20 + `}}`},
		{lu, `{"datapath":{"PerBit":[{}],"PerBlock":[{},{},{},{},{}],"SpreadSum":[0,0,0,0,0],"SpreadN":[0,0,0,0,0]}}`},
		{lu, `{"buffer":{}}`},
		{lu, `{"datapath":{},"systolic":{}}`},
		{ls, `{"buffer":{}}`}, // a pilot slot without strata
		{ls, `{"buffer":{"Strata":{"blocks":5,"bits":16,"weight":[],"counts":[]}}}`},
		{ls, `{"buffer":{"Strata":{"blocks":1,"bits":1,"weight":["0"],"counts":[{}]}}}`},
		// Tallies no run of injections produces, everywhere a report
		// carries one.
		{lu, forged(lu, func(r *campaign.Report) {
			r.Datapath.Counts.Hits[sdc.SDC1] = r.Datapath.Counts.DefinedTrials[sdc.SDC1] + 1
		})},
		{lu, forged(lu, func(r *campaign.Report) { r.Datapath.PerBit[3].Hits[sdc.SDC5] = -1 })},
		{lu, forged(lu, func(r *campaign.Report) {
			r.Datapath.PerBlock[1].DefinedTrials[sdc.SDC1] = r.Datapath.PerBlock[1].Trials + 1
		})},
		{lu, forged(lu, func(r *campaign.Report) { r.Datapath.PerTarget[0].Trials = -1 })},
		{ly, forged(ly, func(r *campaign.Report) { r.Systolic.PerLatch[2].Hits[sdc.SDC1] = -1 })},
		{ls, forged(ls, func(r *campaign.Report) {
			r.Buffer.Strata.Counts[0].Hits[sdc.SDC1], r.Buffer.Strata.Counts[0].DefinedTrials[sdc.SDC1] = -1_000_000, 0
		})},
		// Strata that do not sum to the overall tally.
		{ls, forged(ls, func(r *campaign.Report) { r.Buffer.Strata.Counts[0].Trials++ })},
		// A consistent report of more injections than the slot runs.
		{lu, forged(lu, func(r *campaign.Report) { r.Datapath.Counts.Trials++ })},
	}
	var batch struct {
		Reports []json.RawMessage `json:"reports"`
	}
	for _, b := range bad {
		batch.Reports = append(batch.Reports, json.RawMessage(fmt.Sprintf(
			`{"campaign":%q,"lease_id":%q,"shard":%d,"report":%s}`, b.lease.Campaign, b.lease.ID, b.lease.Slot, b.body)))
	}
	events := p1.JournalStats().Events
	var outcome campaign.ReportBatchResponse
	post("/v1/reports", batch, &outcome)
	if len(outcome.Results) != len(bad) {
		t.Fatalf("%d outcomes for %d reports", len(outcome.Results), len(bad))
	}
	for i, oc := range outcome.Results {
		if oc.Code < 400 || oc.Code >= 500 {
			t.Errorf("malformed report %d (%s): code %d %q, want a 4xx", i, bad[i].body, oc.Code, oc.Error)
		}
	}
	if got := p1.JournalStats().Events; got != events {
		t.Errorf("refused reports left %d journal events", got-events)
	}

	// A spec that would kill every worker that leased it — perlayer's block
	// past ConvNet's five MAC layers indexes out of range inside a shard
	// goroutine, two billion inputs are two billion goldens to prepare — or
	// the plane itself, whose ledger holds one entry per shard, is refused
	// at submit, with nothing journaled to re-lease it from after a restart.
	for name, spec := range map[string]campaign.Spec{
		"out-of-range perlayer": {Net: "ConvNet", N: 40, Select: "perlayer", Param: 99},
		"unbounded inputs":      {Net: "ConvNet", N: 1, Inputs: 2_000_000_000},
		"unbounded shards":      {Net: "ConvNet", N: 2_000_000_000, Shards: 2_000_000_000},
	} {
		hostile, _ := json.Marshal(SubmitRequest{Spec: spec})
		sub, err := client.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(hostile))
		if err != nil {
			t.Fatalf("POST /v1/campaigns: %v", err)
		}
		sub.Body.Close()
		if sub.StatusCode < 400 || sub.StatusCode >= 500 {
			t.Errorf("%s spec: %s, want a 4xx", name, sub.Status)
		}
		if got := p1.JournalStats().Events; got != events {
			t.Errorf("refused %s submit left %d journal events", name, got-events)
		}
	}

	// A body past its route's bound is refused on every route that reads one
	// before any of it is acted on. One that declares its length is refused
	// unread: the client waits for 100 Continue and never sends it.
	bound := map[string]int64{"/v1/campaigns": maxRequestBytes, "/v1/lease": maxRequestBytes,
		"/v1/heartbeat": maxRequestBytes, "/v1/reports": maxBodyBytes}
	oversized := func(path string, declared bool) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+path, io.LimitReader(padding{}, bound[path]+1))
		if err != nil {
			t.Fatal(err)
		}
		if declared {
			req.ContentLength = bound[path] + 1
			req.Header.Set("Expect", "100-continue")
		}
		big, err := client.Do(req)
		if err != nil {
			t.Fatalf("POST %s with an oversized body: %v", path, err)
		}
		big.Body.Close()
		if big.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with an oversized body (declared=%v): %s, want 413", path, declared, big.Status)
		}
		if got := p1.JournalStats().Events; got != events {
			t.Errorf("oversized POST %s left %d journal events", path, got-events)
		}
	}
	client.Transport.(*http.Transport).ExpectContinueTimeout = client.Timeout
	for _, path := range []string{"/v1/campaigns", "/v1/lease", "/v1/heartbeat", "/v1/reports"} {
		oversized(path, true)
	}
	// A chunked body has to be read up to the bound to be refused — on the
	// lease route too, which tolerates every other body it cannot decode.
	oversized("/v1/lease", false)

	// The plane still answers, and nothing completed.
	resp, err := client.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatalf("List after the refusals: %v", err)
	}
	resp.Body.Close()
	for _, id := range []string{idUni, idStrat, idSys} {
		resp, err := client.Get(srv.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatalf("Get %s after the refusals: %v", id, err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.State != StateActive || st.Snapshot.CompletedShards != 0 || st.InFlight == 0 {
			t.Fatalf("campaign %s after the refusals: %+v (%v)", id, st, err)
		}
	}

	// The leases are still good: their real reports land, and the stream
	// subscriber hears about it.
	for _, l := range []*campaign.Lease{lu, ls, ly} {
		req := campaign.ReportBatchRequest{Reports: []campaign.ReportRequest{{Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: honest[l]}}}
		var ok campaign.ReportBatchResponse
		post("/v1/reports", req, &ok)
		if len(ok.Results) != 1 || ok.Results[0].Code != 0 {
			t.Fatalf("well-formed report refused: %+v", ok.Results)
		}
	}
	for heard := false; !heard; {
		select {
		case line := <-lines:
			var st Status
			if err := json.Unmarshal([]byte(line), &st); err != nil {
				t.Fatalf("stream line %s: %v", line, err)
			}
			heard = st.Snapshot.CompletedShards == 1
		case <-time.After(10 * time.Second):
			t.Fatal("stream never reported the accepted shard")
		}
	}
	streamResp.Body.Close()
	srv.Close()
	p1.Close()

	// Reopen on the same journal: it holds the three submits and the three
	// real reports, replays cleanly, and every campaign finishes equal to
	// solo.
	p2 := newTestPlane(t, Config{JournalPath: journal, LeaseTTL: time.Minute})
	srv2 := httptest.NewServer(p2.Handler())
	defer srv2.Close()
	for _, id := range []string{idUni, idStrat, idSys} {
		if st, err := p2.Get("", id); err != nil || st.Snapshot.ResumedShards != 1 {
			t.Fatalf("campaign %s after replay: %+v (%v)", id, st.Snapshot, err)
		}
	}
	stop := make(chan struct{})
	errs := runFleet(t, srv2, 2, "", stop)
	waitState(t, p2, idUni, StateDone)
	waitState(t, p2, idStrat, StateDone)
	waitState(t, p2, idSys, StateDone)
	close(stop)
	for i := 0; i < 2; i++ {
		<-errs
	}
	for id, want := range map[string][]byte{idUni: wantUni, idStrat: wantStrat, idSys: wantSys} {
		got, err := p2.FinalReportJSON("", id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("campaign %s diverged from solo after the replay", id)
		}
	}
}
