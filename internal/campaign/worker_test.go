package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// TestWorkerSurvivesFailedLeases hands a worker, from a fake plane, a
// main-phase lease whose allocation table has the wrong budget (the slot
// panics in the engine), a lease of an unknown surface (an error) and a
// good lease. The worker logs the two failures with their campaign, slot
// and lease, keeps serving, reports only the good lease, and returns nil
// from Run after Drain.
func TestWorkerSurvivesFailedLeases(t *testing.T) {
	strat := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: 24, Inputs: 1, Seed: 3, Shards: 2,
		Surface: "buffer", Buffer: "psum", Sampling: "stratified"}
	good := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: 8, Inputs: 1, Seed: 4, Shards: 2, Surface: "buffer", Buffer: "psum"}
	for _, s := range []*campaign.Spec{&strat, &good} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if phase, _ := strat.SlotPhase(1); phase != engine.PhaseMain {
		t.Fatalf("slot 1 of the stratified spec is %q", phase)
	}
	leases := []*campaign.Lease{
		{ID: "L1-s1", Campaign: "wrong-table", Slot: 1, Spec: strat, Phase: engine.PhaseMain,
			Table: &engine.StratumTable{MainN: 12345}, TTLMillis: 60_000},
		{ID: "L1-s0", Campaign: "no-surface", Spec: campaign.Spec{Net: "ConvNet", N: 8, Surface: "pipeline"}, TTLMillis: 60_000},
		{ID: "L2-s0", Campaign: "good", Spec: good, TTLMillis: 60_000},
	}
	want, err := campaign.ExecuteLease(leases[2], nil)
	if err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logs)
	var (
		mu       sync.Mutex
		handed   bool
		reported []campaign.ReportRequest
	)
	gotReport := make(chan struct{}, 1)
	plane := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/v1/lease":
			var resp campaign.LeaseResponse
			if !handed {
				handed, resp.Leases = true, leases
			} else {
				time.Sleep(5 * time.Millisecond) // nothing leasable
			}
			json.NewEncoder(rw).Encode(resp)
		case "/v1/heartbeat":
			rw.Write([]byte(`{}`))
		case "/v1/reports":
			var req campaign.ReportBatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			reported = append(reported, req.Reports...)
			json.NewEncoder(rw).Encode(campaign.ReportBatchResponse{Results: make([]campaign.ReportOutcome, len(req.Reports))})
			select {
			case gotReport <- struct{}{}:
			default:
			}
		default:
			http.NotFound(rw, r)
		}
	}))
	defer plane.Close()

	w := &campaign.Worker{Base: plane.URL, Name: "w", Procs: 1}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case <-gotReport:
	case err := <-done:
		t.Fatalf("Run returned %v before reporting the good lease", err)
	case <-time.After(30 * time.Second):
		t.Fatal("the good lease was never reported")
	}
	w.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Drain")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reported) != 1 || reported[0].Campaign != "good" || reported[0].LeaseID != "L2-s0" {
		t.Fatalf("reported %+v, want the good lease alone", reported)
	}
	gotJSON, _ := json.Marshal(reported[0].Report)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("good lease reported %s, want %s", gotJSON, wantJSON)
	}
	out := logs.String()
	for _, l := range leases[:2] {
		if !strings.Contains(out, "campaign "+l.Campaign) || !strings.Contains(out, "lease "+l.ID) {
			t.Errorf("no log line for failed lease %s of %s:\n%s", l.ID, l.Campaign, out)
		}
	}
	if !strings.Contains(out, "panic: engine: stratum table allocates") || !strings.Contains(out, "runtime/debug.Stack") {
		t.Errorf("the panicking lease's log line carries no panic value and stack:\n%s", out)
	}
}
