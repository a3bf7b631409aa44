package controlplane

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestFinishedCampaignDropsExpvarKeys: the per-campaign counters in
// /debug/vars exist for active campaigns only. A campaign that completes
// and one that is cancelled both leave no key behind — the map used to keep
// three per campaign ID for as long as the plane ran — while a campaign
// still running keeps its own.
func TestFinishedCampaignDropsExpvarKeys(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	small := testSpec(41)
	small.N, small.Shards = 8, 2
	done := mustSubmit(t, p, "alice", small, 1, 0)
	cancelled := mustSubmit(t, p, "alice", testSpec(42), 1, 0)
	active := mustSubmit(t, p, "alice", testSpec(43), 1, 0)

	var reports []campaign.ReportRequest
	for _, l := range p.LeaseBatch(time.Now(), 16).Leases {
		if l.Campaign != done {
			continue
		}
		rep, err := campaign.ExecuteLease(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, campaign.ReportRequest{Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: rep})
	}
	for _, err := range p.ReportBatch(reports) {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, p, done, StateDone)
	if err := p.Cancel("alice", cancelled); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Campaign map[string]int64 `json:"campaign"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for k := range vars.Campaign {
		if id, _, _ := strings.Cut(k, "."); id == done || id == cancelled {
			t.Errorf("/debug/vars still holds %q of a terminal campaign", k)
		}
	}
	if vars.Campaign[active+".leases_granted"] == 0 {
		t.Errorf("/debug/vars lost the active campaign's lease counter: %v", vars.Campaign)
	}
}
