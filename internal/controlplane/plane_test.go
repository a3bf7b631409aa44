package controlplane

import (
	"bytes"
	"context"
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
)

func testSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Net:    "ConvNet",
		DType:  "FLOAT16",
		N:      60,
		Inputs: 2,
		Seed:   seed,
		Shards: 4,
	}
}

func newTestPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func mustSubmit(t *testing.T, p *Plane, tenant string, spec campaign.Spec, priority, quota int) string {
	t.Helper()
	st, err := p.Submit(tenant, spec, priority, quota)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// firstLease returns the lease a max-1 grant carries, or nil when it
// carries none; more than one fails the test.
func firstLease(t testing.TB, resp campaign.LeaseResponse) *campaign.Lease {
	t.Helper()
	switch len(resp.Leases) {
	case 0:
		return nil
	case 1:
		return resp.Leases[0]
	}
	t.Fatalf("a max-1 grant carried %d leases", len(resp.Leases))
	return nil
}

// drainLeases pulls leases without ever reporting, recording the grant
// order per campaign, until the plane has nothing left to hand out.
func drainLeases(t *testing.T, p *Plane, now time.Time) []string {
	t.Helper()
	var order []string
	for {
		l := firstLease(t, p.LeaseBatch(now, 1))
		if l == nil {
			return order
		}
		order = append(order, l.Campaign)
	}
}

// TestFairShareDRR submits three campaigns with priorities 4, 2 and 1 —
// the priority-1 tenant is the one a naive highest-priority-first
// scheduler would starve — and checks that deficit round-robin hands out
// priority-proportional bursts while still visiting every campaign each
// cycle.
func TestFairShareDRR(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute})
	// 16 shards each so one full DRR cycle (4+2+1 leases) never exhausts a
	// campaign mid-pattern.
	spec := testSpec(1)
	spec.Shards = 16
	spec.N = 160
	a := mustSubmit(t, p, "alice", spec, 4, 0)
	spec.Seed = 2
	b := mustSubmit(t, p, "bob", spec, 2, 0)
	spec.Seed = 3
	c := mustSubmit(t, p, "carol", spec, 1, 0)

	order := drainLeases(t, p, time.Now())
	if len(order) != 48 {
		t.Fatalf("granted %d leases, want 48", len(order))
	}
	// The ring serves A×4, B×2, C×1 per cycle until A (16 shards) runs dry
	// after 4 cycles, then B×2 C×1 until B runs dry, then C alone.
	want := []string{a, a, a, a, b, b, c}
	for i := 0; i < 4*7; i++ {
		if order[i] != want[i%7] {
			t.Fatalf("lease %d went to %s, want %s (order %v)", i, order[i], want[i%7], order[:i+1])
		}
	}
	// The starved-priority campaign gets exactly one lease per cycle — it
	// is never skipped.
	counts := map[string]int{}
	for _, id := range order[:28] {
		counts[id]++
	}
	if counts[a] != 16 || counts[b] != 8 || counts[c] != 4 {
		t.Fatalf("shares over 4 cycles: %v, want %s=16 %s=8 %s=4", counts, a, b, c)
	}
}

// TestQuotaEnforcement caps one campaign at 2 in-flight leases and checks
// the plane never exceeds it, resumes granting after a report frees a
// slot, and falls back to Config.DefaultQuota when the submission has
// none.
func TestQuotaEnforcement(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute, DefaultQuota: 3})
	id := mustSubmit(t, p, "alice", testSpec(1), 1, 2)

	now := time.Now()
	order := drainLeases(t, p, now)
	if len(order) != 2 {
		t.Fatalf("quota 2 but %d leases granted", len(order))
	}
	st, _ := p.Get("alice", id)
	if st.InFlight != 2 {
		t.Fatalf("in-flight %d, want 2", st.InFlight)
	}

	// Defaulted quota: a second campaign without one inherits DefaultQuota.
	id2 := mustSubmit(t, p, "bob", testSpec(2), 1, 0)
	st2, _ := p.Get("bob", id2)
	if st2.Quota != 3 {
		t.Fatalf("defaulted quota %d, want 3", st2.Quota)
	}
	if extra := drainLeases(t, p, now); len(extra) != 3 {
		t.Fatalf("default quota 3 but %d leases granted", len(extra))
	}
}

// TestCancellationMidLease cancels a campaign while a worker holds a
// live lease: the lease dies at its next heartbeat, the late report is
// dropped without error, remaining shards are never handed out, and the
// owner check refuses a cross-tenant cancel.
func TestCancellationMidLease(t *testing.T) {
	auth, err := NewAuthenticator(map[string]string{"alice": "ka", "mallory": "km"})
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlane(t, Config{LeaseTTL: time.Minute, Auth: auth})
	id := mustSubmit(t, p, "alice", testSpec(1), 1, 0)

	now := time.Now()
	l := firstLease(t, p.LeaseBatch(now, 1))
	if l == nil {
		t.Fatal("no lease granted")
	}

	if err := p.Cancel("mallory", id); err == nil {
		t.Fatal("cross-tenant cancel succeeded")
	}
	if err := p.Cancel("alice", id); err != nil {
		t.Fatal(err)
	}
	if err := p.Cancel("alice", id); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}

	hb := campaign.HeartbeatRequest{Campaign: id, LeaseID: l.ID}
	if p.heartbeat(hb, now) {
		t.Fatal("heartbeat survived cancellation")
	}
	if got := p.LeaseBatch(now, 1); len(got.Leases) != 0 {
		t.Fatalf("cancelled campaign still leasing shard %d", got.Leases[0].Shard)
	}
	// The worker finishes anyway and posts: silently dropped.
	rep := campaign.ReportRequest{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: &campaign.Report{}}
	if err := p.ReportBatch([]campaign.ReportRequest{rep})[0]; err != nil {
		t.Fatalf("late report for cancelled campaign errored: %v", err)
	}
	st, _ := p.Get("alice", id)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
}

// runFleet drives n workers against the plane's HTTP handler until stop
// closes — ended externally because a plane is never "done".
func runFleet(t *testing.T, srv *httptest.Server, n int, token string, stop chan struct{}) chan error {
	t.Helper()
	errs := make(chan error, n)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-stop; cancel() }()
	for i := 0; i < n; i++ {
		w := &campaign.Worker{
			Base:    srv.URL,
			Name:    fmt.Sprintf("w%d", i),
			GiveUp:  10 * time.Second,
			Client:  srv.Client(),
			Token:   token,
			Goldens: campaign.NewGoldenCache(),
		}
		go func() { errs <- w.Run(ctx) }()
	}
	return errs
}

func waitState(t *testing.T, p *Plane, id, state string) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		st, err := p.Get("", id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		if st.State != StateActive {
			t.Fatalf("campaign %s reached %s, want %s", id, st.State, state)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, _ := p.Get("", id)
	t.Fatalf("campaign %s stuck %s (completed %d), want %s", id, st.State, st.Snapshot.CompletedShards, state)
}

func soloBytes(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	r, _, err := campaign.SoloReport(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(r.Inner(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSharedFleetMatchesSolo runs three concurrent campaigns — one
// stratified datapath, one uniform buffer, one stratified systolic
// campaign — through one worker fleet and requires each merged report to
// be byte-identical to its solo run. The stratified campaigns'
// pilot→allocation boundaries are crossed while the other campaigns'
// shards interleave on the same workers.
func TestSharedFleetMatchesSolo(t *testing.T) {
	dp := testSpec(11)
	dp.Sampling = "stratified"
	dp.PilotN = 20
	buf := campaign.Spec{
		Net: "ConvNet", DType: "FLOAT16", N: 60, Inputs: 2, Seed: 12,
		Shards: 4, Surface: "buffer", Buffer: "global",
	}
	sys := campaign.Spec{
		Net: "ConvNet", DType: "16b_rb10", N: 60, Inputs: 2, Seed: 13,
		Shards: 3, Surface: "systolic", Sampling: "stratified",
	}
	wantDP := soloBytes(t, dp)
	wantBuf := soloBytes(t, buf)
	wantSys := soloBytes(t, sys)

	p := newTestPlane(t, Config{LeaseTTL: 10 * time.Second})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	idDP := mustSubmit(t, p, "alice", dp, 4, 0)
	idBuf := mustSubmit(t, p, "bob", buf, 1, 0)
	idSys := mustSubmit(t, p, "carol", sys, 2, 0)

	stop := make(chan struct{})
	errs := runFleet(t, srv, 3, "", stop)
	waitState(t, p, idDP, StateDone)
	waitState(t, p, idBuf, StateDone)
	waitState(t, p, idSys, StateDone)
	close(stop)
	for i := 0; i < 3; i++ {
		<-errs
	}

	gotDP, err := p.FinalReportJSON("alice", idDP)
	if err != nil {
		t.Fatal(err)
	}
	gotBuf, err := p.FinalReportJSON("bob", idBuf)
	if err != nil {
		t.Fatal(err)
	}
	gotSys, err := p.FinalReportJSON("carol", idSys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDP, wantDP) {
		t.Fatalf("stratified datapath report diverged from solo (%d vs %d bytes)", len(gotDP), len(wantDP))
	}
	if !bytes.Equal(gotBuf, wantBuf) {
		t.Fatalf("buffer report diverged from solo (%d vs %d bytes)", len(gotBuf), len(wantBuf))
	}
	if !bytes.Equal(gotSys, wantSys) {
		t.Fatalf("systolic report diverged from solo (%d vs %d bytes)", len(gotSys), len(wantSys))
	}
}

// TestWorkerStopsWithoutDone: a plane never answers "done", so a worker's
// exits are its own. Run must return nil on ctx cancel, on Drain (after
// delivering everything it holds) and at MaxLeases (after exactly that
// many slots) — each while its campaign is still active with slots left.
func TestWorkerStopsWithoutDone(t *testing.T) {
	spec := testSpec(41)
	spec.N, spec.Shards = 640, 64 // far more slots than any stop below lets through

	cases := []struct {
		name      string
		maxLeases int
		stop      func(w *campaign.Worker, cancel context.CancelFunc)
	}{
		{"ctx cancel", 0, func(_ *campaign.Worker, cancel context.CancelFunc) { cancel() }},
		{"drain", 0, func(w *campaign.Worker, _ context.CancelFunc) { w.Drain() }},
		{"max leases", 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A plane of its own: a cancelled worker's last lease request
			// can reach the plane after Run returned, and must not take a
			// slot of the next case's campaign.
			p := newTestPlane(t, Config{LeaseTTL: 10 * time.Second})
			srv := httptest.NewServer(p.Handler())
			defer srv.Close()
			id := mustSubmit(t, p, "alice", spec, 1, 0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &campaign.Worker{
				Base: srv.URL, Name: tc.name, Client: srv.Client(), MaxLeases: tc.maxLeases,
				GiveUp: 10 * time.Second, Goldens: campaign.NewGoldenCache(),
			}
			errs := make(chan error, 1)
			go func() { errs <- w.Run(ctx) }()
			if tc.stop != nil {
				for st, _ := p.Get("", id); st.InFlight == 0 && st.Snapshot.CompletedShards == 0; st, _ = p.Get("", id) {
					time.Sleep(time.Millisecond)
				}
				tc.stop(w, cancel)
			}
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("Run returned %v, want nil", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("Run did not return")
			}
			st, err := p.Get("", id)
			if err != nil {
				t.Fatal(err)
			}
			done := st.Snapshot.CompletedShards
			if st.State != StateActive || done >= st.Snapshot.TotalShards {
				t.Fatalf("campaign is %s with %d/%d slots; the worker was meant to stop first", st.State, done, st.Snapshot.TotalShards)
			}
			if tc.name != "ctx cancel" && st.InFlight != 0 {
				t.Fatalf("worker exited holding %d undelivered leases", st.InFlight)
			}
			if tc.maxLeases > 0 && done != tc.maxLeases {
				t.Fatalf("MaxLeases %d completed %d slots", tc.maxLeases, done)
			}
		})
	}
}

// TestJournalResumeMidPilot kills the plane (Close + reopen on the same
// journal) while a stratified campaign is mid-pilot and a second campaign
// is partially done, then finishes both on the resumed plane: the resumed
// stratified campaign must rebuild its Neyman table from mixed
// journal-restored and freshly-run pilots and still merge byte-identical
// to solo.
func TestJournalResumeMidPilot(t *testing.T) {
	dp := testSpec(21)
	dp.Sampling = "stratified"
	dp.PilotN = 20
	other := testSpec(22)
	wantDP := soloBytes(t, dp)
	wantOther := soloBytes(t, other)

	journal := filepath.Join(t.TempDir(), "ctl.journal")
	p1, err := New(Config{JournalPath: journal, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	idDP := mustSubmit(t, p1, "alice", dp, 2, 0)
	idOther := mustSubmit(t, p1, "bob", other, 1, 0)

	// Hand-run a few slots: 3 of the 4 datapath pilots and 1 shard of the
	// other campaign, then "crash". The plane's lease carries everything a
	// worker needs, so we execute leases inline via the worker's solo path.
	goldens := campaign.NewGoldenCache()
	done := map[string]int{}
	for done[idDP] < 3 || done[idOther] < 1 {
		l := firstLease(t, p1.LeaseBatch(time.Now(), 1))
		if l == nil {
			t.Fatalf("plane idle before pre-crash work finished: %v", done)
		}
		if l.Campaign == idDP && done[idDP] >= 3 {
			continue // leave this pilot (or gated main) for after resume
		}
		rep, err := campaign.ExecuteLease(l, goldens)
		if err != nil {
			t.Fatal(err)
		}
		if err := p1.ReportBatch([]campaign.ReportRequest{{Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: rep}})[0]; err != nil {
			t.Fatal(err)
		}
		done[l.Campaign]++
	}
	p1.Close()

	// Resume: both campaigns must come back active with their finished
	// slots restored, and run to completion bit-identically.
	p2 := newTestPlane(t, Config{JournalPath: journal, LeaseTTL: time.Minute})
	srv := httptest.NewServer(p2.Handler())
	defer srv.Close()
	stop := make(chan struct{})
	errs := runFleet(t, srv, 2, "", stop)
	waitState(t, p2, idDP, StateDone)
	waitState(t, p2, idOther, StateDone)
	close(stop)
	for i := 0; i < 2; i++ {
		<-errs
	}

	gotDP, err := p2.FinalReportJSON("alice", idDP)
	if err != nil {
		t.Fatal(err)
	}
	gotOther, err := p2.FinalReportJSON("bob", idOther)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDP, wantDP) {
		t.Fatal("resumed stratified campaign diverged from solo")
	}
	if !bytes.Equal(gotOther, wantOther) {
		t.Fatal("resumed uniform campaign diverged from solo")
	}
}

// TestAuthEndpoints checks the HTTP authn contract: with tokens
// configured, mutating and reading endpoints refuse missing/garbage
// tokens with 401 and accept minted ones; without an authenticator the
// loopback dev mode serves unauthenticated requests.
func TestAuthEndpoints(t *testing.T) {
	auth, err := NewAuthenticator(map[string]string{"alice": "secret-a", FleetTenant: "secret-f"})
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlane(t, Config{LeaseTTL: time.Minute, Auth: auth})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := func() *bytes.Reader {
		b, _ := json.Marshal(SubmitRequest{Spec: testSpec(1)})
		return bytes.NewReader(b)
	}
	do := func(token string) int {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/campaigns", body())
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := do(""); got != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", got)
	}
	if got := do("alice.deadbeef"); got != http.StatusUnauthorized {
		t.Fatalf("forged token: %d, want 401", got)
	}
	if got := do("eve.00"); got != http.StatusUnauthorized {
		t.Fatalf("unknown tenant: %d, want 401", got)
	}
	tok, err := auth.Token("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := do(tok); got != http.StatusCreated {
		t.Fatalf("minted token: %d, want 201", got)
	}
	// Worker-facing endpoint is gated too.
	resp, err := srv.Client().Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated lease: %d, want 401", resp.StatusCode)
	}

	// Role separation: the tenant token is refused on every fleet route,
	// the fleet token on every campaign route, and the fleet token is what
	// the fleet routes accept.
	ftok, err := auth.Token(FleetTenant)
	if err != nil {
		t.Fatal(err)
	}
	call := func(method, path, token, payload string) int {
		req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(payload))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/v1/lease", "/v1/heartbeat", "/v1/reports"} {
		if got := call("POST", path, tok, "{}"); got != http.StatusForbidden {
			t.Errorf("tenant token on %s: %d, want 403", path, got)
		}
	}
	for method, path := range map[string]string{
		"GET":  "/v1/campaigns",
		"POST": "/v1/campaigns",
	} {
		if got := call(method, path, ftok, "{}"); got != http.StatusForbidden {
			t.Errorf("fleet token on %s %s: %d, want 403", method, path, got)
		}
	}
	if got := call("POST", "/v1/lease", ftok, "{}"); got != http.StatusOK {
		t.Fatalf("fleet token on /v1/lease: %d, want 200", got)
	}

	// Dev mode: no authenticator, no tokens needed.
	open := newTestPlane(t, Config{LeaseTTL: time.Minute})
	osrv := httptest.NewServer(open.Handler())
	defer osrv.Close()
	oresp, err := osrv.Client().Post(osrv.URL+"/v1/campaigns", "application/json", body())
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusCreated {
		t.Fatalf("dev-mode submit: %d, want 201", oresp.StatusCode)
	}
	sts := open.List("")
	if len(sts) != 1 || sts[0].Tenant != devTenant {
		t.Fatalf("dev-mode tenant %+v, want %q", sts, devTenant)
	}
}

// TestTenantIsolationReadRoutes: with authentication enabled, a tenant
// sees only its own campaigns — listing filters to the caller, and get,
// stream and final-report fetch refuse other tenants' IDs with 403, the
// same owner check cancel already applied.
func TestTenantIsolationReadRoutes(t *testing.T) {
	auth, err := NewAuthenticator(map[string]string{"alice": "ka", "bob": "kb"})
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlane(t, Config{LeaseTTL: time.Minute, Auth: auth})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	idA := mustSubmit(t, p, "alice", testSpec(1), 1, 0)
	mustSubmit(t, p, "bob", testSpec(2), 1, 0)

	get := func(path, tenant string) (int, []byte) {
		tok, err := auth.Token(tenant)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Listing is tenant-filtered: each tenant sees exactly its own.
	for _, tenant := range []string{"alice", "bob"} {
		code, body := get("/v1/campaigns", tenant)
		if code != http.StatusOK {
			t.Fatalf("%s list: %d, want 200", tenant, code)
		}
		var sts []Status
		if err := json.Unmarshal(body, &sts); err != nil {
			t.Fatal(err)
		}
		if len(sts) != 1 || sts[0].Tenant != tenant {
			t.Fatalf("%s list sees %+v, want only its own campaign", tenant, sts)
		}
	}

	// Every per-campaign read route is owner-checked.
	for _, path := range []string{
		"/v1/campaigns/" + idA,
		"/v1/campaigns/" + idA + "/report",
		"/v1/campaigns/" + idA + "/stream",
	} {
		if code, _ := get(path, "bob"); code != http.StatusForbidden {
			t.Errorf("bob on %s: %d, want 403", path, code)
		}
	}
	if code, _ := get("/v1/campaigns/"+idA, "alice"); code != http.StatusOK {
		t.Errorf("alice on her own campaign: %d, want 200", code)
	}
}

// TestForgedReportRefused: the report path only merges results whose
// lease was actually granted for that slot — a structurally-valid report
// with a fabricated or mismatched lease ID is refused, while a late
// delivery from an expired (re-leased) lease still lands.
func TestForgedReportRefused(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute})
	id := mustSubmit(t, p, "alice", testSpec(1), 1, 0)

	now := time.Now()
	l := firstLease(t, p.LeaseBatch(now, 1))
	if l == nil {
		t.Fatal("no lease granted")
	}
	rep, err := campaign.ExecuteLease(l, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, req := range map[string]campaign.ReportRequest{
		"never-granted seq": {Campaign: id, LeaseID: "L99-s0", Shard: l.Slot, Report: rep},
		"empty lease":       {Campaign: id, Shard: l.Slot, Report: rep},
		"garbage lease":     {Campaign: id, LeaseID: "forged", Shard: l.Slot, Report: rep},
		"slot mismatch":     {Campaign: id, LeaseID: l.ID, Shard: l.Slot + 1, Report: rep},
		"trailing garbage":  {Campaign: id, LeaseID: l.ID + "x", Shard: l.Slot, Report: rep},
	} {
		if err := p.ReportBatch([]campaign.ReportRequest{req})[0]; err == nil {
			t.Errorf("%s: forged report accepted", name)
		}
	}
	st, _ := p.Get("", id)
	if st.Snapshot.CompletedShards != 0 {
		t.Fatalf("forged reports completed %d shards", st.Snapshot.CompletedShards)
	}
	if err := p.ReportBatch([]campaign.ReportRequest{{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: rep}})[0]; err != nil {
		t.Fatalf("genuine report refused: %v", err)
	}

	// Late delivery: a second slot's lease expires and is re-granted; the
	// original holder's report must still be accepted (deterministic
	// shards make either copy bit-identical).
	stale := firstLease(t, p.LeaseBatch(now, 1))
	if stale == nil {
		t.Fatal("no second lease granted")
	}
	release := firstLease(t, p.LeaseBatch(now.Add(2*time.Minute), 1)) // past the TTL: expires + re-leases
	if release == nil || release.Slot != stale.Slot {
		t.Fatalf("expected slot %d re-leased, got %+v", stale.Slot, release)
	}
	rep2, err := campaign.ExecuteLease(stale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportBatch([]campaign.ReportRequest{{Campaign: id, LeaseID: stale.ID, Shard: stale.Slot, Report: rep2}})[0]; err != nil {
		t.Fatalf("late delivery from expired lease refused: %v", err)
	}
}

// TestConflictingDuplicateOverHTTP: a second report of a done slot through
// POST /v1/reports is compared with the accepted one. The honest duplicate
// (byte-equal JSON) is answered like the first; a differing one is a 409,
// counted in controlplane_duplicate_conflicts, with nothing journaled and
// the slot's accepted report kept.
func TestConflictingDuplicateOverHTTP(t *testing.T) {
	p := newTestPlane(t, Config{JournalPath: filepath.Join(t.TempDir(), "ctl.journal"), LeaseTTL: time.Minute})
	id := mustSubmit(t, p, "alice", testSpec(1), 1, 0)
	l := firstLease(t, p.LeaseBatch(time.Now(), 1))
	if l == nil {
		t.Fatal("no lease granted")
	}
	rep, err := campaign.ExecuteLease(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	post := func(r *campaign.Report) campaign.ReportOutcome {
		t.Helper()
		body, _ := json.Marshal(campaign.ReportBatchRequest{Reports: []campaign.ReportRequest{
			{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: r},
		}})
		resp, err := srv.Client().Post(srv.URL+"/v1/reports", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out campaign.ReportBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != 1 {
			t.Fatalf("POST /v1/reports: %s, %+v (%v)", resp.Status, out, err)
		}
		return out.Results[0]
	}

	if oc := post(rep); oc.Code != 0 {
		t.Fatalf("first report refused: %+v", oc)
	}
	events, conflicts := p.JournalStats().Events, mConflicts.Value()
	if oc := post(rep); oc.Code != 0 {
		t.Fatalf("byte-equal duplicate refused: %+v", oc)
	}
	lying := *rep.Datapath
	lying.Masked++
	if oc := post(&campaign.Report{Datapath: &lying}); oc.Code != http.StatusConflict ||
		!strings.Contains(oc.Error, campaign.ErrConflictingDuplicate.Error()) {
		t.Fatalf("differing duplicate: %+v, want a 409 naming the conflict", oc)
	}
	if got := mConflicts.Value() - conflicts; got != 1 {
		t.Errorf("controlplane_duplicate_conflicts moved by %d, want 1", got)
	}
	if got := p.JournalStats().Events; got != events {
		t.Errorf("duplicates journaled %d events", got-events)
	}
	if st, _ := p.Get("", id); st.Snapshot.CompletedShards != 1 {
		t.Errorf("completed shards = %d, want 1", st.Snapshot.CompletedShards)
	}
}

// TestStreamTerminalStatusOnce: a stream opened on a campaign already in
// a terminal state ends after exactly one status line — the drain path
// must not emit the terminal status twice.
func TestStreamTerminalStatusOnce(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute})
	id := mustSubmit(t, p, "alice", testSpec(1), 1, 0)
	if err := p.Cancel("", id); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("terminal stream wrote %d lines, want 1:\n%s", len(lines), body)
	}
	var st Status
	if err := json.Unmarshal([]byte(lines[0]), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("stream line state %s, want cancelled", st.State)
	}
}
