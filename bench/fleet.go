package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlplane"
)

const (
	tenants = 4
	// campaignTimeout bounds one campaign from submit to verified bytes; a
	// campaign past it counts as failed.
	campaignTimeout = 60 * time.Second
)

// fleetEnv is one running control plane: the faultserve -role ctl
// configuration (on-disk journal, HMAC auth, 30 s lease TTL, 4 MiB
// compaction threshold) served over loopback TCP.
type fleetEnv struct {
	dir     string
	journal string
	auth    *controlplane.Authenticator
	plane   *controlplane.Plane
	srv     *http.Server
	served  chan struct{}
	base    string
	tokens  []string // one per tenant
	fleet   string   // the worker token
	rec     *httpRecorder
}

// startPlane opens a plane on a fresh journal under dir and serves it. rec,
// when non-nil, is wrapped around Plane.Handler() (traced runs only).
func startPlane(dir string, ttl time.Duration, rec *httpRecorder) (*fleetEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keys := map[string]string{controlplane.FleetTenant: "bench-fleet-secret"}
	for i := 0; i < tenants; i++ {
		keys[fmt.Sprintf("t%d", i)] = fmt.Sprintf("bench-tenant-secret-%d", i)
	}
	auth, err := controlplane.NewAuthenticator(keys)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{dir: dir, journal: filepath.Join(dir, "ctl.journal"), auth: auth, rec: rec, served: make(chan struct{})}
	for i := 0; i < tenants; i++ {
		tok, err := auth.Token(fmt.Sprintf("t%d", i))
		if err != nil {
			return nil, err
		}
		e.tokens = append(e.tokens, tok)
	}
	if e.fleet, err = auth.Token(controlplane.FleetTenant); err != nil {
		return nil, err
	}
	e.plane, err = controlplane.New(controlplane.Config{
		JournalPath:  e.journal,
		LeaseTTL:     ttl,
		Auth:         auth,
		CompactBytes: 4 << 20,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.plane.Close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	var h http.Handler = e.plane.Handler()
	if rec != nil {
		rec.next = h
		h = rec
	}
	e.srv = &http.Server{Handler: h}
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	return e, nil
}

// stop shuts the server down, closes the plane and removes its journal.
func (e *fleetEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if e.srv.Shutdown(ctx) != nil {
		e.srv.Close()
	}
	cancel()
	<-e.served
	e.plane.Close()
	os.RemoveAll(e.dir)
}

// tenantClient is one tenant's HTTP client: its own connection pool, so
// the four tenants never share a connection.
type tenantClient struct {
	base, token string
	hc          *http.Client
}

func newTenantClient(base, token string) *tenantClient {
	return &tenantClient{base: base, token: token, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

func (c *tenantClient) close() { c.hc.CloseIdleConnections() }

func (c *tenantClient) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// roundtrip sends one request and returns the whole response body.
func (c *tenantClient) roundtrip(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts one campaign and returns its ID.
func (c *tenantClient) submit(ctx context.Context, spec campaign.Spec) (string, error) {
	body, err := json.Marshal(controlplane.SubmitRequest{Spec: spec})
	if err != nil {
		return "", err
	}
	code, data, err := c.roundtrip(ctx, http.MethodPost, "/v1/campaigns", body)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("submit: bad status body %q", data)
	}
	return st.ID, nil
}

// streamLine is the part of a /stream status line the benchmark reads.
type streamLine struct {
	State    string `json:"state"`
	Snapshot struct {
		CompletedShards int `json:"completed_shards"`
		Injections      int `json:"injections"`
	} `json:"snapshot"`
}

// follow reads the campaign's NDJSON stream to its end and returns the
// terminal state. onLine sees every line as it arrives.
func (c *tenantClient) follow(ctx context.Context, id string, onLine func(l streamLine, at time.Time)) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/stream", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		at := time.Now()
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return "", fmt.Errorf("stream: bad line: %v", err)
		}
		state = l.State
		onLine(l, at)
	}
	return state, sc.Err()
}

// finalReport fetches the merged report bytes. done is false while the
// campaign is still running (HTTP 409).
func (c *tenantClient) finalReport(ctx context.Context, id string) (data []byte, done bool, err error) {
	code, data, err := c.roundtrip(ctx, http.MethodGet, "/v1/campaigns/"+id+"/report", nil)
	switch {
	case err != nil:
		return nil, false, err
	case code == http.StatusConflict:
		return nil, false, nil
	case code != http.StatusOK:
		return nil, false, fmt.Errorf("report: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	return data, true, nil
}

// campRec is what a tenant client saw of one campaign.
type campRec struct {
	cell        int
	id          string
	submitStart time.Time
	submitEnd   time.Time
	firstCI     time.Time // first stream line with injections > 0
	streamEnd   time.Time
	done        time.Time
	// seen[k-1] is when the subscriber first saw completed_shards >= k.
	seen []time.Time
	// cpuAtDone is the process CPU time when the campaign finished; rounds
	// are cut from these readings.
	cpuAtDone time.Duration
	err       string
}

func (r *campRec) latency() time.Duration { return r.done.Sub(r.submitStart) }

// finish closes the record: verified (err nil) or failed.
func (r *campRec) finish(err error) {
	r.done, r.cpuAtDone = time.Now(), cpuTime()
	if err != nil {
		r.err = err.Error()
	}
}

// roundGate hands out campaign indices and stops at the round boundary
// nearest the requested duration, so every run measures whole rounds.
type roundGate struct {
	mu       sync.Mutex
	next     int
	perRound int
	start    time.Time
	seconds  float64
	stopped  bool
}

func (g *roundGate) take() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return -1
	}
	if g.next%g.perRound == 0 && !keepGoing(g.start, g.next/g.perRound, g.seconds) {
		g.stopped = true
		return -1
	}
	g.next++
	return g.next - 1
}

// runMixed is the fleet-mixed timed phase: four closed-loop tenants
// (submit → follow /stream → GET /report → verify → next) against one
// campaign.Worker with two executors and a shared golden cache.
func runMixed(p *prepared, seconds float64) *phaseResult {
	res, env := &phaseResult{}, p.env
	worker := &campaign.Worker{
		Base: env.base, Name: "bench-worker", Token: env.fleet,
		Procs: 2, Goldens: campaign.NewGoldenCache(),
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)

	res.start, res.cpu0 = time.Now(), cpuTime()
	gate := &roundGate{perRound: p.w.PerRound, start: res.start, seconds: seconds}
	// The worker starts once the first four campaigns are queued, so the
	// steady state never begins from an idle poll.
	var queued sync.WaitGroup
	queued.Add(tenants)
	go func() {
		queued.Wait()
		workerDone <- worker.Run(wctx)
	}()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := newTenantClient(env.base, env.tokens[t])
			defer c.close()
			first := true
			for {
				idx := gate.take()
				if idx < 0 {
					break
				}
				rec := oneCampaign(c, p, idx%len(p.w.Cells), func() {
					if first {
						first = false
						queued.Done()
					}
				})
				mu.Lock()
				res.recs = append(res.recs, rec)
				mu.Unlock()
			}
			if first {
				queued.Done()
			}
		}(t)
	}
	wg.Wait()
	res.wall = time.Since(res.start)
	res.cpu = cpuTime() - res.cpu0
	stopWorker()
	if err := <-workerDone; err != nil {
		res.failures = append(res.failures, fmt.Sprintf("worker: %v", err))
	}
	_, res.goldenMisses = worker.Goldens.Stats()
	res.tally(p)
	return res
}

// oneCampaign drives one campaign through the tenant API and verifies its
// bytes. submitted runs right after the submit is acknowledged.
func oneCampaign(c *tenantClient, p *prepared, cellIdx int, submitted func()) *campRec {
	rec := &campRec{cell: cellIdx, submitStart: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	id, err := c.submit(ctx, p.w.Cells[cellIdx].Spec)
	rec.submitEnd = time.Now()
	submitted()
	if err != nil {
		rec.finish(err)
		return rec
	}
	rec.id = id
	state, err := c.follow(ctx, id, func(l streamLine, at time.Time) {
		if rec.firstCI.IsZero() && l.Snapshot.Injections > 0 {
			rec.firstCI = at
		}
		for len(rec.seen) < l.Snapshot.CompletedShards {
			rec.seen = append(rec.seen, at)
		}
	})
	rec.streamEnd = time.Now()
	var data []byte
	if err == nil && state != controlplane.StateDone {
		err = fmt.Errorf("stream ended in state %q", state)
	}
	if err == nil {
		var done bool
		data, done, err = c.finalReport(ctx, id)
		if err == nil && !done {
			err = fmt.Errorf("report not ready after the stream ended")
		}
	}
	if err == nil && !bytes.Equal(data, p.refs[cellIdx]) {
		err = fmt.Errorf("final report differs from campaign.SoloReport, first differing field %s", diffField(p.refs[cellIdx], data))
	}
	rec.finish(err)
	return rec
}

// ingestLease is the part of a granted lease the benchmark's own fleet
// needs to find the precomputed report.
type ingestLease struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	Slot     int    `json:"slot"`
	Spec     struct {
		Seed int64 `json:"seed"`
	} `json:"spec"`
}

// runIngest is the fleet-ingest timed phase: the benchmark is the fleet.
// Two keep-alive connections each loop POST /v1/lease {"max":32} →
// POST /v1/reports with shard reports precomputed in set-up, while one
// tenant connection submits a round of campaigns and then fetches and
// verifies every final report. No injection runs in the timed phase.
func runIngest(p *prepared, seconds float64) *phaseResult {
	res, env := &phaseResult{}, p.env
	bySeed := make(map[int64]int, len(p.w.Cells))
	for i, c := range p.w.Cells {
		bySeed[c.Spec.Seed] = i
	}
	res.start, res.cpu0 = time.Now(), cpuTime()

	stop := make(chan struct{})
	var fleetErr error
	var mu sync.Mutex
	var fleet sync.WaitGroup
	for f := 0; f < 2; f++ {
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			c := newTenantClient(env.base, env.fleet)
			defer c.close()
			if err := ingestLoop(c, p, env.rec, bySeed, stop); err != nil {
				mu.Lock()
				fleetErr = err
				mu.Unlock()
			}
		}()
	}

	tenant := newTenantClient(env.base, env.tokens[0])
	defer tenant.close()
	for round := 0; keepGoing(res.start, round, seconds); round++ {
		ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
		recs := make([]*campRec, p.w.PerRound)
		for i := range recs {
			rec := &campRec{cell: (round*p.w.PerRound + i) % len(p.w.Cells), submitStart: time.Now()}
			id, err := tenant.submit(ctx, p.w.Cells[rec.cell].Spec)
			rec.submitEnd, rec.id = time.Now(), id
			if err != nil {
				rec.finish(err)
			}
			recs[i] = rec
		}
		for _, rec := range recs {
			if rec.err != "" {
				continue
			}
			var err error
			for {
				var data []byte
				var done bool
				rec.streamEnd = time.Now()
				if data, done, err = tenant.finalReport(ctx, rec.id); err != nil {
					break
				}
				if done {
					if !bytes.Equal(data, p.refs[rec.cell]) {
						err = fmt.Errorf("final report differs from campaign.SoloReport, first differing field %s", diffField(p.refs[rec.cell], data))
					}
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			rec.finish(err)
		}
		cancel()
		res.recs = append(res.recs, recs...)
	}
	res.wall = time.Since(res.start)
	res.cpu = cpuTime() - res.cpu0
	close(stop)
	fleet.Wait()
	if fleetErr != nil {
		res.failures = append(res.failures, fmt.Sprintf("fleet: %v", fleetErr))
	}
	res.tally(p)
	return res
}

// ingestLoop is one fleet connection of fleet-ingest. Report bodies are
// spliced from JSON marshaled in set-up, so the timed phase spends its
// client-side CPU on HTTP, not on encoding.
func ingestLoop(c *tenantClient, p *prepared, rec *httpRecorder, bySeed map[int64]int, stop <-chan struct{}) error {
	ctx := context.Background()
	leaseBody := []byte(`{"max":32}`)
	var body bytes.Buffer
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		code, data, err := c.roundtrip(ctx, http.MethodPost, "/v1/lease", leaseBody)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("lease: HTTP %d: %v", code, err)
		}
		granted := time.Now()
		var resp struct {
			Leases []ingestLease `json:"leases"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("lease: %v", err)
		}
		if len(resp.Leases) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		body.Reset()
		body.WriteString(`{"reports":[`)
		for i, l := range resp.Leases {
			cellIdx, ok := bySeed[l.Spec.Seed]
			if !ok {
				return fmt.Errorf("lease %s/%s carries an unknown spec", l.Campaign, l.ID)
			}
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"campaign":%q,"lease_id":%q,"shard":%d,"report":`, l.Campaign, l.ID, l.Slot)
			body.Write(p.shardJSON[cellIdx][l.Slot])
			body.WriteByte('}')
		}
		body.WriteString(`]}`)
		arrived := time.Now()
		code, data, err = c.roundtrip(ctx, http.MethodPost, "/v1/reports", body.Bytes())
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("reports: HTTP %d: %v", code, err)
		}
		acked := time.Now()
		if bytes.Contains(data, []byte(`"code"`)) {
			return fmt.Errorf("reports: plane refused a report: %s", bytes.TrimSpace(data))
		}
		if rec != nil {
			for _, l := range resp.Leases {
				rec.addGrant(grant{campaign: l.Campaign, slot: l.Slot, surface: "datapath", at: granted})
				rec.addAck(ack{campaign: l.Campaign, slot: l.Slot, arrived: arrived, acked: acked})
			}
		}
	}
}

// routeOf names the API route of a request for the per-route tables.
func routeOf(r *http.Request) string {
	path := r.URL.Path
	switch {
	case path == "/v1/lease":
		return "lease"
	case path == "/v1/reports" || path == "/v1/report":
		return "reports"
	case path == "/v1/heartbeat":
		return "heartbeat"
	case path == "/v1/campaigns" && r.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(path, "/report"):
		return "report_get"
	case strings.HasSuffix(path, "/stream"):
		return "stream"
	}
	return "other"
}
