package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Worker leases shards from a control plane, executes them on their
// campaign's fault surface, and reports back. One Worker can
// drive several executor goroutines (Procs); all of them share the
// process-wide golden-execution cache and prepared-campaign memo, so the
// golden pass for each (network, weights, format, input) coordinate is
// paid once per process, not per lease. The same loop serves interleaved
// leases of many campaigns; leases carry campaign IDs, which the worker
// echoes in heartbeats and reports.
type Worker struct {
	// Base is the plane's base URL, e.g. "http://127.0.0.1:8711".
	Base string
	// Name labels the worker in errors.
	Name string
	// Token, when set, is sent as an Authorization bearer token on every
	// request — required by control planes configured with tenant keys.
	Token string
	// Procs is the number of concurrent shard executors. Default 1.
	Procs int
	// GiveUp bounds how long lease requests may keep failing at the
	// transport level (plane down) before Run returns an error.
	// Default 30s.
	GiveUp time.Duration
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// Goldens, when set, shares golden executions with other workers in
	// the process; a private cache is created when nil.
	Goldens *GoldenCache
	// MaxLeases, when positive, makes Run return after completing that
	// many shards — the hook the crash/resume tests and the smoke
	// script's kill-mid-campaign step use. It bounds leases taken, so a
	// worker fetching ahead never over-takes past the budget.
	MaxLeases int

	// draining, once set by Drain, stops the lease loop taking new work
	// (stopFetch hangs up its lease request); in-flight shards finish and
	// deliver their reports, then Run returns nil.
	draining  atomic.Bool
	stopFetch atomic.Pointer[context.CancelFunc]
}

// Drain asks the worker to stop taking new leases and exit cleanly once
// its in-flight shards have reported. Safe to call from a signal handler
// goroutine while Run is live; calling it more than once is harmless.
func (w *Worker) Drain() {
	w.draining.Store(true)
	if stop := w.stopFetch.Load(); stop != nil {
		(*stop)()
	}
}

// Draining reports whether Drain has been requested.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Run leases and executes shards until ctx is cancelled, Drain is
// requested (in-flight shards still deliver), MaxLeases is reached — all
// three return nil — or the plane is unreachable for GiveUp (returns an
// error). A plane never tells its fleet "done": campaigns finish one by
// one while the fleet keeps asking for the next. A lease whose execution
// fails — an error or a panic — is logged and abandoned, and the worker
// keeps serving.
//
// The loop is a three-stage pipeline: one fetcher requests up to
// Procs+2 leases per roundtrip and queues them, Procs executors
// run shards, and one reporter delivers finished reports — batching
// whatever has accumulated into a single POST /v1/reports. Executors
// therefore never stall on a lease roundtrip, and report delivery costs
// ~one roundtrip per batch instead of per shard. Reports still merge in
// slot order on the plane, so batching cannot perturb bit-identity.
func (w *Worker) Run(ctx context.Context) error {
	procs := w.Procs
	if procs <= 0 {
		procs = 1
	}
	depth := procs + 2
	cs := newCampaignSet(w.Goldens)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fetchCtx, stopFetch := context.WithCancel(ctx)
	if w.stopFetch.Store(&stopFetch); w.draining.Load() {
		stopFetch()
	}
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	leaseCh := make(chan leaseJob, depth)
	repCh := make(chan pendingReport, depth)

	go w.fetch(ctx, fetchCtx, leaseCh, depth, fail)

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range leaseCh {
				if ctx.Err() != nil {
					j.stopHB()
					continue
				}
				report, err := w.runLease(cs, j.lease)
				if err != nil {
					// One bad lease does not stop the worker: its heartbeat
					// stops, so the plane re-leases the slot on expiry and
					// fails the campaign after MaxRetries.
					j.stopHB()
					log.Printf("campaign worker %s: campaign %s slot %d lease %s failed: %v",
						w.Name, j.lease.Campaign, j.lease.Slot, j.lease.ID, err)
					continue
				}
				pr := pendingReport{
					req: ReportRequest{
						Campaign: j.lease.Campaign, LeaseID: j.lease.ID,
						Shard: j.lease.Slot, Report: report,
					},
					stopHB: j.stopHB,
				}
				select {
				case repCh <- pr:
				case <-ctx.Done():
					j.stopHB()
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(repCh) }()

	if err := w.deliverLoop(ctx, repCh, depth); err != nil {
		fail(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// leaseJob pairs a fetched lease with the cancel of its heartbeat
// goroutine, which runs from fetch until the report is delivered or the
// shard abandoned.
type leaseJob struct {
	lease  *Lease
	stopHB context.CancelFunc
}

// pendingReport is a finished shard waiting for (batched) delivery.
type pendingReport struct {
	req    ReportRequest
	stopHB context.CancelFunc
}

// fetch is the pipeline's first stage: it keeps the lease queue topped up
// with one batched roundtrip per iteration (an empty answer is simply
// asked again), starts a heartbeat goroutine per granted lease, and stops
// on cancellation, drain (fetchCtx), the MaxLeases budget, or sustained
// unreachability.
func (w *Worker) fetch(ctx, fetchCtx context.Context, leaseCh chan<- leaseJob, depth int, fail func(error)) {
	defer close(leaseCh)
	giveUp := w.GiveUp
	if giveUp <= 0 {
		giveUp = 30 * time.Second
	}
	var downSince time.Time
	fails, taken := 0, 0
	for {
		if fetchCtx.Err() != nil {
			return
		}
		want := depth - len(leaseCh)
		if want < 1 {
			want = 1
		}
		if w.MaxLeases > 0 && want > w.MaxLeases-taken {
			want = w.MaxLeases - taken
		}
		var resp LeaseResponse
		if err := w.post(ctx, fetchCtx, "/v1/lease", LeaseRequest{Max: want}, &resp); err != nil {
			if fetchCtx.Err() != nil {
				return
			}
			now := time.Now()
			if downSince.IsZero() {
				downSince = now
			} else if now.Sub(downSince) > giveUp {
				fail(fmt.Errorf("campaign worker %s: plane unreachable: %v", w.Name, err))
				return
			}
			fails++
			if !sleep(fetchCtx, backoff(200*time.Millisecond, fails)) {
				return
			}
			continue
		}
		downSince = time.Time{}
		fails = 0
		for _, l := range resp.Leases {
			hbCtx, stopHB := context.WithCancel(ctx)
			go w.heartbeatLoop(hbCtx, l)
			select {
			case leaseCh <- leaseJob{lease: l, stopHB: stopHB}:
			case <-ctx.Done():
				stopHB()
				return
			}
			taken++
			if w.MaxLeases > 0 && taken >= w.MaxLeases {
				return
			}
		}
	}
}

// heartbeatLoop keeps one lease alive until its context is cancelled. A
// failed or rejected heartbeat is not fatal: the report path is
// idempotent, so the worker keeps computing and lets delivery decide.
func (w *Worker) heartbeatLoop(ctx context.Context, l *Lease) {
	interval := time.Duration(l.TTLMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	for {
		if !sleep(ctx, interval) {
			return
		}
		w.post(ctx, nil, "/v1/heartbeat", HeartbeatRequest{Campaign: l.Campaign, LeaseID: l.ID}, nil)
	}
}

// deliverLoop is the pipeline's last stage: it greedily drains whatever
// reports have accumulated (up to maxBatch) and delivers them in one
// roundtrip.
func (w *Worker) deliverLoop(ctx context.Context, repCh <-chan pendingReport, maxBatch int) error {
	for pr := range repCh {
		batch := []pendingReport{pr}
		greedy := true
		for greedy && len(batch) < maxBatch {
			select {
			case more, ok := <-repCh:
				if !ok {
					greedy = false
				} else {
					batch = append(batch, more)
				}
			default:
				greedy = false
			}
		}
		if err := w.deliver(ctx, batch); err != nil {
			return err
		}
	}
	return nil
}

// deliver posts one report batch, retrying transport failures with
// backoff. Per-report outcomes follow the 4xx rule of a whole request: a
// definitive refusal (campaign gone, or a control plane resumed from its
// journal no longer recognizes a pre-crash lease) abandons that shard —
// the slot is re-leased and recomputed bit-identically — while retryable
// refusals stay in the batch.
func (w *Worker) deliver(ctx context.Context, batch []pendingReport) error {
	remaining := batch
	var lastErr error
	for attempt := 1; attempt <= 5 && len(remaining) > 0; attempt++ {
		if attempt > 1 && !sleep(ctx, backoff(200*time.Millisecond, attempt-1)) {
			return nil
		}
		reqs := make([]ReportRequest, len(remaining))
		for i := range remaining {
			reqs[i] = remaining[i].req
		}
		var resp ReportBatchResponse
		lastErr = w.post(ctx, nil, "/v1/reports", ReportBatchRequest{Reports: reqs}, &resp)
		if ctx.Err() != nil {
			return nil
		}
		if lastErr != nil {
			var se *statusError
			if errors.As(lastErr, &se) && se.code >= 400 && se.code < 500 {
				// The route itself refused the whole batch (auth/role):
				// re-posting identical bytes cannot succeed.
				for _, pr := range remaining {
					pr.stopHB()
				}
				return nil
			}
			continue
		}
		var retry []pendingReport
		for i, pr := range remaining {
			var oc ReportOutcome
			if i < len(resp.Results) {
				oc = resp.Results[i]
			}
			if oc.Code == 0 || (oc.Code >= 400 && oc.Code < 500) {
				pr.stopHB()
				continue
			}
			retry = append(retry, pr)
		}
		remaining = retry
		if len(remaining) > 0 {
			lastErr = fmt.Errorf("%d reports refused with retryable statuses", len(remaining))
		}
	}
	if len(remaining) > 0 {
		return fmt.Errorf("campaign worker %s: delivering %d shard reports: %v",
			w.Name, len(remaining), lastErr)
	}
	return nil
}

// maxBackoff caps the delay between failed connect/post attempts.
const maxBackoff = 5 * time.Second

// backoff returns the jittered exponential delay for the given consecutive
// failure count (1-based): base·2^(fails-1) capped at maxBackoff, then
// jittered uniformly over [d/2, d] so a fleet of workers hammering a
// restarting plane spreads out instead of thundering in lockstep.
func backoff(base time.Duration, fails int) time.Duration {
	d := base
	for i := 1; i < fails && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	half := d / 2
	return half + rand.N(half+1)
}

// runLease executes one lease through its spec's row of the surface table
// and returns the partial report in the surface-tagged wire type. A panic
// in the execution comes back as an error carrying its stack.
func (w *Worker) runLease(cs *campaignSet, l *Lease) (r *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	row, err := surfaceOf(l.Spec.Surface)
	if err != nil {
		return nil, err
	}
	return row.execute(cs, l.Campaign, l.Spec, l, soloHooks{})
}

// ExecuteLease computes one lease's shard report synchronously, outside
// any worker loop — for test harnesses and embedders that drive a Machine
// or control plane directly. goldens may be nil.
func ExecuteLease(l *Lease, goldens *GoldenCache) (*Report, error) {
	w := &Worker{Goldens: goldens}
	return w.runLease(newCampaignSet(goldens), l)
}

// statusError is a non-2xx HTTP response, distinguishable from transport
// failures so callers can tell a definitive refusal from a flaky network.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// post sends a JSON request and decodes a JSON response when out is
// non-nil. Non-2xx statuses are *statusError carrying the response body.
// Once hangUp is done, post abandons a request the plane says it holds
// (LeaseHeldHeader): no lease can be lost in a response that raced it.
func (w *Worker) post(ctx, hangUp context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.Token)
	}
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if hangUp != nil && resp.Header.Get(LeaseHeldHeader) != "" {
		defer context.AfterFunc(hangUp, func() { resp.Body.Close() })()
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{
			code: resp.StatusCode,
			msg:  fmt.Sprintf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg)),
		}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// sleep waits for d or context cancellation; it reports whether the full
// duration elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// SoloReport runs the spec's campaign in-process with no plane — the
// single-machine baseline every distributed run must match bit-for-bit,
// on every surface. PriorPath artifacts are loaded here (the distributed
// path loads them once in NewMachine). The second result is the merged
// pilot strata of a stratified campaign (nil for uniform or prior-allocated
// runs), for strata-artifact export.
func SoloReport(spec Spec, goldens *GoldenCache) (*Report, *engine.StrataSummary, error) {
	if err := spec.Normalize(); err != nil {
		return nil, nil, err
	}
	row, err := surfaceOf(spec.Surface)
	if err != nil {
		return nil, nil, err
	}
	var pilot *engine.StrataSummary
	solo := soloHooks{onPilot: func(s *engine.StrataSummary) { pilot = s }}
	if spec.PriorAllocated() {
		if solo.prior, err = spec.LoadPrior(); err != nil {
			return nil, nil, err
		}
	}
	// A campaign set of one: the solo run keeps the caller's golden cache,
	// or the campaign's private memo when there is none.
	cs := &campaignSet{byKey: make(map[string]any), goldens: goldens}
	r, err := row.execute(cs, "", spec, nil, solo)
	return r, pilot, err
}
