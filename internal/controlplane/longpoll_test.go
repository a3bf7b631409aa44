package controlplane

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// leaseAnswer is what one POST /v1/lease came back with, and when.
type leaseAnswer struct {
	resp campaign.LeaseResponse
	err  error
	at   time.Time
}

// holdServer serves p; held receives once per lease request the plane
// starts holding (when it flushes the held headers), and ended, as each
// lease request's handler returns, the context error it had then — set
// when the client hung up, nil when the plane answered.
func holdServer(t *testing.T, ttl time.Duration) (p *Plane, srv *httptest.Server, held chan struct{}, ended chan error) {
	t.Helper()
	p = newTestPlane(t, Config{LeaseTTL: ttl})
	held, ended = make(chan struct{}, 16), make(chan error, 16)
	h := p.Handler()
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(heldFlusher{w, held}, r)
		if r.URL.Path == "/v1/lease" {
			notify(ended, r.Context().Err())
		}
	}))
	t.Cleanup(srv.Close)
	return p, srv, held, ended
}

// heldFlusher reports each flush — the plane flushes a lease answer
// early only to say it is holding the request.
type heldFlusher struct {
	http.ResponseWriter
	held chan<- struct{}
}

func (f heldFlusher) Flush() {
	f.ResponseWriter.(http.Flusher).Flush()
	notify(f.held, struct{}{})
}

// notify sends v unless ch is full: a test that stopped listening must
// not wedge the server its cleanup closes.
func notify[T any](ch chan<- T, v T) {
	select {
	case ch <- v:
	default:
	}
}

// waitHeld returns once the plane holds a lease request.
func waitHeld(t *testing.T, held <-chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("no lease request was ever held")
	}
}

// heldLease posts {"max":4} to srv in the background and returns once the
// plane is holding it, so whatever the caller does next happens to a
// held request. The answer arrives on the channel.
func heldLease(ctx context.Context, t *testing.T, srv *httptest.Server, held <-chan struct{}) <-chan leaseAnswer {
	t.Helper()
	out := make(chan leaseAnswer, 1)
	go func() {
		var a leaseAnswer
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/lease", strings.NewReader(`{"max":4}`))
		resp, err := srv.Client().Do(req)
		if a.err = err; err == nil {
			a.err = json.NewDecoder(resp.Body).Decode(&a.resp)
			resp.Body.Close()
		}
		a.at = time.Now()
		out <- a
	}()
	waitHeld(t, held)
	return out
}

// TestLeaseLongPoll checks that POST /v1/lease holds a request finding nothing
// leasable, and each event that can make a slot leasable — a submission,
// the last pilot report ungating a main phase, a report freeing quota —
// answers it with a grant before the hold bound could have; an idle plane
// answers empty once the bound lapses; a client that goes away, a closed
// plane and a draining worker all end the hold, and a request whose
// context is done is never granted a lease.
func TestLeaseLongPoll(t *testing.T) {
	// At this TTL the hold bound, min(TTL/4, 1 s), is bound.
	const ttl, bound = time.Minute, time.Second
	// woken checks a held request was answered with a grant by the event
	// at start, not by its hold bound lapsing.
	woken := func(t *testing.T, a leaseAnswer, start time.Time) []*campaign.Lease {
		t.Helper()
		if a.err != nil {
			t.Fatal(a.err)
		}
		if len(a.resp.Leases) == 0 {
			t.Fatal("held request answered with no lease")
		}
		if took := a.at.Sub(start); took >= bound {
			t.Fatalf("held request answered %v after the event, not before its %v hold bound", took, bound)
		}
		return a.resp.Leases
	}

	t.Run("submit", func(t *testing.T) {
		p, srv, held, _ := holdServer(t, ttl)
		ch := heldLease(context.Background(), t, srv, held)
		start := time.Now()
		id := mustSubmit(t, p, "alice", testSpec(1), 1, 0)
		if ls := woken(t, <-ch, start); ls[0].Campaign != id {
			t.Fatalf("granted %s, want %s", ls[0].Campaign, id)
		}
	})

	t.Run("pilot ungates main", func(t *testing.T) {
		p, srv, held, _ := holdServer(t, ttl)
		spec := testSpec(2)
		spec.Sampling, spec.PilotN = "stratified", 20
		id := mustSubmit(t, p, "alice", spec, 1, 0)
		pilots := p.LeaseBatch(time.Now(), 16).Leases
		if len(pilots) != spec.Shards {
			t.Fatalf("%d leases before the pilot finished, want the %d pilot slots", len(pilots), spec.Shards)
		}
		reqs := make([]campaign.ReportRequest, len(pilots))
		for i, l := range pilots {
			rep, err := campaign.ExecuteLease(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = campaign.ReportRequest{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: rep}
		}
		last := len(reqs) - 1
		for _, err := range p.ReportBatch(reqs[:last]) {
			if err != nil {
				t.Fatal(err)
			}
		}
		ch := heldLease(context.Background(), t, srv, held)
		start := time.Now()
		if err := p.ReportBatch(reqs[last:])[0]; err != nil {
			t.Fatal(err)
		}
		for _, l := range woken(t, <-ch, start) {
			if l.Phase != "main" {
				t.Fatalf("granted a %q slot after the pilot, want main", l.Phase)
			}
		}
	})

	t.Run("report frees quota", func(t *testing.T) {
		p, srv, held, _ := holdServer(t, ttl)
		id := mustSubmit(t, p, "alice", testSpec(3), 1, 1)
		l := firstLease(t, p.LeaseBatch(time.Now(), 1))
		if l == nil {
			t.Fatal("no lease granted")
		}
		ch := heldLease(context.Background(), t, srv, held)
		start := time.Now()
		if err := p.ReportBatch([]campaign.ReportRequest{{Campaign: id, LeaseID: l.ID, Shard: l.Slot, Report: testReport(l.Spec, l.Slot)}})[0]; err != nil {
			t.Fatal(err)
		}
		if ls := woken(t, <-ch, start); len(ls) != 1 {
			t.Fatalf("granted %d leases past a quota of 1", len(ls))
		}
	})

	t.Run("idle plane lapses empty", func(t *testing.T) {
		_, srv, held, _ := holdServer(t, 100*time.Millisecond)
		start := time.Now()
		a := <-heldLease(context.Background(), t, srv, held)
		if a.err != nil || len(a.resp.Leases) != 0 {
			t.Fatalf("idle plane answered %+v (%v), want no lease", a.resp, a.err)
		}
		if took := a.at.Sub(start); took < 25*time.Millisecond {
			t.Fatalf("idle plane answered after %v, before its 25ms hold bound", took)
		}
	})

	t.Run("client gone", func(t *testing.T) {
		p, srv, held, ended := holdServer(t, ttl)
		ctx, cancel := context.WithCancel(context.Background())
		ch := heldLease(ctx, t, srv, held)
		start := time.Now()
		cancel()
		if a := <-ch; a.err == nil {
			t.Fatalf("cancelled request answered %+v", a.resp)
		}
		if err := <-ended; err == nil {
			t.Fatal("the plane answered a request whose client had gone")
		}
		if took := time.Since(start); took >= bound {
			t.Fatalf("the held request outlived its client by %v, its %v hold bound", took, bound)
		}
		id := mustSubmit(t, p, "alice", testSpec(4), 1, 0)
		if resp := p.holdLease(ctx, 4, func() {}); len(resp.Leases) != 0 {
			t.Fatalf("a done context was granted %d leases", len(resp.Leases))
		}
		if st, _ := p.Get("", id); st.InFlight != 0 {
			t.Fatalf("%d leases in flight with no live request", st.InFlight)
		}
	})

	t.Run("plane close", func(t *testing.T) {
		p, srv, held, _ := holdServer(t, ttl)
		ch := heldLease(context.Background(), t, srv, held)
		start := time.Now()
		p.Close()
		a := <-ch
		if a.err != nil || len(a.resp.Leases) != 0 {
			t.Fatalf("closed plane answered %+v (%v), want no lease", a.resp, a.err)
		}
		if took := a.at.Sub(start); took >= bound {
			t.Fatalf("closed plane answered after %v, its %v hold bound", took, bound)
		}
	})

	t.Run("worker drain", func(t *testing.T) {
		_, srv, held, ended := holdServer(t, ttl)
		w := &campaign.Worker{Base: srv.URL, Name: "drain", Client: srv.Client(), GiveUp: 10 * time.Second}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel() // stops the worker if Drain did not
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		waitHeld(t, held)
		w.Drain()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run returned %v after Drain, want nil", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Run did not return after Drain")
		}
		if err := <-ended; err == nil {
			t.Fatal("the held lease request ran out its hold bound; Drain did not cancel it")
		}
	})
}
