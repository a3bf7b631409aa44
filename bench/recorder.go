package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
)

// httpRecorder is the middleware the traced run wraps around
// Plane.Handler(): one record per HTTP request (route, status, bytes, how
// many leases or reports it carried), and from the bodies of the fleet
// routes the grant and acknowledgement time of every ledger slot. The
// program under test is not touched; everything is read from outside.
type httpRecorder struct {
	next http.Handler
	// decode parses lease responses and report batches (fleet-mixed, where
	// the fleet is the program's own worker). fleet-ingest leaves it off:
	// there the benchmark is the fleet and records grants and acks itself,
	// and parsing 10k report bodies a second a second time would be the
	// dominant tracing overhead.
	decode bool
	// keep bounds how many whole leases per surface are kept for the
	// single-threaded re-execution; every keepStride-th one is taken so
	// they spread over the run.
	keep int

	mu     sync.Mutex
	reqs   []httpReq
	grants []grant
	acks   []ack
	leases map[string][]*campaign.Lease // by surface
	seen   map[string]int               // leases granted, by surface
}

const keepStride = 5

type httpReq struct {
	route      string
	start, end time.Time
	status     int
	in, out    int64
	carried    int // leases granted or reports delivered
}

// grant is one slot handed to the fleet; ack is its report accepted.
type grant struct {
	campaign, phase, surface string
	slot                     int
	at                       time.Time
}

type ack struct {
	campaign       string
	slot           int
	arrived, acked time.Time
	bytes          int
}

func (h *httpRecorder) addGrant(g grant) {
	h.mu.Lock()
	h.grants = append(h.grants, g)
	h.mu.Unlock()
}

func (h *httpRecorder) addAck(a ack) {
	h.mu.Lock()
	h.acks = append(h.acks, a)
	h.mu.Unlock()
}

// teeBody counts a request body and, when buf is set, keeps a copy.
type teeBody struct {
	io.ReadCloser
	n   int64
	buf *bytes.Buffer
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.buf != nil {
		b.buf.Write(p[:n])
	}
	return n, err
}

// recWriter counts a response and, when buf is set, keeps a copy. It
// passes Flush through so /stream keeps flushing per line.
type recWriter struct {
	http.ResponseWriter
	status int
	n      int64
	buf    *bytes.Buffer
}

func (w *recWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	if w.buf != nil {
		w.buf.Write(p[:n])
	}
	return n, err
}

func (w *recWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *httpRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	body := &teeBody{ReadCloser: r.Body}
	rw := &recWriter{ResponseWriter: w, status: http.StatusOK}
	switch route {
	case "reports":
		body.buf = new(bytes.Buffer)
	case "lease":
		rw.buf = new(bytes.Buffer)
	}
	r.Body = body
	start := time.Now()
	h.next.ServeHTTP(rw, r)
	end := time.Now()

	rec := httpReq{route: route, start: start, end: end, status: rw.status, in: body.n, out: rw.n}
	var grants []grant
	var acks []ack
	var kept []*campaign.Lease
	switch {
	case route == "lease" && h.decode:
		var resp campaign.LeaseResponse
		if json.Unmarshal(rw.buf.Bytes(), &resp) == nil {
			rec.carried = len(resp.Leases)
			for _, l := range resp.Leases {
				grants = append(grants, grant{campaign: l.Campaign, slot: l.Slot, phase: l.Phase, surface: l.Spec.Surface, at: end})
			}
			kept = resp.Leases
		}
	case route == "lease":
		// "lease" duplicates the first entry of "leases".
		rec.carried = max(bytes.Count(rw.buf.Bytes(), []byte(`"ttl_millis"`))-1, 0)
	case route == "reports" && h.decode:
		var req struct {
			Reports []struct {
				Campaign string          `json:"campaign"`
				Shard    int             `json:"shard"`
				Report   json.RawMessage `json:"report"`
			} `json:"reports"`
		}
		if json.Unmarshal(body.buf.Bytes(), &req) == nil {
			rec.carried = len(req.Reports)
			for _, rr := range req.Reports {
				acks = append(acks, ack{campaign: rr.Campaign, slot: rr.Shard, arrived: start, acked: end, bytes: len(rr.Report)})
			}
		}
	case route == "reports":
		rec.carried = bytes.Count(body.buf.Bytes(), []byte(`"lease_id"`))
	}

	h.mu.Lock()
	h.reqs = append(h.reqs, rec)
	h.grants = append(h.grants, grants...)
	h.acks = append(h.acks, acks...)
	for _, l := range kept {
		if h.leases == nil {
			h.leases = make(map[string][]*campaign.Lease)
			h.seen = make(map[string]int)
		}
		s := l.Spec.Surface
		if h.seen[s]%keepStride == 0 && len(h.leases[s]) < h.keep {
			h.leases[s] = append(h.leases[s], l)
		}
		h.seen[s]++
	}
	h.mu.Unlock()
}
