package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// SubmitRequest is the body of POST /v1/campaigns.
type SubmitRequest struct {
	Spec     campaign.Spec `json:"spec"`
	Priority int           `json:"priority,omitempty"`
	Quota    int           `json:"quota,omitempty"`
}

// tenantKeyCtx carries the authenticated tenant through the middleware.
type ctxKey struct{}

// devTenant is who every caller is when authentication is disabled.
const devTenant = "local"

// withAuth wraps a handler with bearer-token authentication. With no
// authenticator configured the plane is in loopback dev mode and every
// request proceeds as the "local" tenant; otherwise a missing or invalid
// token is a 401 on every route, mutating or not.
func (p *Plane) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := devTenant
		if p.cfg.Auth != nil {
			raw := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			t, ok := p.cfg.Auth.Verify(raw)
			if !ok {
				noteRejected("")
				http.Error(w, "invalid or missing bearer token", http.StatusUnauthorized)
				return
			}
			tenant = t
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, tenant)))
	})
}

// fleetOnly restricts a fleet route (lease/heartbeat/report) to the
// reserved worker principal when authentication is enabled: a tenant's
// token must not be able to pull other tenants' shard leases (their specs
// ride inside) or inject fabricated reports into their campaigns. Dev
// mode stays open — the loopback fleet is trusted.
func (p *Plane) fleetOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.cfg.Auth != nil && tenantFrom(r) != FleetTenant {
			http.Error(w, "fleet routes require the worker token (tenant \""+FleetTenant+"\")", http.StatusForbidden)
			return
		}
		next(w, r)
	}
}

// tenantOnly is the converse: the worker token carries no tenant
// identity, so it may not submit, cancel or read campaigns.
func (p *Plane) tenantOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.cfg.Auth != nil && tenantFrom(r) == FleetTenant {
			http.Error(w, "the worker token may not access campaign routes", http.StatusForbidden)
			return
		}
		next(w, r)
	}
}

// Handler mounts the control-plane API:
//
//	POST /v1/campaigns              submit one campaign      -> Status (201)
//	GET  /v1/campaigns              list all campaigns       -> []Status
//	GET  /v1/campaigns/{id}         one campaign             -> Status
//	POST /v1/campaigns/{id}/cancel  cancel                   -> 204
//	GET  /v1/campaigns/{id}/stream  NDJSON Status per shard
//	GET  /v1/campaigns/{id}/report  final merged report (solo-identical bytes)
//	POST /v1/lease                  worker shard lease(s)    -> campaign.LeaseResponse
//	                                ({"max":N} batches; blocks up to the hold bound when idle)
//	POST /v1/heartbeat              extend a lease           -> 204 / 410
//	POST /v1/reports                deliver a report batch   -> campaign.ReportBatchResponse
//	GET  /debug/vars                expvar metrics
//	GET  /debug/pprof/              profiling (only with Config.Pprof)
//
// All /v1 routes sit behind bearer-token authentication when Config.Auth
// is set; /debug stays unauthenticated. Roles are
// separated on top of authentication: campaign routes are tenant-scoped
// (listing shows only the caller's campaigns; get/cancel/stream/report
// are owner-checked), while the fleet routes accept only the reserved
// "fleet" worker token and vice versa.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/campaigns", p.tenantOnly(func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decodeBody(w, r, &req, false) {
			noteRejected(tenantFrom(r))
			return
		}
		st, err := p.Submit(tenantFrom(r), req.Spec, req.Priority, req.Quota)
		if err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, st)
	}))
	mux.HandleFunc("GET /v1/campaigns", p.tenantOnly(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.List(tenantFrom(r)))
	}))
	mux.HandleFunc("GET /v1/campaigns/{id}", p.tenantOnly(func(w http.ResponseWriter, r *http.Request) {
		st, err := p.Get(tenantFrom(r), r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, st)
	}))
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", p.tenantOnly(func(w http.ResponseWriter, r *http.Request) {
		if err := p.Cancel(tenantFrom(r), r.PathValue("id")); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("GET /v1/campaigns/{id}/report", p.tenantOnly(func(w http.ResponseWriter, r *http.Request) {
		data, err := p.FinalReportJSON(tenantFrom(r), r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		// No trailing newline: the body must byte-compare against a solo
		// run's -out file.
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}))
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", p.tenantOnly(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		id := r.PathValue("id")
		ch, done, err := p.subscribe(tenantFrom(r), id)
		if err != nil {
			httpError(w, err)
			return
		}
		defer p.unsubscribe(id, ch)
		w.Header().Set("Content-Type", "application/x-ndjson")
		// last remembers the previous line written so the drain path does
		// not emit the terminal status twice: a finished stream usually has
		// the terminal broadcast already queued in ch, and the closing
		// statusJSON is only a fallback for subscribers whose buffer
		// dropped it.
		var last []byte
		for {
			select {
			case line := <-ch:
				if _, err := w.Write(append(line, '\n')); err != nil {
					return
				}
				fl.Flush()
				last = line
			case <-done:
				// Drain anything queued, emit the terminal state once, and
				// end the stream so curl-style consumers terminate cleanly.
				for {
					select {
					case line := <-ch:
						w.Write(append(line, '\n'))
						last = line
					default:
						if line := p.statusJSON(id); line != nil && !bytes.Equal(line, last) {
							w.Write(append(line, '\n'))
						}
						fl.Flush()
						return
					}
				}
			case <-r.Context().Done():
				return
			}
		}
	}))

	mux.HandleFunc("POST /v1/lease", p.fleetOnly(func(w http.ResponseWriter, r *http.Request) {
		// Tolerate empty bodies: "{}" or nothing asks for one lease.
		var req campaign.LeaseRequest
		if !decodeBody(w, r, &req, true) {
			return
		}
		writeJSON(w, p.holdLease(r.Context(), req.Max, sync.OnceFunc(func() {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(campaign.LeaseHeldHeader, "1")
			http.NewResponseController(w).Flush()
		})))
	}))
	mux.HandleFunc("POST /v1/heartbeat", p.fleetOnly(func(w http.ResponseWriter, r *http.Request) {
		var req campaign.HeartbeatRequest
		if !decodeBody(w, r, &req, false) {
			return
		}
		if !p.heartbeat(req, time.Now()) {
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("POST /v1/reports", p.fleetOnly(func(w http.ResponseWriter, r *http.Request) {
		var req campaign.ReportBatchRequest
		if !decodeWith(w, r, maxBodyBytes, false, func(body io.Reader) error {
			data, err := readBody(body, r.ContentLength)
			if err != nil {
				// Too long or cut short: the decoder reads what arrived, then
				// the same error (a MaxBytesReader's error is sticky), as it
				// would reading the body itself.
				return json.NewDecoder(io.MultiReader(bytes.NewReader(data), body)).Decode(&req)
			}
			var canonical bool
			req, canonical, err = campaign.DecodeReportBatch(data)
			if !canonical {
				noteReportDecodeFallback()
			}
			return err
		}) {
			return
		}
		errs := p.ReportBatch(req.Reports)
		resp := campaign.ReportBatchResponse{Results: make([]campaign.ReportOutcome, len(errs))}
		for i, err := range errs {
			if err == nil {
				continue
			}
			var pe planeError
			if errors.As(err, &pe) {
				resp.Results[i] = campaign.ReportOutcome{Code: pe.code, Error: pe.msg}
			} else {
				resp.Results[i] = campaign.ReportOutcome{Code: http.StatusBadRequest, Error: err.Error()}
			}
		}
		writeJSON(w, resp)
	}))

	root := http.NewServeMux()
	root.Handle("/v1/", p.withAuth(mux))
	root.Handle("GET /debug/vars", expvar.Handler())
	if p.cfg.Pprof {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return root
}

// Request body bounds. maxBodyBytes bounds a report batch: well above the
// largest one a worker posts (a few MiB), well below what would hurt the
// plane to buffer. maxRequestBytes bounds every other body the plane reads
// — a submit, lease or heartbeat request is a few hundred bytes — so a
// chunked oversized one is refused after 1 MiB read, not 64.
const (
	maxBodyBytes    = 64 << 20
	maxRequestBytes = 1 << 20
)

// decodeBody decodes r's JSON body, at most maxRequestBytes of it, into v.
// When it cannot it answers the request — 413 for an oversized body (one
// that declares its length unread, so a client that waits for 100 Continue
// never sends it), 400 for one that does not decode — and returns false; an
// optional body that does not decode is not an error and leaves v as it was.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	return decodeWith(w, r, maxRequestBytes, optional, func(body io.Reader) error { return json.NewDecoder(body).Decode(v) })
}

// decodeWith is decodeBody with the bound given by limit and the decoding
// left to decode, which reads the bounded body.
func decodeWith(w http.ResponseWriter, r *http.Request, limit int64, optional bool, decode func(body io.Reader) error) bool {
	err := error(&http.MaxBytesError{Limit: limit})
	if r.ContentLength <= limit {
		err = decode(http.MaxBytesReader(w, r.Body, limit))
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
	case errors.As(err, &tooBig):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return false
	case !optional:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// maxBodyPrealloc bounds what a declared Content-Length alone makes the
// plane allocate before the body's bytes arrive.
const maxBodyPrealloc = 1 << 20

// readBody is io.ReadAll into one buffer sized from the body's declared
// length: at most maxBodyPrealloc up front, grown past that only as bytes
// arrive; a body of unknown length (-1) grows from 512 bytes, as
// io.ReadAll's does. The reports route decodes from this buffer and its
// reports keep slices of it (campaign.Report's wire bytes), so it is never
// reused.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared+1, maxBodyPrealloc) // +1: room to read EOF without growing
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

func tenantFrom(r *http.Request) string {
	if t, ok := r.Context().Value(ctxKey{}).(string); ok {
		return t
	}
	return devTenant
}

// httpError maps plane errors to their HTTP status; anything untyped is a
// 400 (validation failure).
func httpError(w http.ResponseWriter, err error) {
	var pe planeError
	if errors.As(err, &pe) {
		http.Error(w, pe.msg, pe.code)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
