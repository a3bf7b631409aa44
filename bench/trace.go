package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one campaign share TraceID; Parent
// is the ID of the span that caused this one (0 for a campaign root).
// Times are nanoseconds since the tracer's epoch, from the monotonic clock.
type span struct {
	ID      int               `json:"id"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Parent  int               `json:"parent"`
	TraceID string            `json:"trace_id"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how the untraced run is measured.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock reading to nanoseconds since the epoch.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// start opens a span and returns its ID; finish closes it. A parent is
// always started before its children, so IDs order parents first.
func (t *tracer) start(name, traceID string, parent int, at time.Time, attrs map[string]string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, StartNS: t.at(at), EndNS: -1,
		Parent: parent, TraceID: traceID, Attrs: attrs,
	})
	return len(t.spans)
}

func (t *tracer) finish(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = t.at(at)
	t.mu.Unlock()
}

// add records an already finished span.
func (t *tracer) add(name, traceID string, parent int, start, end time.Time, attrs map[string]string) int {
	id := t.start(name, traceID, parent, start, attrs)
	t.finish(id, end)
	return id
}

// seal closes the trace: every span is clamped into its parent (a child
// timed from another goroutine's clock reading may otherwise poke out by a
// few microseconds) and gets a non-negative length. It returns the spans.
func (t *tracer) seal() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent > 0 {
			p := &t.spans[s.Parent-1]
			s.StartNS = min(max(s.StartNS, p.StartNS), p.EndNS)
			s.EndNS = min(s.EndNS, p.EndNS)
		}
		s.EndNS = max(s.EndNS, s.StartNS)
	}
	return t.spans
}

// writeSpans stores sealed spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the mean self time in milliseconds per
// root span: a span's duration minus the part of it its children cover
// (children may overlap each other, so their union is what counts). Root
// spans are the ones named root; rows therefore sum to the mean root
// duration, which is returned as well, with the number of roots.
func selfTimes(spans []span, root string) (rows map[string]float64, rootMeanMS float64, roots int) {
	children := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	inTree := make(map[int]bool)
	for i := range spans {
		if spans[i].Name == root && spans[i].Parent == 0 {
			inTree[spans[i].ID] = true
			roots++
			rootMeanMS += float64(spans[i].EndNS-spans[i].StartNS) / 1e6
		}
	}
	if roots == 0 {
		return nil, 0, 0
	}
	rows = make(map[string]float64)
	// IDs order parents first, so one forward pass marks every descendant
	// of a root.
	for i := range spans {
		s := &spans[i]
		if s.Parent > 0 && inTree[s.Parent] {
			inTree[s.ID] = true
		}
		if !inTree[s.ID] {
			continue
		}
		rows[s.Name] += float64(s.EndNS-s.StartNS-covered(children[s.ID])) / 1e6
	}
	for k := range rows {
		rows[k] /= float64(roots)
	}
	return rows, rootMeanMS / float64(roots), roots
}

// covered returns the length of the union of the given spans' intervals.
func covered(cs []*span) int64 {
	if len(cs) == 0 {
		return 0
	}
	sorted := append([]*span(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartNS < sorted[j].StartNS })
	total, curS, curE := int64(0), sorted[0].StartNS, sorted[0].EndNS
	for _, c := range sorted[1:] {
		if c.StartNS > curE {
			total += curE - curS
			curS, curE = c.StartNS, c.EndNS
		} else if c.EndNS > curE {
			curE = c.EndNS
		}
	}
	return total + curE - curS
}
