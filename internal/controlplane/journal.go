package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
)

// The journal is format version 5: one append-only NDJSON file that
// interleaves the events of many campaigns — a header line written once at
// plane creation, then one line per event (campaign submitted, slot report
// accepted, campaign cancelled) in commit order. Resume replays the file
// and re-admits every unfinished, uncancelled campaign. It is the only
// on-disk format: any other version — the single-campaign v3 checkpoint,
// the v4 journal that lacked the header sequence field, or older — is
// refused with a version mismatch rather than misread.
//
// Two mechanisms keep the append path cheap and the file bounded, neither
// weakening the crash contract:
//
// Group commit. Appends do not pay one fsync each: a committer goroutine
// coalesces every event enqueued while the previous batch was syncing
// into one buffered write followed by one fsync, and each caller's
// acknowledgment is released only after the batch holding its event is
// durable. Under concurrency the fsync cost is amortized over the whole
// batch; a lone append still gets its own immediate sync. A write or sync
// failure is sticky: it fails the waiting batch and every append after
// it.
//
// Snapshot compaction. The file does not grow without bound: on load
// (when terminal campaigns exist) and whenever the file outgrows a size
// threshold, the journal is rewritten as the minimal
// event history equivalent to the live ledgers — one submit plus one
// report per finished slot for each unfinished campaign — retiring every
// event of terminal campaigns. The rewrite is atomic (temp file, fsync,
// rename, directory fsync): a crash at any byte leaves either the old
// journal or the new one, never a hybrid, and the torn-tail/foreign/
// corrupt refusal matrix applies unchanged to whichever survives. The
// header's seq field persists the campaign ID counter so retired IDs are
// never reused.
const journalVersion = 5

// journalHeader is the first line of the file. Seq records the highest
// campaign sequence number ever assigned, so compaction can retire a
// terminal campaign's events without its ID being reused by a later
// submission (an uncompacted file has no Seq yet and derives the counter
// from the replayed events).
type journalHeader struct {
	Version int `json:"version"`
	Seq     int `json:"seq,omitempty"`
}

// Event kinds.
const (
	evSubmit = "submit"
	evReport = "report"
	evCancel = "cancel"
)

// journalEvent is one line of the journal. Event selects which fields are
// meaningful: submit carries the campaign's spec and admission parameters,
// report carries one accepted slot report, cancel carries only the ID.
type journalEvent struct {
	Event    string `json:"event"`
	Campaign string `json:"campaign"`

	// submit
	Tenant   string         `json:"tenant,omitempty"`
	Priority int            `json:"priority,omitempty"`
	Quota    int            `json:"quota,omitempty"`
	Spec     *campaign.Spec `json:"spec,omitempty"`

	// report
	Slot    int              `json:"slot,omitempty"`
	Retries int              `json:"retries,omitempty"`
	Report  *campaign.Report `json:"report,omitempty"`
}

// JournalStats is the journal's hot-path instrumentation, also exported
// per-plane so benchmarks running several planes in one process are not
// confused by the process-global expvars.
type JournalStats struct {
	// Batches and Events count committed group-commit batches and the
	// events they carried; Events/Batches is the realized amortization.
	Batches int64 `json:"batches"`
	Events  int64 `json:"events"`
	// MaxBatch is the largest single batch committed.
	MaxBatch int64 `json:"max_batch"`
	// Fsyncs counts file syncs on the append path (one per batch).
	Fsyncs int64 `json:"fsyncs"`
	// FsyncNanos is total time spent in append-path write+sync.
	FsyncNanos int64 `json:"fsync_nanos"`
	// Bytes is the journal file's current size.
	Bytes int64 `json:"bytes"`
	// Compactions counts snapshot rewrites; RetiredEvents is how many
	// journal events they dropped.
	Compactions   int64 `json:"compactions"`
	RetiredEvents int64 `json:"retired_events"`
}

// commitBatch collects the appends coalesced into one write+fsync. done
// is closed once the batch is durable (or failed); err is valid after.
type commitBatch struct {
	n    int
	done chan struct{}
	err  error
}

// journal is an open append handle, the group-commit machinery, and the
// state recovered on load.
type journal struct {
	path string

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	// buf and batch hold encoded lines (and their waiters) enqueued since
	// the committer last picked up work. spare is the buffer the committer
	// wrote last: it becomes the next buf, so the two alternate and enqueue
	// appends into capacity that already exists.
	buf   []byte
	spare []byte
	batch *commitBatch
	// err is sticky: once a write or sync fails, every later append fails
	// with it — callers must not be told "durable" after the file broke.
	err        error
	closed     bool
	started    bool
	size       int64
	eventCount int
	// compactReq asks the committer to run a compaction; compactDone
	// counts finished attempts so forceCompact can wait for one.
	compactReq  bool
	compactDone int64
	// lastCompactSize gates re-compaction: the file must exceed both
	// compactAt and twice the last compacted size, so a threshold smaller
	// than the live state cannot cause a rewrite per batch.
	lastCompactSize int64
	stats           JournalStats

	// compactAt, when positive, triggers compaction past that many bytes.
	compactAt int64
	// snapshot, set by the plane before the committer starts, returns the
	// persisted seq counter, the minimal live-state event history, and any
	// stolen not-yet-committed batch (superseded by the snapshot, acked
	// when it lands). nil disables compaction.
	snapshot func() (seq int, events []*journalEvent, stolen *commitBatch)

	// events holds the replayable history in file order; nil when the file
	// was freshly created. seq is the loaded header's campaign ID counter.
	events []journalEvent
	loaded bool
	seq    int

	done chan struct{}
}

// openJournal loads (or creates) the interleaved journal at path. A
// missing file starts a fresh control plane: the header is written
// atomically (temp file + rename) so a crash during creation leaves either
// no journal or a valid empty one, never a torn header.
func openJournal(path string) (*journal, error) {
	data, err := os.ReadFile(path)
	var jl *journal
	switch {
	case os.IsNotExist(err):
		if err := writeJournalHeader(path); err != nil {
			return nil, err
		}
		jl = &journal{path: path}
		hdr, _ := json.Marshal(journalHeader{Version: journalVersion})
		jl.size = int64(len(hdr) + 1)
	case err != nil:
		return nil, fmt.Errorf("controlplane: reading journal: %v", err)
	default:
		jl, err = parseJournal(path, data)
		if err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controlplane: opening journal for append: %v", err)
	}
	jl.f = f
	jl.cond = sync.NewCond(&jl.mu)
	jl.done = make(chan struct{})
	jl.eventCount = len(jl.events)
	return jl, nil
}

// start launches the committer goroutine. The plane calls it after replay
// and any load-time compaction, so the synchronous phase never races it.
func (jl *journal) start() {
	if jl == nil || jl.started {
		return
	}
	jl.started = true
	go jl.run()
}

func writeJournalHeader(path string) error {
	hdr, err := json.Marshal(journalHeader{Version: journalVersion})
	if err != nil {
		return fmt.Errorf("controlplane: encoding journal header: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("controlplane: journal dir: %v", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(hdr, '\n'), 0o644); err != nil {
		return fmt.Errorf("controlplane: writing journal header: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("controlplane: committing journal header: %v", err)
	}
	return nil
}

// parseJournal validates an existing journal and recovers its events. A
// trailing line that does not parse or does not validate against the
// campaigns submitted so far is a torn append from a crash: it is dropped
// and the file truncated to the last good line. A bad line anywhere else
// is corruption and refuses the resume.
func parseJournal(path string, data []byte) (*journal, error) {
	lines := bytes.Split(data, []byte{'\n'})
	// A well-formed file ends in '\n', leaving one empty trailing element.
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("controlplane: journal %s is empty", path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, fmt.Errorf("controlplane: decoding journal %s header: %v", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, fmt.Errorf("controlplane: journal %s has version %d, want %d (older checkpoint and journal formats are not read)",
			path, hdr.Version, journalVersion)
	}

	jl := &journal{path: path, loaded: true, seq: hdr.Seq}
	// specs tracks submitted campaigns so report/cancel events can be
	// validated in stream order: an event naming a campaign the journal
	// never admitted is foreign — it cannot have been written by a plane
	// appending to this file.
	specs := make(map[string]campaign.Spec)
	goodBytes := len(lines[0]) + 1
	for i, line := range lines[1:] {
		e, err := validateEvent(line, specs)
		if err != nil {
			// Only an unparseable *last* line can be a torn append: a write
			// cut short never leaves valid JSON (every proper prefix of a
			// JSON object is invalid), so a line that parses but fails
			// validation — foreign campaign, out-of-range slot, duplicate
			// submission — is corruption wherever it sits, and refuses the
			// resume rather than silently dropping an event.
			var torn tornLineError
			if i == len(lines)-2 && errors.As(err, &torn) {
				if terr := os.Truncate(path, int64(goodBytes)); terr != nil {
					return nil, fmt.Errorf("controlplane: truncating torn journal tail: %v", terr)
				}
				break
			}
			return nil, fmt.Errorf("controlplane: journal %s event %d: %v", path, i, err)
		}
		jl.events = append(jl.events, *e)
		goodBytes += len(line) + 1
	}
	jl.size = int64(goodBytes)
	return jl, nil
}

// tornLineError marks a line that failed to decode at all — the only
// failure shape a crash mid-append can produce.
type tornLineError struct{ err error }

func (e tornLineError) Error() string { return e.err.Error() }

// validateEvent parses one journal line against the campaigns admitted so
// far, updating specs on submissions.
func validateEvent(line []byte, specs map[string]campaign.Spec) (*journalEvent, error) {
	var e journalEvent
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, tornLineError{fmt.Errorf("undecodable: %v", err)}
	}
	if e.Campaign == "" {
		return nil, fmt.Errorf("missing campaign ID")
	}
	switch e.Event {
	case evSubmit:
		if e.Spec == nil {
			return nil, fmt.Errorf("submission of %s has no spec", e.Campaign)
		}
		if _, dup := specs[e.Campaign]; dup {
			return nil, fmt.Errorf("campaign %s submitted twice", e.Campaign)
		}
		spec := *e.Spec
		if err := spec.Normalize(); err != nil {
			return nil, fmt.Errorf("submission of %s: %v", e.Campaign, err)
		}
		specs[e.Campaign] = spec
	case evReport:
		spec, known := specs[e.Campaign]
		if !known {
			return nil, fmt.Errorf("report for foreign campaign %s", e.Campaign)
		}
		if e.Slot < 0 || e.Slot >= spec.Slots() {
			return nil, fmt.Errorf("campaign %s slot %d out of range [0,%d)", e.Campaign, e.Slot, spec.Slots())
		}
		if e.Report == nil {
			return nil, fmt.Errorf("campaign %s slot %d has no report", e.Campaign, e.Slot)
		}
	case evCancel:
		if _, known := specs[e.Campaign]; !known {
			return nil, fmt.Errorf("cancel of foreign campaign %s", e.Campaign)
		}
	default:
		return nil, fmt.Errorf("unknown event %q", e.Event)
	}
	return &e, nil
}

// appendEvent appends e's journal line, without its newline: exactly
// json.Marshal(e)'s bytes. Report is journalEvent's last field, so a report
// event is the marshalled rest of the event with the wire codec's encoding
// of the report spliced in before the closing brace.
func appendEvent(dst []byte, e *journalEvent) ([]byte, error) {
	head := *e
	head.Report = nil
	line, err := json.Marshal(&head)
	if err != nil || e.Report == nil {
		return append(dst, line...), err
	}
	dst = append(append(dst, line[:len(line)-1]...), `,"report":`...)
	if dst, err = e.Report.AppendJSON(dst); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// enqueue hands one event to the committer and returns a wait closure
// that blocks until the batch holding the event is durable — the caller
// acknowledges its mutation only after wait returns nil. Enqueueing is
// cheap (one append into the pending buffer) and safe to do under the
// plane's scheduler lock; the wait must happen after that lock is
// released, which is what keeps fsync latency off the dispatch path.
func (jl *journal) enqueue(e journalEvent) func() error {
	if jl == nil {
		return func() error { return nil }
	}
	jl.mu.Lock()
	if jl.closed {
		jl.mu.Unlock()
		return func() error { return fmt.Errorf("controlplane: journal closed") }
	}
	if jl.err != nil {
		err := jl.err
		jl.mu.Unlock()
		return func() error { return err }
	}
	n := len(jl.buf)
	buf, err := appendEvent(jl.buf, &e)
	if err != nil {
		jl.buf = buf[:n]
		jl.mu.Unlock()
		err = fmt.Errorf("controlplane: encoding journal event: %v", err)
		return func() error { return err }
	}
	jl.buf = append(buf, '\n')
	if jl.batch == nil {
		jl.batch = &commitBatch{done: make(chan struct{})}
	}
	b := jl.batch
	b.n++
	jl.cond.Signal()
	jl.mu.Unlock()
	return func() error {
		<-b.done
		return b.err
	}
}

// run is the committer: it repeatedly swaps out everything enqueued since
// the last commit, writes it as one buffer, fsyncs once, and releases the
// batch's waiters. Compaction requests are honored between batches.
func (jl *journal) run() {
	defer close(jl.done)
	jl.mu.Lock()
	for {
		for len(jl.buf) == 0 && !jl.closed && !jl.compactReq {
			jl.cond.Wait()
		}
		if jl.compactReq {
			jl.compactReq = false
			if jl.snapshot != nil && jl.err == nil {
				jl.mu.Unlock()
				jl.compact()
				jl.mu.Lock()
			} else {
				jl.compactDone++
				jl.cond.Broadcast()
			}
			continue
		}
		if len(jl.buf) == 0 {
			break // closed and drained
		}
		buf, b := jl.buf, jl.batch
		jl.buf, jl.batch = jl.spare[:0], nil
		f := jl.f
		jl.mu.Unlock()

		start := time.Now()
		_, werr := f.Write(buf)
		if werr == nil {
			werr = f.Sync()
		}
		elapsed := time.Since(start).Nanoseconds()

		jl.mu.Lock()
		jl.spare = buf
		if werr != nil {
			werr = fmt.Errorf("controlplane: committing journal batch: %v", werr)
			if jl.err == nil {
				jl.err = werr
			}
		} else {
			jl.size += int64(len(buf))
			jl.eventCount += b.n
			jl.stats.Batches++
			jl.stats.Events += int64(b.n)
			if int64(b.n) > jl.stats.MaxBatch {
				jl.stats.MaxBatch = int64(b.n)
			}
			jl.stats.Fsyncs++
			jl.stats.FsyncNanos += elapsed
			jl.stats.Bytes = jl.size
			noteJournalCommit(int64(b.n), elapsed, jl.size)
			if jl.compactAt > 0 && jl.size > jl.compactAt && jl.size > 2*jl.lastCompactSize {
				jl.compactReq = true
			}
		}
		b.err = werr
		close(b.done)
	}
	jl.mu.Unlock()
}

// compact rewrites the journal as the minimal event history equivalent to
// the live campaign state. It runs with jl.mu released: the snapshot
// callback holds the plane lock while assembling events (and steals any
// uncommitted batch, whose mutations the snapshot already contains), so
// no event can land between snapshot and rename. The temp file is synced
// before the rename and the directory after it; the old append handle is
// dropped for the temp handle, which after the rename names the journal.
func (jl *journal) compact() {
	seq, events, stolen := jl.snapshot()
	f, size, werr := writeSnapshotFile(jl.path, seq, events)

	jl.mu.Lock()
	if werr != nil {
		if jl.err == nil {
			jl.err = werr
		}
	} else {
		old := jl.f
		jl.f = f
		retired := int64(jl.eventCount - len(events))
		if stolen != nil {
			retired += int64(stolen.n)
		}
		if retired < 0 {
			retired = 0
		}
		jl.eventCount = len(events)
		jl.size = size
		jl.lastCompactSize = size
		jl.stats.Compactions++
		jl.stats.RetiredEvents += retired
		jl.stats.Bytes = size
		noteJournalCompaction(retired, size)
		old.Close()
	}
	jl.compactDone++
	jl.cond.Broadcast()
	jl.mu.Unlock()

	if stolen != nil {
		stolen.err = werr
		close(stolen.done)
	}
}

// writeSnapshotFile writes a fresh journal holding hdr(seq)+events to
// path via temp file + fsync + rename + directory fsync, returning the
// still-open handle (positioned at EOF, ready for appends) and its size.
// A failure at any step, an event that does not encode included, removes
// the temp file and leaves the old journal as it was.
func writeSnapshotFile(path string, seq int, events []*journalEvent) (*os.File, int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("controlplane: creating journal snapshot: %v", err)
	}
	size, err := writeSnapshotLines(f, seq, events)
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("controlplane: writing journal snapshot: %v", err)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, 0, fmt.Errorf("controlplane: committing journal snapshot: %v", err)
	}
	syncDir(filepath.Dir(path))
	return f, size, nil
}

// writeSnapshotLines writes the header line of seq and then each event's
// line to f through one buffered writer, encoding every line into one
// reused buffer — the snapshot, at least the live state, never exists in
// memory whole — and returns the bytes written.
func writeSnapshotLines(f *os.File, seq int, events []*journalEvent) (int64, error) {
	line, err := json.Marshal(journalHeader{Version: journalVersion, Seq: seq})
	if err != nil {
		return 0, fmt.Errorf("controlplane: encoding journal header: %v", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	line = append(line, '\n')
	w.Write(line) // a write error is sticky: Flush returns it
	size := int64(len(line))
	for _, e := range events {
		if line, err = appendEvent(line[:0], e); err != nil {
			return 0, fmt.Errorf("controlplane: encoding journal snapshot event: %v", err)
		}
		line = append(line, '\n')
		w.Write(line)
		size += int64(len(line))
	}
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("controlplane: writing journal snapshot: %v", err)
	}
	return size, nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// forceCompact asks the committer for a compaction and waits for the
// attempt to finish.
func (jl *journal) forceCompact() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return fmt.Errorf("controlplane: journal closed")
	}
	target := jl.compactDone + 1
	jl.compactReq = true
	jl.cond.Signal()
	for jl.compactDone < target && !jl.closed {
		jl.cond.Wait()
	}
	return jl.err
}

// Stats returns a copy of the journal's counters.
func (jl *journal) Stats() JournalStats {
	if jl == nil {
		return JournalStats{}
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	s := jl.stats
	s.Bytes = jl.size
	return s
}

// Close drains the committer (pending batches still commit) and releases
// the append handle.
func (jl *journal) Close() error {
	if jl == nil || jl.f == nil {
		return nil
	}
	jl.mu.Lock()
	if jl.closed {
		jl.mu.Unlock()
		return nil
	}
	jl.closed = true
	jl.cond.Broadcast()
	started := jl.started
	jl.mu.Unlock()
	if started {
		<-jl.done
	}
	return jl.f.Close()
}
