package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestGroupCommitDurability: an acknowledged mutation must already be on
// disk. Concurrent submits and a report are pushed through the
// group-commit path; once every call has returned, the raw journal file
// — read exactly as a successor process would after a SIGKILL, with no
// Close and no flush — must contain every acknowledged event.
func TestGroupCommitDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.journal")
	p, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const submits = 24
	var wg sync.WaitGroup
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Submit("alice", testSpec(int64(i+1)), 1, 0); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	l := firstLease(t, p.LeaseBatch(time.Now(), 1))
	if l == nil {
		t.Fatal("no lease granted")
	}
	if err := p.ReportBatch([]campaign.ReportRequest{{
		Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: testReport(l.Spec, l.Slot),
	}})[0]; err != nil {
		t.Fatal(err)
	}

	// Crash-read the file: every acked event must be a durable line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var hdr journalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Version != journalVersion {
		t.Fatalf("journal header %q (err %v), want version %d", lines[0], err, journalVersion)
	}
	counts := map[string]int{}
	for _, line := range lines[1:] {
		var e journalEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("acked journal holds unparseable line %q: %v", line, err)
		}
		counts[e.Event]++
	}
	if counts[evSubmit] != submits || counts[evReport] != 1 {
		t.Fatalf("durable events %v, want %d submits and 1 report", counts, submits)
	}

	// The committer must never fsync more than once per batch.
	st := p.JournalStats()
	if st.Events != submits+1 || st.Fsyncs > st.Batches {
		t.Fatalf("stats %+v: want %d events and fsyncs <= batches", st, submits+1)
	}
}

// TestLeaseBatchingBitIdentity: a pipelined worker that leases in bulk
// (max=Procs+2), queues ahead of its executors and delivers reports in
// batches must produce a merged report byte-identical to the solo run,
// with two executors and with one.
func TestLeaseBatchingBitIdentity(t *testing.T) {
	spec := testSpec(31)
	want := soloBytes(t, spec)

	p := newTestPlane(t, Config{LeaseTTL: 10 * time.Second})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	run := func(name string, procs int) []byte {
		t.Helper()
		id := mustSubmit(t, p, "alice", spec, 1, 0)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := &campaign.Worker{
			Base: srv.URL, Name: name,
			Procs: procs, GiveUp: 10 * time.Second,
			Client: srv.Client(), Goldens: campaign.NewGoldenCache(),
		}
		errs := make(chan error, 1)
		go func() { errs <- w.Run(ctx) }()
		waitState(t, p, id, StateDone)
		cancel()
		<-errs
		got, err := p.FinalReportJSON("alice", id)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	if got := run("two executors", 2); !bytes.Equal(got, want) {
		t.Fatalf("two-executor worker diverged from solo (%d vs %d bytes)", len(got), len(want))
	}
	if got := run("one executor", 1); !bytes.Equal(got, want) {
		t.Fatalf("one-executor worker diverged from solo (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPerTenantQueueCap: submissions past Config.MaxQueuedPerTenant are
// refused with a 429 plane error, other tenants are unaffected, and
// finishing (cancelling) a campaign frees the slot.
func TestPerTenantQueueCap(t *testing.T) {
	p := newTestPlane(t, Config{LeaseTTL: time.Minute, MaxQueuedPerTenant: 2})
	id1 := mustSubmit(t, p, "alice", testSpec(1), 1, 0)
	mustSubmit(t, p, "alice", testSpec(2), 1, 0)

	_, err := p.Submit("alice", testSpec(3), 1, 0)
	var pe planeError
	if !errors.As(err, &pe) || pe.code != 429 {
		t.Fatalf("over-cap submit: %v, want a 429 plane error", err)
	}
	if _, err := p.Submit("bob", testSpec(4), 1, 0); err != nil {
		t.Fatalf("other tenant capped too: %v", err)
	}
	if err := p.Cancel("", id1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("alice", testSpec(3), 1, 0); err != nil {
		t.Fatalf("submit after a slot freed: %v", err)
	}
}

// compactionFixture builds the two on-disk images a crash during
// compaction can leave behind: orig is a journal holding one terminal
// campaign (c1, 1/1 shards) and one live campaign (c2, 1/4 shards); snap
// is the compacted rewrite of the same state (c1's events retired).
func compactionFixture(t testing.TB) (orig, snap []byte) {
	t.Helper()
	dir, err := os.MkdirTemp("", "compactfix-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ctl.journal")
	p, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	spec1 := testSpec(1)
	spec1.Shards = 1
	for i, spec := range []campaign.Spec{spec1, testSpec(2)} {
		if _, err := p.Submit([]string{"alice", "bob"}[i], spec, 1, 0); err != nil {
			t.Fatal(err)
		}
		l := firstLease(t, p.LeaseBatch(time.Now(), 1))
		if l == nil {
			t.Fatal("no lease granted")
		}
		if err := p.ReportBatch([]campaign.ReportRequest{{
			Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: testReport(l.Spec, l.Slot),
		}})[0]; err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if orig, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}

	// Reload: c1 settles terminal, so load-time compaction rewrites the
	// journal — that rewrite is exactly the snapshot a size-triggered
	// compaction would have produced.
	p2, err := New(Config{JournalPath: path, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
	if snap, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(orig, snap) {
		t.Fatal("compaction left the journal unchanged")
	}
	return orig, snap
}

// checkCompactionRecovery loads one crash image and asserts the
// recovered state is exactly the old state (terminal campaign still
// replayed from its events) or exactly the new one (terminal campaign
// retired) — never a hybrid, and the live campaign's progress never
// moves either way.
func checkCompactionRecovery(t testing.TB, dir string, renamed bool) {
	p, err := New(Config{JournalPath: filepath.Join(dir, "ctl.journal"), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("recovery refused: %v", err)
	}
	defer p.Close()
	if st, err := p.Get("", "c1"); renamed {
		if err == nil {
			t.Fatalf("retired campaign c1 still present after rename: %+v", st)
		}
	} else {
		if err != nil {
			t.Fatalf("campaign c1 lost before rename: %v", err)
		}
		if st.State != StateDone || st.Snapshot.CompletedShards != 1 {
			t.Fatalf("c1 recovered as %s %d/1 shards, want done 1/1", st.State, st.Snapshot.CompletedShards)
		}
	}
	st, err := p.Get("", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateActive || st.Snapshot.CompletedShards != 1 {
		t.Fatalf("c2 recovered as %s with %d shards done, want active with 1", st.State, st.Snapshot.CompletedShards)
	}
}

// writeCrashImage lays out the files a kill at byte cut of the snapshot
// write would leave: before the rename the original journal is intact
// next to a partial .tmp; at cut == len(snap) the rename has happened
// and only the snapshot remains.
func writeCrashImage(t testing.TB, dir string, orig, snap []byte, cut int) (renamed bool) {
	t.Helper()
	path := filepath.Join(dir, "ctl.journal")
	if cut >= len(snap) {
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", snap[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return false
}

// TestCompactionKillAtEveryByte simulates a kill at every byte of the
// snapshot write plus the post-rename state, and requires every image to
// recover to exactly the old or exactly the new journal.
func TestCompactionKillAtEveryByte(t *testing.T) {
	orig, snap := compactionFixture(t)
	step := 1
	if testing.Short() {
		step = 64
	}
	for cut := 0; cut <= len(snap); cut += step {
		dir := t.TempDir()
		renamed := writeCrashImage(t, dir, orig, snap, cut)
		checkCompactionRecovery(t, dir, renamed)
	}
	// The boundary case always runs, whatever the step.
	dir := t.TempDir()
	checkCompactionRecovery(t, dir, writeCrashImage(t, dir, orig, snap, len(snap)))
}

// FuzzJournalCompaction drives the same invariant with fuzzed kill
// offsets and fuzzed garbage in the .tmp file: recovery must never read
// the temporary snapshot, never lose the pre-compaction state before the
// rename, and never resurrect retired events after it.
func FuzzJournalCompaction(f *testing.F) {
	orig, snap := compactionFixture(f)
	f.Add(uint16(0), false)
	f.Add(uint16(1), false)
	f.Add(uint16(len(snap)/2), false)
	f.Add(uint16(len(snap)-1), true)
	f.Add(uint16(len(snap)), false)
	f.Fuzz(func(t *testing.T, cut uint16, garbage bool) {
		dir := t.TempDir()
		var renamed bool
		if garbage {
			// Arbitrary leftover .tmp content — even valid-looking journal
			// bytes — must never influence recovery.
			path := filepath.Join(dir, "ctl.journal")
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			junk := append([]byte(fmt.Sprintf(`{"version":%d}`+"\n", journalVersion)), snap[:int(cut)%len(snap)]...)
			if err := os.WriteFile(path+".tmp", junk, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			renamed = writeCrashImage(t, dir, orig, snap, int(cut))
		}
		checkCompactionRecovery(t, dir, renamed)
	})
}
