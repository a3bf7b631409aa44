package campaign

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinj"
	"repro/internal/sdc"
)

// assertBitIdentical fails unless got and want are bit-for-bit equal,
// including the order-sensitive value samples and spread accumulators.
func assertBitIdentical(t *testing.T, label string, got, want *faultinj.Report) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil report (got=%v want=%v)", label, got != nil, want != nil)
	}
	if got.Counts != want.Counts || got.Masked != want.Masked || got.Detection != want.Detection {
		t.Fatalf("%s: counts diverged:\n got %+v masked=%d\nwant %+v masked=%d",
			label, got.Counts, got.Masked, want.Counts, want.Masked)
	}
	for b := range want.PerBit {
		if got.PerBit[b] != want.PerBit[b] {
			t.Fatalf("%s: per-bit %d diverged", label, b)
		}
	}
	for b := range want.PerBlock {
		if got.PerBlock[b] != want.PerBlock[b] {
			t.Fatalf("%s: per-block %d diverged", label, b)
		}
		if math.Float64bits(got.SpreadSum[b]) != math.Float64bits(want.SpreadSum[b]) || got.SpreadN[b] != want.SpreadN[b] {
			t.Fatalf("%s: spread at block %d diverged", label, b)
		}
	}
	for tg := range want.PerTarget {
		if got.PerTarget[tg] != want.PerTarget[tg] {
			t.Fatalf("%s: per-target %d diverged", label, tg)
		}
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: value sample sizes diverged: %d vs %d", label, len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		a, b := got.Values[i], want.Values[i]
		if math.Float64bits(a.Golden) != math.Float64bits(b.Golden) ||
			math.Float64bits(a.Faulty) != math.Float64bits(b.Faulty) || a.SDC != b.SDC {
			t.Fatalf("%s: value record %d diverged: %+v vs %+v", label, i, a, b)
		}
	}
}

// datapathReport is an empty datapath report of a campaign with the given
// bit width and block count.
func datapathReport(bits, blocks int) *faultinj.Report {
	return &faultinj.Report{PerBit: make([]sdc.Counts, bits), PerBlock: make([]sdc.Counts, blocks),
		SpreadSum: make([]float64, blocks), SpreadN: make([]int, blocks)}
}

func testSpec(dtype string) Spec {
	return Spec{
		Net:         "ConvNet",
		DType:       dtype,
		N:           110,
		Inputs:      2,
		Seed:        7,
		Shards:      5,
		TrackValues: 24,
		TrackSpread: true,
	}
}

// TestLeaseExpiryAndMaxRetries drives the lease state machine with
// synthetic clocks: missed heartbeats re-lease a shard a bounded number of
// times, then fail the campaign.
func TestLeaseExpiryAndMaxRetries(t *testing.T) {
	spec := testSpec("FLOAT16")
	ttl := 50 * time.Millisecond
	m, err := NewMachine(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	first := m.Lease(now, ttl)
	if first == nil || first.Shard != 0 || first.Of != spec.Shards {
		t.Fatalf("unexpected first lease: %+v", first)
	}
	// Walk shard 0 through MaxRetries expiries; each expiry hands the
	// shard out again under a fresh lease ID.
	prevID := first.ID
	for retry := 1; retry <= 2; retry++ {
		now = now.Add(ttl + time.Millisecond)
		if n := m.Expire(now); n != 1 {
			t.Fatalf("retry %d: %d leases expired, want 1", retry, n)
		}
		l := m.Lease(now, ttl)
		if l == nil || l.Shard != 0 {
			t.Fatalf("retry %d: shard 0 not re-leased: %+v", retry, l)
		}
		if l.ID == prevID {
			t.Fatalf("retry %d: lease ID not rotated", retry)
		}
		prevID = l.ID
	}
	// One more expiry exceeds MaxRetries: the campaign fails and stops
	// leasing.
	now = now.Add(ttl + time.Millisecond)
	m.Expire(now)
	if m.Err() == nil {
		t.Fatal("Err() nil after exhausting retries")
	}
	if l := m.Lease(now, ttl); l != nil || m.Available() {
		t.Fatalf("failed campaign still leasing: %+v", l)
	}
	if m.Retried() != 3 || m.Snapshot().Failed == "" {
		t.Fatalf("failure not visible: retried=%d snapshot=%+v", m.Retried(), m.Snapshot())
	}
}

// TestHeartbeatExtendsLease verifies a heartbeat moves the deadline and a
// dead lease is refused.
func TestHeartbeatExtendsLease(t *testing.T) {
	ttl := 50 * time.Millisecond
	m, err := NewMachine(testSpec("FLOAT16"), 5)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	l := m.Lease(base, ttl)
	if !m.Heartbeat(l.ID, base.Add(40*time.Millisecond), ttl) {
		t.Fatal("live heartbeat refused")
	}
	// Past the original deadline but within the extended one: leasing
	// must hand out a different shard, not re-lease shard 0.
	at := base.Add(60 * time.Millisecond)
	if n := m.Expire(at); n != 0 {
		t.Fatalf("heartbeat did not hold the lease: %d expired", n)
	}
	if next := m.Lease(at, ttl); next == nil || next.Shard == l.Shard {
		t.Fatalf("heartbeat did not hold the lease: %+v", next)
	}
	// Once truly expired, the old lease ID is dead.
	m.Expire(base.Add(time.Hour))
	if m.Heartbeat(l.ID, base.Add(time.Hour), ttl) {
		t.Fatal("expired lease heartbeat accepted")
	}
}

// TestReportAcceptanceIdempotent covers late delivery from an expired
// lease (accepted — deterministic shards make the stale copy identical)
// and duplicate delivery (ignored).
func TestReportAcceptanceIdempotent(t *testing.T) {
	spec := testSpec("FLOAT16")
	ttl := 50 * time.Millisecond
	m, err := NewMachine(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	stale := m.Lease(base, ttl)
	// Expire it and re-lease to a second worker.
	m.Expire(base.Add(time.Second))
	release := m.Lease(base.Add(time.Second), ttl)
	if release == nil || release.Shard != stale.Shard {
		t.Fatalf("shard not re-leased: %+v", release)
	}
	// Both lease IDs stay recognizable as granted (what the plane checks
	// before Accept); a never-issued one does not.
	if !m.LeaseEverGranted(stale.ID, stale.Slot) || !m.LeaseEverGranted(release.ID, release.Slot) ||
		m.LeaseEverGranted("L99-s0", 0) {
		t.Fatal("LeaseEverGranted disagrees with the grants made")
	}
	rep := &Report{Datapath: datapathReport(spec.Type().Width(), 5)}
	rep.Datapath.Masked = 1
	if first, err := m.Accept(stale.Slot, rep); err != nil || !first {
		t.Fatalf("stale-but-first delivery rejected: first=%v err=%v", first, err)
	}
	if m.Completed() != 1 || m.InFlight() != 0 {
		t.Fatalf("completed=%d in-flight=%d, want 1 and 0", m.Completed(), m.InFlight())
	}
	// The re-leased worker delivers the same shard again: no double count.
	if first, err := m.Accept(release.Slot, rep); err != nil || first {
		t.Fatalf("duplicate delivery: first=%v err=%v, want ignored", first, err)
	}
	if m.Completed() != 1 {
		t.Fatalf("duplicate delivery double-counted: completed=%d", m.Completed())
	}
	if _, err := m.Accept(spec.Shards+3, rep); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestConflictingDuplicateRefused: a second report of a done slot is
// compared with the accepted one — byte-equal JSON is the ignored honest
// duplicate, anything else is ErrConflictingDuplicate with the ledger
// unchanged — on the live path (Accept) and on journal replay (Restore of a
// journal holding two differing reports for one slot).
func TestConflictingDuplicateRefused(t *testing.T) {
	spec := testSpec("FLOAT16")
	rep := func(masked int) *Report {
		r := &Report{Datapath: datapathReport(spec.Type().Width(), 5)}
		r.Datapath.Masked = masked
		return r
	}
	for name, admit := range map[string]func(m *Machine, r *Report) error{
		"accept": func(m *Machine, r *Report) error {
			_, err := m.Accept(2, r)
			return err
		},
		"restore": func(m *Machine, r *Report) error { return m.Restore(2, 0, r) },
	} {
		m, err := NewMachine(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := admit(m, rep(1)); err != nil {
			t.Fatalf("%s: first report: %v", name, err)
		}
		if err := admit(m, rep(1)); err != nil {
			t.Fatalf("%s: byte-equal duplicate: %v, want ignored", name, err)
		}
		err = admit(m, rep(2))
		if !errors.Is(err, ErrConflictingDuplicate) {
			t.Fatalf("%s: differing duplicate: %v, want ErrConflictingDuplicate", name, err)
		}
		if m.Completed() != 1 || m.shards[2].report.Datapath.Masked != 1 {
			t.Fatalf("%s: differing duplicate changed the ledger: completed=%d masked=%d",
				name, m.Completed(), m.shards[2].report.Datapath.Masked)
		}
	}
}

// TestGoldenCacheSharing runs two campaigns over the same coordinates
// through one cache: the second pays zero golden passes.
func TestGoldenCacheSharing(t *testing.T) {
	goldens := NewGoldenCache()
	spec := testSpec("FLOAT16")
	first, err := solo(spec, goldens)
	if err != nil {
		t.Fatal(err)
	}
	_, misses0 := goldens.Stats()
	if misses0 != spec.Inputs {
		t.Fatalf("first run computed %d goldens, want %d", misses0, spec.Inputs)
	}
	// Different N and seed, same network/format/inputs: all hits.
	spec2 := spec
	spec2.N, spec2.Seed = 60, 99
	if _, err := solo(spec2, goldens); err != nil {
		t.Fatal(err)
	}
	hits, misses := goldens.Stats()
	if misses != misses0 {
		t.Fatalf("second run recomputed goldens: misses %d -> %d", misses0, misses)
	}
	if hits < spec.Inputs {
		t.Fatalf("second run hit cache %d times, want >= %d", hits, spec.Inputs)
	}
	// And the cached goldens change nothing: cache-free run is identical.
	plain, err := solo(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "golden cache", first, plain)
}

// normalizeRefused are specs every surface refuses.
var normalizeRefused = []Spec{
	{Net: "NoSuchNet", N: 10},
	{DType: "FLOAT13", N: 10},
	{N: 0},
	{N: 10, Select: "sideways"},
	{N: 10, Select: "perbit", Param: 99},
}

// TestSpecNormalize covers validation and defaulting.
func TestSpecNormalize(t *testing.T) {
	for i, s := range normalizeRefused {
		if err := s.Normalize(); err == nil {
			t.Fatalf("bad spec %d passed validation: %+v", i, s)
		}
	}
	s := Spec{N: 10, Shards: 64}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Net == "" || s.DType == "" || s.Select != "uniform" || s.Inputs != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.Shards > s.N {
		t.Fatalf("shards %d not clamped to N=%d", s.Shards, s.N)
	}
}

// TestNormalizeIdempotent: normalizing a normalized spec changes nothing,
// for every spec table of this package's tests and every spec builder under
// each sampling design, pilot budget and evaluation mode — a spec is
// journaled normalized and normalized again wherever it is read back.
func TestNormalizeIdempotent(t *testing.T) {
	specs := slices.Concat(normalizeRefused, bufferRefused, evalRefused, stratifiedRefused,
		systolicRefused, unboundedRefused, atBound)
	for _, base := range []Spec{testSpec("16b_rb10"), testSpec("FLOAT16"), bufSpec(""), sysSpec("")} {
		for _, sampling := range []string{"", "uniform", "stratified"} {
			for _, pilot := range []int{0, 7, 1000, -1} {
				for _, eval := range EvalModes {
					s := base
					s.Sampling, s.PilotN, s.Eval = sampling, pilot, eval
					specs = append(specs, s)
					s.PriorPath = "prior.json"
					specs = append(specs, s)
				}
			}
		}
	}
	accepted := 0
	for i, s := range specs {
		once := s
		if once.Normalize() != nil {
			continue
		}
		accepted++
		twice := once
		if err := twice.Normalize(); err != nil || twice != once {
			t.Errorf("spec %d %+v: normalized to %+v, then to %+v (err %v)", i, s, once, twice, err)
		}
	}
	if accepted == 0 {
		t.Fatal("no spec normalized")
	}
}

// solo is SoloReport for datapath specs, returning the bare faultinj
// report.
func solo(spec Spec, goldens *GoldenCache) (*faultinj.Report, error) {
	r, _, err := SoloReport(spec, goldens)
	if err != nil {
		return nil, err
	}
	return r.Datapath, nil
}
