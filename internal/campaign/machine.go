package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/sdc"
)

// Machine is the per-campaign shard-ledger state machine: it schedules the
// slots of the campaign's engine.Plan over a fleet — pending → leased →
// done, the plan's gated slots held back until its allocation table exists
// — and folds the slot reports in the plan's association. The control plane
// schedules one Machine per campaign.
//
// Machine is caller-synchronized: none of its methods lock;
// internal/controlplane holds its own lock across scheduling decisions
// that span machines.
type Machine struct {
	spec       Spec
	dims       dims // spec.dims(), which every report is validated against
	plan       engine.Plan
	maxRetries int

	shards    []shardState
	completed int
	resumed   int
	retried   int
	leaseSeq  int
	failure   error

	// pilotDone counts completed pilot slots of a stratified campaign;
	// table is the plan's allocation, derived from the merged pilot once
	// pilotDone reaches plan.Pilots() — or, for a prior-allocated campaign,
	// from the PriorPath artifact at startup. Gated slots are not leased
	// until it exists. pilotStrata keeps the merged pilot for
	// strata-artifact export.
	pilotDone   int
	table       *engine.StratumTable
	pilotStrata *engine.StrataSummary

	// Scheduling indexes, maintained incrementally so the control plane's
	// grant loop never rescans the ledger: pending is a min-heap of
	// leasable slot indices (min-order keeps expired slots re-leased at
	// the lowest index, matching the full-scan behavior), gated holds the
	// plan's gated slots while they wait on the allocation table, leases
	// maps live lease IDs to their slots for O(1) heartbeats, inFlight
	// counts leased unfinished slots, and nextExpiry is a lower bound on
	// the earliest live deadline so Expire is O(1) when nothing can lapse.
	inFlight   int
	pending    slotHeap
	gated      []int
	leases     map[string]int
	nextExpiry time.Time
}

// NewMachine validates the spec and returns a fresh ledger for it.
// maxRetries bounds how many times one slot may be re-leased after expiry
// before the campaign is declared failed (default 3 when non-positive).
func NewMachine(spec Spec, maxRetries int) (*Machine, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if maxRetries <= 0 {
		maxRetries = 3
	}
	m := &Machine{
		spec:       spec,
		dims:       spec.dims(),
		plan:       spec.plan(),
		maxRetries: maxRetries,
		leases:     make(map[string]int),
	}
	m.shards = make([]shardState, m.plan.Slots())
	if m.plan.PriorAllocated() {
		// Pilot-free campaign: the allocation table comes from the prior
		// artifact, built before any lease is served. Workers never read
		// the artifact — the table ships inside every (main-phase) lease.
		prior, err := spec.LoadPrior()
		if err != nil {
			return nil, err
		}
		m.table = m.plan.Table(prior)
	}
	for s := range m.shards {
		if m.plan.Gated(s) && m.table == nil {
			m.gated = append(m.gated, s)
			continue
		}
		m.pending.push(s)
	}
	return m, nil
}

// Spec returns the normalized campaign spec.
func (m *Machine) Spec() Spec { return m.spec }

// Done reports whether every slot has a final report.
func (m *Machine) Done() bool { return m.completed == len(m.shards) }

// Err reports a campaign-level failure (a slot exceeding maxRetries), or
// nil.
func (m *Machine) Err() error { return m.failure }

// Completed reports how many slots have final reports.
func (m *Machine) Completed() int { return m.completed }

// Retried reports the total lease expiries over the campaign's lifetime.
func (m *Machine) Retried() int { return m.retried }

// InFlight counts currently leased, unfinished slots — the quantity
// per-campaign quotas bound.
func (m *Machine) InFlight() int { return m.inFlight }

// Expire re-pends slots whose leases lapsed and returns how many lapsed.
// A slot exceeding maxRetries marks the campaign failed. The full scan
// runs only when a deadline may actually have passed: nextExpiry is a
// lower bound on the earliest live deadline (heartbeats that move a
// deadline earlier lower it), so the idle-fleet case is two comparisons.
func (m *Machine) Expire(now time.Time) int {
	if m.inFlight == 0 || (!m.nextExpiry.IsZero() && now.Before(m.nextExpiry)) {
		return 0
	}
	expired := 0
	var next time.Time
	for s := range m.shards {
		sh := &m.shards[s]
		if sh.done || sh.leaseID == "" {
			continue
		}
		if now.Before(sh.deadline) {
			if next.IsZero() || sh.deadline.Before(next) {
				next = sh.deadline
			}
			continue
		}
		delete(m.leases, sh.leaseID)
		sh.leaseID = ""
		sh.retries++
		m.retried++
		expired++
		m.inFlight--
		m.pending.push(s)
		if sh.retries > m.maxRetries && m.failure == nil {
			m.failure = fmt.Errorf("campaign: shard %d failed %d leases (MaxRetries=%d)",
				s, sh.retries, m.maxRetries)
		}
	}
	m.nextExpiry = next
	return expired
}

// nextSlot returns the lowest leasable slot index without claiming it:
// the head of the pending heap after discarding entries finished out of
// band (a late Accept of a pending slot). Returns -1 when everything
// unfinished is in flight or gated.
func (m *Machine) nextSlot() int {
	for m.pending.len() > 0 {
		s := m.pending.min()
		if m.shards[s].done || m.shards[s].leaseID != "" {
			m.pending.pop()
			continue
		}
		return s
	}
	return -1
}

// Available reports whether Lease would grant a lease right now. The
// control-plane scheduler probes with it before spending a campaign's
// deficit. Call Expire first.
func (m *Machine) Available() bool {
	return m.failure == nil && !m.Done() && m.nextSlot() >= 0
}

// Lease grants the next available slot until now+ttl, or nil when nothing
// is leasable. Call Expire first; check Err and Done for terminal states.
func (m *Machine) Lease(now time.Time, ttl time.Duration) *Lease {
	if m.failure != nil {
		return nil
	}
	s := m.nextSlot()
	if s < 0 {
		return nil
	}
	m.pending.pop()
	sh := &m.shards[s]
	phase, shard := m.plan.Slot(s)
	m.leaseSeq++
	sh.leaseID = fmt.Sprintf("L%d-s%d", m.leaseSeq, s)
	sh.deadline = now.Add(ttl)
	m.leases[sh.leaseID] = s
	m.inFlight++
	if m.nextExpiry.IsZero() || sh.deadline.Before(m.nextExpiry) {
		m.nextExpiry = sh.deadline
	}
	l := &Lease{
		ID:        sh.leaseID,
		Slot:      s,
		Shard:     shard,
		Of:        m.plan.Shards(),
		Spec:      m.spec,
		Phase:     phase,
		TTLMillis: ttl.Milliseconds(),
	}
	if m.plan.Gated(s) {
		l.Table = m.table
	}
	return l
}

// Heartbeat extends a live lease to now+ttl. It reports false when the
// lease is no longer current (expired and re-leased, or the slot
// finished), telling the worker to abandon the shard. Call Expire first.
func (m *Machine) Heartbeat(leaseID string, now time.Time, ttl time.Duration) bool {
	s, ok := m.leases[leaseID]
	if !ok {
		return false
	}
	sh := &m.shards[s]
	if sh.done || sh.leaseID != leaseID {
		return false
	}
	sh.deadline = now.Add(ttl)
	// A backdated heartbeat can move a deadline below the cached lower
	// bound; lower it so Expire's fast path cannot skip the lapse.
	if sh.deadline.Before(m.nextExpiry) {
		m.nextExpiry = sh.deadline
	}
	return true
}

// LeaseEverGranted reports whether leaseID was ever handed out for slot —
// live or expired. Lease IDs are "L<seq>-s<slot>" with seq counting from
// 1, so a lease existed exactly when its sequence number has been issued
// and its slot matches. The control plane refuses reports failing this
// check: Accept is deliberately lease-agnostic (see below), so the check
// is what keeps a caller from injecting fabricated reports for slots it
// was never assigned, while late deliveries from expired leases still
// pass. Grants are not journaled, so after a resume the pre-crash
// sequence numbers are unknown and their leases report false; the slot is
// simply re-leased and recomputed bit-identically.
func (m *Machine) LeaseEverGranted(leaseID string, slot int) bool {
	rest, ok := strings.CutPrefix(leaseID, "L")
	seqPart, slotPart, cut := strings.Cut(rest, "-s")
	seq, okSeq := canonicalInt(seqPart)
	s, okSlot := canonicalInt(slotPart)
	return ok && cut && okSeq && okSlot && s == slot && seq >= 1 && seq <= m.leaseSeq
}

// canonicalInt parses s when it is exactly how strconv.Itoa writes an int:
// no sign but a minus, no leading zero, no "-0".
func canonicalInt(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	digits := strings.TrimPrefix(s, "-")
	return n, err == nil && digits != "" && digits[0] != '+' && (digits[0] != '0' || s == "0")
}

// Accept merges a finished slot report. Acceptance is idempotent and
// deliberately lease-agnostic for not-yet-done slots: a worker whose lease
// expired mid-run but still delivers is indistinguishable from the
// re-leased worker — shard execution is deterministic, so either copy of
// the report is bit-identical. first is true when the report was newly
// recorded (the caller journals and broadcasts exactly those). A report
// that is not one the spec implies for the slot (Report.validate, stratum
// weights included) is refused with the ledger untouched, whatever came
// before it: reports come off the wire, and everything downstream — merge,
// snapshot, table construction — indexes them without looking. A duplicate
// of a done slot is (false, nil) when its JSON equals the accepted
// report's and ErrConflictingDuplicate otherwise.
func (m *Machine) Accept(slot int, r *Report) (first bool, err error) {
	return m.accept(slot, r, false)
}

// AcceptLeased is Accept for a report a worker delivers against a lease of
// the slot: it also refuses a report whose overall tally does not count
// exactly the injections the plan assigns the slot (engine.Plan.Injections),
// so no stratum of an accepted report can tally more trials than the slot
// ran. Accept itself, the journal's replay path, checks a report's shape and
// internal consistency only.
func (m *Machine) AcceptLeased(slot int, r *Report) (first bool, err error) {
	return m.accept(slot, r, true)
}

func (m *Machine) accept(slot int, r *Report, leased bool) (first bool, err error) {
	if slot < 0 || slot >= len(m.shards) {
		return false, fmt.Errorf("campaign: slot %d out of range [0,%d)", slot, len(m.shards))
	}
	phase, _ := m.plan.Slot(slot)
	if err := r.validate(m.spec, m.dims, phase); err != nil {
		return false, err
	}
	if leased && r.Counts().Trials != m.plan.Injections(slot) {
		return false, fmt.Errorf("campaign: slot %d report tallies %d trials, the slot runs %d injections",
			slot, r.Counts().Trials, m.plan.Injections(slot))
	}
	sh := &m.shards[slot]
	if sh.done {
		return false, sameReport(slot, sh.report, r)
	}
	sh.done = true
	sh.report = r
	if sh.leaseID != "" {
		delete(m.leases, sh.leaseID)
		m.inFlight--
	}
	sh.leaseID = ""
	m.completed++
	if phase == engine.PhasePilot {
		if m.pilotDone++; m.pilotDone == m.plan.Pilots() {
			m.buildTable()
		}
	}
	return true, nil
}

// ErrConflictingDuplicate is wrapped by the error Accept returns for a
// second report of a done slot whose JSON differs from the first one's.
// Slot execution is deterministic, so honest duplicates are byte-equal;
// a differing one came from a faulty or lying worker, or a corrupt journal.
var ErrConflictingDuplicate = errors.New("campaign: duplicate report differs from the accepted one")

// sameReport checks a duplicate delivery against the slot's accepted
// report: nil when their JSON is byte-equal, ErrConflictingDuplicate
// wrapped otherwise. The accepted report stays.
func sameReport(slot int, kept, dup *Report) error {
	a, err := kept.AppendJSON(nil)
	if err != nil {
		return err
	}
	b, err := dup.AppendJSON(nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("slot %d: %w", slot, ErrConflictingDuplicate)
	}
	return nil
}

// Retire drops the wire bytes of every accepted slot report (Report.wire):
// each holds its whole request body in memory, and only a live campaign's
// reports are journaled again, by compaction. The control plane calls it
// when the campaign reaches a terminal state, under the lock it holds for
// the machine; the reports still encode to the same bytes.
func (m *Machine) Retire() {
	for s := range m.shards {
		// Only a report that has them is written: an in-process report may
		// be shared with other ledgers.
		if r := m.shards[s].report; r != nil && r.wire != nil {
			r.wire = nil
		}
	}
}

// Restore re-admits a slot report from the journal: like
// Accept, but counted as resumed and with the recorded retry budget
// restored. Duplicate slots keep the first report, like the live path, and
// a differing duplicate is ErrConflictingDuplicate.
func (m *Machine) Restore(slot, retries int, r *Report) error {
	first, err := m.Accept(slot, r)
	if err != nil {
		return err
	}
	if !first {
		return nil
	}
	m.shards[slot].retries = retries
	m.resumed++
	return nil
}

// buildTable derives the plan's allocation once every pilot slot has
// reported. Everything that runs this — the live plane at the pilot→main
// boundary, or a resumed one replaying its journal — merges the same
// reports in the same order, so derives a bit-identical table.
func (m *Machine) buildTable() {
	m.pilotStrata = engine.PilotReport(m.plan, m.reports(), MergeReports).Strata()
	m.table = m.plan.Table(m.pilotStrata)
	// The table ungates the main phase: move the held-back slots into the
	// pending heap (finished ones — journal replays restore main slots
	// before the last pilot lands — are pruned lazily by nextSlot).
	for _, s := range m.gated {
		if !m.shards[s].done {
			m.pending.push(s)
		}
	}
	m.gated = nil
}

// reports lists the accepted slot reports by slot, nil where unfinished.
func (m *Machine) reports() []*Report {
	parts := make([]*Report, len(m.shards))
	for s := range m.shards {
		parts[s] = m.shards[s].report
	}
	return parts
}

// PilotStrata returns the merged pilot strata of a stratified campaign
// once its allocation table exists (nil before that, and always nil for
// uniform or prior-allocated campaigns).
func (m *Machine) PilotStrata() *engine.StrataSummary { return m.pilotStrata }

// SlotRetries reports the recorded re-lease count of one slot.
func (m *Machine) SlotRetries(slot int) int { return m.shards[slot].retries }

// SlotReport returns the accepted report of one slot, or nil while the
// slot is unfinished. Journal compaction reads these to write the minimal
// event history equivalent to the live ledger.
func (m *Machine) SlotReport(slot int) *Report { return m.shards[slot].report }

// FinalReport folds the slot reports into the campaign report in the
// plan's association (engine.Fold) — the one engine.Run uses, so the result
// is bit-identical to solo. It errors until the campaign is done.
func (m *Machine) FinalReport() (*Report, error) {
	if !m.Done() {
		return nil, fmt.Errorf("campaign: %d/%d shards complete", m.completed, len(m.shards))
	}
	return engine.Fold(m.plan, m.reports(), MergeReports), nil
}

// Snapshot assembles the campaign's live aggregate view from every slot
// report so far.
func (m *Machine) Snapshot() Snapshot {
	snap := Snapshot{
		CompletedShards: m.completed,
		TotalShards:     len(m.shards),
		ResumedShards:   m.resumed,
		RetriedLeases:   m.retried,
		Done:            m.Done(),
	}
	if m.failure != nil {
		snap.Failed = m.failure.Error()
	}
	var overall sdc.Counts
	var perBlock []sdc.Counts
	var strata *engine.StrataSummary
	masked := 0
	for s := range m.shards {
		r := m.shards[s].report
		if r == nil {
			continue
		}
		v := r.view()
		overall.Merge(v.counts)
		masked += v.masked
		if perBlock == nil {
			perBlock = make([]sdc.Counts, len(v.perBlock))
		}
		for b := range v.perBlock {
			perBlock[b].Merge(v.perBlock[b])
		}
		strata = engine.MergeStrata(strata, v.strata)
	}
	snap.Injections = overall.Trials
	if overall.Trials > 0 {
		snap.MaskedFraction = float64(masked) / float64(overall.Trials)
	}
	if m.spec.Stratified() {
		snap.Sampling = m.spec.Sampling
		snap.PilotShards = m.pilotDone
	}
	// Weighted (Horvitz–Thompson) estimates when stratified: the raw pooled
	// proportion is biased under Neyman allocation, the stratified one is not.
	est := engine.Estimate(overall, strata, sdc.SDC1)
	snap.SDC1, snap.SDC1CI95 = est.P(), est.CI95()
	if strata != nil {
		snap.StrataWeights = strata.Weight
		snap.StrataTrials = make([]int, len(strata.Counts))
		// The strata hold every block on every surface; the datapath's
		// per-block tallies are the only per-block view of a uniform run.
		perBlock = make([]sdc.Counts, strata.Blocks)
		for h := range strata.Counts {
			snap.StrataTrials[h] = strata.Counts[h].Trials
			perBlock[h/strata.Bits].Merge(strata.Counts[h])
		}
	}
	for b := range perBlock {
		be := engine.Estimate(perBlock[b], nil, sdc.SDC1)
		if strata != nil {
			be = strata.BlockEstimate(b, sdc.SDC1)
		}
		lo, hi := be.Bounds()
		snap.PerBlock = append(snap.PerBlock, BlockAggregate{
			Block: b, Trials: perBlock[b].Trials,
			SDC1: be.P(), CI95: be.CI95(), Lo: lo, Hi: hi,
		})
	}
	return snap
}

// slotHeap is a min-heap of slot indices. Min-order matters: an expired
// slot re-enters the heap and must be re-leased before higher pending
// indices, exactly as the previous lowest-index scan behaved.
type slotHeap []int

func (h slotHeap) len() int { return len(h) }
func (h slotHeap) min() int { return h[0] }

func (h *slotHeap) push(s int) {
	*h = append(*h, s)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *slotHeap) pop() int {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && (*h)[l] < (*h)[least] {
			least = l
		}
		if r < n && (*h)[r] < (*h)[least] {
			least = r
		}
		if least == i {
			break
		}
		(*h)[i], (*h)[least] = (*h)[least], (*h)[i]
		i = least
	}
	return top
}
