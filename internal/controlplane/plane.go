package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// Campaign lifecycle states.
const (
	StateActive    = "active"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Priority bounds: a campaign's priority is its deficit-round-robin
// quantum — the number of consecutive leases it may draw per scheduler
// visit — so shares are proportional to priority and bounded enough that
// no tenant can starve the ring.
const (
	MinPriority = 1
	MaxPriority = 16
)

// Config configures a control plane.
type Config struct {
	// JournalPath, when set, is the interleaved v5 journal the plane
	// appends every event to (group-committed; see journal.go); a plane
	// restarted on the same path re-admits every unfinished campaign.
	JournalPath string
	// LeaseTTL is how long a worker may hold a shard without heartbeating
	// before the shard is re-leased. Default 30s.
	LeaseTTL time.Duration
	// MaxRetries bounds how many times one slot may be re-leased after
	// expiry before its campaign is declared failed. Default 3.
	MaxRetries int
	// Auth, when non-nil, requires a valid tenant bearer token on every
	// /v1 request. Nil is loopback dev mode: no tokens, every caller is
	// the "local" tenant.
	Auth *Authenticator
	// DefaultQuota is the per-campaign in-flight lease cap applied when a
	// submission does not set one. 0 = unlimited.
	DefaultQuota int
	// MaxQueuedPerTenant caps how many campaigns one tenant may have
	// active (queued or running) at once; submissions past the cap are
	// refused with HTTP 429. 0 = unlimited.
	MaxQueuedPerTenant int
	// CompactBytes, when positive, compacts the journal once it grows past
	// this size (and past twice its last compacted size, so a threshold
	// smaller than the live state cannot thrash). Load-time compaction —
	// retiring terminal campaigns' events after a restart — runs
	// regardless. 0 disables size-triggered compaction.
	CompactBytes int64
	// Pprof additionally mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// camp is one queued campaign: its state machine plus admission metadata
// and scheduling state.
type camp struct {
	id       string
	tenant   string
	priority int
	quota    int
	state    string
	m        *campaign.Machine

	// deficit is the campaign's remaining deficit-round-robin balance: the
	// number of further leases it may draw before the scheduler cursor
	// moves on. Refilled to priority when the cursor arrives with none.
	deficit int

	subs map[chan []byte]struct{}
	// done closes when the campaign reaches a terminal state; stream
	// handlers use it to end their response.
	done chan struct{}
}

func (c *camp) terminal() bool { return c.state != StateActive }

// Status is the public view of one queued campaign — the control plane's
// listing entry and NDJSON stream line.
type Status struct {
	ID       string            `json:"id"`
	Tenant   string            `json:"tenant,omitempty"`
	Priority int               `json:"priority"`
	Quota    int               `json:"quota,omitempty"`
	State    string            `json:"state"`
	InFlight int               `json:"in_flight"`
	Snapshot campaign.Snapshot `json:"snapshot"`
}

// Plane is the multi-campaign control plane: a persistent campaign queue,
// a fair-share scheduler handing shard leases of many campaigns to one
// worker fleet, and per-campaign result fanout.
type Plane struct {
	cfg Config

	mu     sync.Mutex
	jl     *journal
	seq    int
	camps  map[string]*camp
	order  []string // submission order, for listing
	ring   []string // active campaigns, scheduler order
	cursor int
	closed bool
	// work is closed and replaced whenever a slot may have become
	// leasable; held lease requests wait on it.
	work chan struct{}
	// activeByTenant counts each tenant's non-terminal campaigns, for the
	// per-tenant queue cap.
	activeByTenant map[string]int
}

// New opens (or creates) the journal and returns a plane ready to serve.
// Every unfinished, uncancelled campaign recorded in the journal is
// re-admitted and scheduled again; completed ones stay queryable with
// their final reports.
func New(cfg Config) (*Plane, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	p := &Plane{
		cfg:            cfg,
		camps:          make(map[string]*camp),
		activeByTenant: make(map[string]int),
		work:           make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		jl, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		p.jl = jl
		for i := range jl.events {
			if err := p.replay(&jl.events[i]); err != nil {
				return nil, fmt.Errorf("controlplane: journal %s: %v", cfg.JournalPath, err)
			}
		}
		jl.events = nil
	}
	// Settle terminal states and build the scheduling ring.
	anyTerminal := false
	for _, id := range p.order {
		c := p.camps[id]
		if c.state == StateActive && c.m.Done() {
			c.state = StateDone
		}
		if c.terminal() {
			close(c.done)
			anyTerminal = true
		} else {
			p.ring = append(p.ring, id)
			p.activeByTenant[c.tenant]++
		}
	}
	setQueueDepth(len(p.ring))
	if p.jl != nil {
		// The header seq survives compaction; replayed campaign IDs cover
		// the events appended since (and never-compacted files).
		if p.jl.seq > p.seq {
			p.seq = p.jl.seq
		}
		p.jl.compactAt = cfg.CompactBytes
		p.jl.snapshot = p.compactionSnapshot
		// Load-time compaction retires terminal campaigns' events, bounding
		// the file across restarts. Note retired campaigns are dropped
		// entirely: they stop being queryable after the *next* restart,
		// which is the documented trade for a bounded journal.
		if p.jl.loaded && anyTerminal {
			p.jl.compact()
			if err := p.jl.err; err != nil {
				return nil, err
			}
		}
		p.jl.start()
	}
	return p, nil
}

// replay applies one journal event during New. Events were validated
// structurally by the journal parser; machine-level validation (report
// surface, duplicate slots) happens here.
func (p *Plane) replay(e *journalEvent) error {
	switch e.Event {
	case evSubmit:
		m, err := campaign.NewMachine(*e.Spec, p.cfg.MaxRetries)
		if err != nil {
			return fmt.Errorf("re-admitting %s: %v", e.Campaign, err)
		}
		p.camps[e.Campaign] = &camp{
			id:       e.Campaign,
			tenant:   e.Tenant,
			priority: clampPriority(e.Priority),
			quota:    e.Quota,
			state:    StateActive,
			m:        m,
			subs:     make(map[chan []byte]struct{}),
			done:     make(chan struct{}),
		}
		p.order = append(p.order, e.Campaign)
		var n int
		if _, err := fmt.Sscanf(e.Campaign, "c%d", &n); err == nil && n > p.seq {
			p.seq = n
		}
	case evReport:
		// A resume that lands past a stratified campaign's
		// pilot→allocation boundary rebuilds the exact table the pre-crash
		// plane leased from: Restore replays pilot reports in journal
		// order and the table is a pure function of them.
		if err := p.camps[e.Campaign].m.Restore(e.Slot, e.Retries, e.Report); err != nil {
			return fmt.Errorf("restoring %s slot %d: %v", e.Campaign, e.Slot, err)
		}
	case evCancel:
		p.camps[e.Campaign].state = StateCancelled
	}
	return nil
}

// Close drains the journal committer (pending batches still commit) and
// releases the append handle. The plane must not accept further mutations
// after Close.
func (p *Plane) Close() error {
	p.mu.Lock()
	p.closed = true
	p.wakeLocked()
	p.mu.Unlock()
	// Outside p.mu: the committer may be mid-compaction, which takes p.mu
	// for its state snapshot.
	return p.jl.Close()
}

// Compact synchronously rewrites the journal as the minimal event history
// of the live campaigns, retiring terminal campaigns' events. No-op
// without a journal.
func (p *Plane) Compact() error {
	return p.jl.forceCompact()
}

// JournalStats returns this plane's journal hot-path counters (zero
// without a journal).
func (p *Plane) JournalStats() JournalStats {
	return p.jl.Stats()
}

// compactionSnapshot assembles, under the plane lock, the minimal event
// history equivalent to the live campaign state: one submit plus one
// report per finished slot for each non-terminal campaign, in submission
// order. It also steals the journal's uncommitted batch — those events'
// mutations are already visible in the state being snapshotted, so
// writing both the snapshot and the batch would duplicate them; the
// stolen batch is acknowledged when the snapshot lands.
func (p *Plane) compactionSnapshot() (int, []*journalEvent, *commitBatch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var stolen *commitBatch
	if p.jl != nil {
		p.jl.mu.Lock()
		stolen = p.jl.batch
		p.jl.buf, p.jl.batch = p.jl.buf[:0], nil
		p.jl.mu.Unlock()
	}
	var events []*journalEvent
	for _, id := range p.order {
		c := p.camps[id]
		if c.terminal() {
			continue
		}
		events = append(events, &journalEvent{
			Event: evSubmit, Campaign: c.id,
			Tenant: c.tenant, Priority: c.priority, Quota: c.quota,
			Spec: ptr(c.m.Spec()),
		})
		for s, n := 0, c.m.Spec().Slots(); s < n; s++ {
			if r := c.m.SlotReport(s); r != nil {
				// A copy: the snapshot is written outside the lock, and the
				// campaign may finish meanwhile, retiring r's wire bytes.
				events = append(events, &journalEvent{
					Event: evReport, Campaign: c.id,
					Slot: s, Retries: c.m.SlotRetries(s), Report: ptr(*r),
				})
			}
		}
	}
	return p.seq, events, stolen
}

func clampPriority(pr int) int {
	if pr < MinPriority {
		return MinPriority
	}
	if pr > MaxPriority {
		return MaxPriority
	}
	return pr
}

// Submit validates and admits one campaign for tenant, journals it, and
// returns its assigned ID. priority is clamped to [MinPriority,
// MaxPriority]; quota 0 inherits Config.DefaultQuota (0 = unlimited).
func (p *Plane) Submit(tenant string, spec campaign.Spec, priority, quota int) (Status, error) {
	m, err := campaign.NewMachine(spec, p.cfg.MaxRetries)
	if err != nil {
		noteRejected(tenant)
		return Status{}, err
	}
	if quota <= 0 {
		quota = p.cfg.DefaultQuota
	}
	priority = clampPriority(priority)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		noteRejected(tenant)
		return Status{}, fmt.Errorf("controlplane: plane is closed")
	}
	if cap := p.cfg.MaxQueuedPerTenant; cap > 0 && p.activeByTenant[tenant] >= cap {
		p.mu.Unlock()
		noteRejected(tenant)
		noteQueueCapped(tenant)
		return Status{}, planeError{429, fmt.Sprintf(
			"controlplane: tenant %q has %d campaigns queued (cap %d); retry after one finishes",
			tenantKey(tenant), cap, cap)}
	}
	p.seq++
	id := fmt.Sprintf("c%d", p.seq)
	// Durable before acknowledged: the submission is admitted and enqueued
	// under the lock, but the ID is returned to the tenant only after the
	// journal batch carrying it is fsynced — the wait happens with the
	// scheduler lock released, so dispatch never stalls behind the disk.
	wait := p.jl.enqueue(journalEvent{
		Event: evSubmit, Campaign: id,
		Tenant: tenant, Priority: priority, Quota: quota,
		Spec: ptr(m.Spec()),
	})
	c := &camp{
		id: id, tenant: tenant, priority: priority, quota: quota,
		state: StateActive, m: m,
		subs: make(map[chan []byte]struct{}),
		done: make(chan struct{}),
	}
	p.camps[id] = c
	p.order = append(p.order, id)
	p.ring = append(p.ring, id)
	p.activeByTenant[tenant]++
	noteSubmitted(tenant)
	setQueueDepth(len(p.ring))
	p.wakeLocked()
	st := p.statusLocked(c)
	p.mu.Unlock()

	if err := wait(); err != nil {
		// The journal is broken (sticky): every later mutation fails too,
		// so the in-memory admission cannot outlive an acknowledged one.
		noteRejected(tenant)
		return Status{}, err
	}
	return st, nil
}

func ptr[T any](v T) *T { return &v }

// Cancel moves a campaign to the cancelled state: its remaining slots are
// never leased again, outstanding leases die at their next heartbeat, and
// late reports are dropped. Owner-checked when the plane authenticates
// tenants; idempotent for already-cancelled campaigns.
func (p *Plane) Cancel(tenant, id string) error {
	p.mu.Lock()
	c, ok := p.camps[id]
	if !ok {
		p.mu.Unlock()
		return errNotFound(id)
	}
	if err := p.authzLocked(c, tenant); err != nil {
		p.mu.Unlock()
		return err
	}
	switch c.state {
	case StateCancelled:
		p.mu.Unlock()
		return nil
	case StateDone, StateFailed:
		state := c.state
		p.mu.Unlock()
		return errConflict(fmt.Sprintf("campaign %s already %s", id, state))
	}
	wait := p.jl.enqueue(journalEvent{Event: evCancel, Campaign: id})
	p.finishLocked(c, StateCancelled)
	p.mu.Unlock()
	return wait()
}

// authzLocked is the per-campaign ownership check every tenant-facing
// accessor shares: with authentication enabled, only the submitting
// tenant may see or mutate a campaign. In loopback dev mode (no
// authenticator) every caller is trusted.
func (p *Plane) authzLocked(c *camp, tenant string) error {
	if p.cfg.Auth != nil && c.tenant != tenant {
		return errForbidden(c.id)
	}
	return nil
}

// dropFromRing removes id from the scheduling ring, keeping the cursor on
// the same neighbor so fair-share rotation is unaffected.
func (p *Plane) dropFromRing(id string) {
	for i, rid := range p.ring {
		if rid != id {
			continue
		}
		p.ring = append(p.ring[:i], p.ring[i+1:]...)
		if p.cursor > i {
			p.cursor--
		}
		if len(p.ring) > 0 {
			p.cursor %= len(p.ring)
		} else {
			p.cursor = 0
		}
		break
	}
	setQueueDepth(len(p.ring))
}

// finishLocked retires an active campaign into a terminal state.
func (p *Plane) finishLocked(c *camp, state string) {
	if c.terminal() {
		return
	}
	c.state = state
	close(c.done)
	c.m.Retire()
	p.dropFromRing(c.id)
	if p.activeByTenant[c.tenant] > 0 {
		p.activeByTenant[c.tenant]--
	}
	dropCampaignMetrics(c.id)
	p.broadcastLocked(c)
}

// expireLocked sweeps the active campaigns' lease deadlines, failing
// campaigns whose slots ran out of retries. Only the ring is visited
// (terminal campaigns have no leases), downward so finishLocked's
// removals cannot skip an entry, and each visit is O(1) unless that
// machine's earliest deadline actually passed.
func (p *Plane) expireLocked(now time.Time) {
	for i := len(p.ring) - 1; i >= 0; i-- {
		c := p.camps[p.ring[i]]
		if n := c.m.Expire(now); n > 0 {
			noteLeaseExpired(c.id, n)
			p.wakeLocked()
		}
		if c.m.Err() != nil {
			p.finishLocked(c, StateFailed)
		}
	}
}

// LeaseBatch is the fleet-facing shard hand-out: deficit round-robin over
// the active campaigns. Each campaign's priority is its quantum — when the
// cursor arrives with an empty deficit it refills to priority and the
// campaign draws up to that many consecutive leases before the cursor
// moves on — so long-run shares are proportional to priority, every
// active campaign is visited once per ring cycle (no starvation), and a
// campaign at its in-flight quota or with nothing leasable is skipped
// without banking credit. It grants up to max leases under one lock
// acquisition, continuing the round-robin exactly where sequential single
// grants would have left it — a batch of N is indistinguishable from N
// roundtrips, so fair-share proportions are unchanged. It never waits:
// it is POST /v1/lease {"max":N} without the hold, exported for embedded
// fleets and the benchmark's ledger probes.
//
// The fleet is never "done" and a failed campaign never poisons it:
// workers ask for as long as the plane serves, and campaign-terminal
// states are per-campaign.
func (p *Plane) LeaseBatch(now time.Time, max int) campaign.LeaseResponse {
	if max < 1 {
		max = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expireLocked(now)
	var leases []*campaign.Lease
	for len(leases) < max {
		l := p.grantLocked(now)
		if l == nil {
			break
		}
		leases = append(leases, l)
	}
	return campaign.LeaseResponse{Leases: leases}
}

// holdLease is POST /v1/lease: LeaseBatch, but a request that finds
// nothing leasable is held (held runs first) until wakeLocked, ctx ends,
// the plane closes or the hold bound passes — min(LeaseTTL/4, 1 s), so an
// expiry nobody signals is still noticed — and then answered with what
// LeaseBatch grants. A done ctx or a closed plane is granted nothing.
func (p *Plane) holdLease(ctx context.Context, n int, held func()) campaign.LeaseResponse {
	hold := time.NewTimer(max(min(p.cfg.LeaseTTL/4, time.Second), 10*time.Millisecond))
	defer hold.Stop()
	for {
		p.mu.Lock()
		work, closed := p.work, p.closed
		p.mu.Unlock()
		if closed || ctx.Err() != nil {
			return campaign.LeaseResponse{}
		}
		if resp := p.LeaseBatch(time.Now(), n); len(resp.Leases) > 0 {
			return resp
		}
		held()
		select {
		case <-work:
		case <-ctx.Done():
			return campaign.LeaseResponse{}
		case <-hold.C:
			return p.LeaseBatch(time.Now(), n)
		}
	}
}

// wakeLocked releases every held lease request to look again.
func (p *Plane) wakeLocked() {
	close(p.work)
	p.work = make(chan struct{})
}

// grantLocked makes one deficit-round-robin grant, or nil when nothing is
// leasable. O(1) when the campaign at the cursor can serve (the typical
// loaded-plane case), O(active) worst case — the machines' own
// availability checks are heap-backed, never ledger scans.
func (p *Plane) grantLocked(now time.Time) *campaign.Lease {
	for visits := 0; visits < len(p.ring); visits++ {
		if p.cursor >= len(p.ring) {
			p.cursor = 0
		}
		c := p.camps[p.ring[p.cursor]]
		underQuota := c.quota <= 0 || c.m.InFlight() < c.quota
		if !underQuota || !c.m.Available() {
			// Nothing to serve here right now: forfeit any banked deficit
			// (DRR resets credit when the queue is empty) and move on.
			c.deficit = 0
			p.cursor = (p.cursor + 1) % len(p.ring)
			continue
		}
		if c.deficit <= 0 {
			c.deficit = c.priority
		}
		l := c.m.Lease(now, p.cfg.LeaseTTL)
		l.Campaign = c.id
		noteLeaseGranted(c.id)
		c.deficit--
		if c.deficit <= 0 {
			p.cursor = (p.cursor + 1) % len(p.ring)
		}
		return l
	}
	return nil
}

// heartbeat extends a live lease. False tells the worker to abandon the
// shard: the lease expired and was re-granted, the slot finished, or the
// campaign was cancelled.
func (p *Plane) heartbeat(req campaign.HeartbeatRequest, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expireLocked(now)
	c, ok := p.camps[req.Campaign]
	if !ok || c.terminal() {
		return false
	}
	return c.m.Heartbeat(req.LeaseID, now, p.cfg.LeaseTTL)
}

// ReportBatch accepts several finished slots under one lock acquisition
// and one journal batch, returning one error (or nil) per report in
// request order — POST /v1/reports in-process, exported for embedded
// fleets and the benchmark's ledger probes. Every report's ledger
// mutation and journal enqueue happen under the lock; the durability
// waits happen after it is released, so a batch of reports costs the
// scheduler one lock hold and the disk (at most) one fsync.
func (p *Plane) ReportBatch(reqs []campaign.ReportRequest) []error {
	errs := make([]error, len(reqs))
	waits := make([]func() error, len(reqs))
	func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for i := range reqs {
			errs[i], waits[i] = p.reportLocked(&reqs[i])
		}
	}()
	for i, wait := range waits {
		if wait == nil {
			continue
		}
		if err := wait(); err != nil && errs[i] == nil {
			errs[i] = err
		}
	}
	return errs
}

// reportLocked applies one report to its campaign's ledger and enqueues
// the journal event, returning the validation error (if any) and the
// durability wait for the caller to resolve outside the lock. Reports for
// cancelled campaigns are dropped without error — the worker did honest
// work against a lease that was valid when granted; there is nothing for it
// to retry. A report whose lease was never granted for its slot is refused:
// the ledger is lease-agnostic (a late delivery from an expired lease is
// bit-identical to the re-leased worker's), so without this check any
// caller could inject a structurally-valid fabricated report and have it
// merged silently. A granted one must tally the slot's injections
// (AcceptLeased).
func (p *Plane) reportLocked(req *campaign.ReportRequest) (error, func() error) {
	c, ok := p.camps[req.Campaign]
	if !ok {
		return errNotFound(req.Campaign), nil
	}
	if c.state == StateCancelled || c.state == StateFailed {
		return nil, nil
	}
	if !c.m.LeaseEverGranted(req.LeaseID, req.Shard) {
		return planeError{403, fmt.Sprintf("controlplane: campaign %s never granted lease %q for slot %d", c.id, req.LeaseID, req.Shard)}, nil
	}
	first, err := c.m.AcceptLeased(req.Shard, req.Report)
	if errors.Is(err, campaign.ErrConflictingDuplicate) {
		noteDuplicateConflict()
		return errConflict(fmt.Sprintf("controlplane: campaign %s: %v", c.id, err)), nil
	}
	if err != nil || !first {
		return err, nil
	}
	noteShardDone(c.id)
	p.wakeLocked()
	wait := p.jl.enqueue(journalEvent{
		Event: evReport, Campaign: c.id,
		Slot: req.Shard, Retries: c.m.SlotRetries(req.Shard), Report: req.Report,
	})
	p.broadcastLocked(c)
	if c.m.Done() {
		p.finishLocked(c, StateDone)
	}
	return nil, wait
}

func (p *Plane) statusLocked(c *camp) Status {
	return Status{
		ID:       c.id,
		Tenant:   c.tenant,
		Priority: c.priority,
		Quota:    c.quota,
		State:    c.state,
		InFlight: c.m.InFlight(),
		Snapshot: c.m.Snapshot(),
	}
}

// List returns the tenant's campaigns' statuses in submission order —
// every campaign in loopback dev mode, only the caller's own when the
// plane authenticates tenants.
func (p *Plane) List(tenant string) []Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Status, 0, len(p.order))
	for _, id := range p.order {
		c := p.camps[id]
		if p.authzLocked(c, tenant) != nil {
			continue
		}
		out = append(out, p.statusLocked(c))
	}
	return out
}

// Active counts campaigns still schedulable (for operator logging; not
// tenant-scoped, unlike List).
func (p *Plane) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ring)
}

// Get returns one campaign's status. Owner-checked like Cancel when the
// plane authenticates tenants.
func (p *Plane) Get(tenant, id string) (Status, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.camps[id]
	if !ok {
		return Status{}, errNotFound(id)
	}
	if err := p.authzLocked(c, tenant); err != nil {
		return Status{}, err
	}
	return p.statusLocked(c), nil
}

// Result returns one campaign's normalized spec and, once the campaign is
// done, its merged final report and merged pilot strata (nil for uniform
// or prior-allocated campaigns). The spec is valid whenever the campaign
// exists and the caller owns it; until a final report exists the report
// is nil and err is the 409 saying why. Owner-checked like Cancel when
// the plane authenticates tenants. It is what an embedding front (the
// one-campaign `faultserve -role coordinator`) needs beyond Status to
// adopt a journaled campaign and to emit its artifacts.
func (p *Plane) Result(tenant, id string) (campaign.Spec, *campaign.Report, *engine.StrataSummary, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.camps[id]
	if !ok {
		return campaign.Spec{}, nil, nil, errNotFound(id)
	}
	if err := p.authzLocked(c, tenant); err != nil {
		return campaign.Spec{}, nil, nil, err
	}
	spec := c.m.Spec()
	if c.state == StateCancelled {
		return spec, nil, nil, errConflict(fmt.Sprintf("campaign %s was cancelled", id))
	}
	r, err := c.m.FinalReport()
	if err != nil {
		return spec, nil, nil, errConflict(err.Error())
	}
	return spec, r, c.m.PilotStrata(), nil
}

// FinalReportJSON returns the finished campaign's merged report as the
// inner surface report, indented — byte-identical to what a solo
// faultserve run of the same spec writes with -out, which is what makes
// shared-fleet results directly byte-comparable against solo baselines.
// It is json.MarshalIndent(r.Inner(), "", "  ") with the wire codec in
// place of json.Marshal: MarshalIndent is Marshal, then Indent. (The solo
// side keeps encoding/json, the reference the plane is compared with.)
// Owner-checked like Cancel when the plane authenticates tenants.
func (p *Plane) FinalReportJSON(tenant, id string) ([]byte, error) {
	_, r, _, err := p.Result(tenant, id)
	if err != nil {
		return nil, err
	}
	compact, err := r.AppendInnerJSON(nil)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(2 * len(compact))
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// broadcastLocked fans the campaign's current status out to its stream
// subscribers; a stalled reader must not block report intake. With no
// subscribers it skips even building the status — Snapshot is O(slots),
// far too expensive to compute per report for nobody.
func (p *Plane) broadcastLocked(c *camp) {
	if len(c.subs) == 0 {
		return
	}
	line, err := json.Marshal(p.statusLocked(c))
	if err != nil {
		return
	}
	for ch := range c.subs {
		select {
		case ch <- line:
		default:
		}
	}
}

// subscribe attaches a stream reader to a campaign. The returned done
// channel closes when the campaign reaches a terminal state.
// Owner-checked like Cancel when the plane authenticates tenants.
func (p *Plane) subscribe(tenant, id string) (ch chan []byte, done <-chan struct{}, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.camps[id]
	if !ok {
		return nil, nil, errNotFound(id)
	}
	if err := p.authzLocked(c, tenant); err != nil {
		return nil, nil, err
	}
	ch = make(chan []byte, 16)
	line, _ := json.Marshal(p.statusLocked(c))
	c.subs[ch] = struct{}{}
	ch <- line
	return ch, c.done, nil
}

func (p *Plane) unsubscribe(id string, ch chan []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.camps[id]; ok {
		delete(c.subs, ch)
	}
}

// statusJSON returns the marshaled current status (for ending streams).
func (p *Plane) statusJSON(id string) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.camps[id]
	if !ok {
		return nil
	}
	line, _ := json.Marshal(p.statusLocked(c))
	return line
}

// Typed errors the API layer maps onto HTTP statuses.

type planeError struct {
	code int // http status
	msg  string
}

func (e planeError) Error() string { return e.msg }

func errNotFound(id string) error {
	return planeError{404, fmt.Sprintf("controlplane: unknown campaign %q", id)}
}
func errForbidden(id string) error {
	return planeError{403, fmt.Sprintf("controlplane: campaign %q belongs to another tenant", id)}
}
func errConflict(msg string) error { return planeError{409, msg} }
