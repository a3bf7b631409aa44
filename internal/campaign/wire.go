package campaign

import (
	"time"

	"repro/internal/engine"
)

// The wire types of the fleet protocol. The server that speaks them is
// internal/controlplane's Plane; this package owns the shapes because the
// Machine produces leases and snapshots and the Worker consumes them.

// Lease hands a worker everything needed to run one ledger slot — one slot
// of the engine.Plan that Spec implies, which the worker rebuilds: a whole
// shard for uniform campaigns, or one phase of a shard for stratified ones.
type Lease struct {
	ID string `json:"id"`
	// Campaign identifies the owning campaign on the control plane. Workers
	// echo it in heartbeats and reports so the plane can route them.
	Campaign string `json:"campaign,omitempty"`
	// Slot is the plan slot the worker executes (engine.RunSlot) and the
	// ledger index the report must echo back.
	Slot int `json:"slot"`
	// Shard, Of and Phase spell out what the plan makes of Slot — the
	// phase-local shard coordinates, and "" (uniform campaign), "pilot" or
	// "main" — for logs and clients; the worker derives them itself.
	Shard int    `json:"shard"`
	Of    int    `json:"of"`
	Spec  Spec   `json:"spec"`
	Phase string `json:"phase,omitempty"`
	// Table is the pilot-derived Neyman allocation, present on main-phase
	// leases. Serializing it into the lease (and recomputing it
	// deterministically on resume) is what keeps distributed stratified
	// campaigns bit-identical to solo runs.
	Table *engine.StratumTable `json:"table,omitempty"`
	// TTLMillis is the heartbeat deadline; workers should heartbeat at
	// a fraction of it.
	TTLMillis int64 `json:"ttl_millis"`
}

// LeaseRequest is the body of POST /v1/lease. Max bounds how many leases
// one response may carry: a worker asks for as many as its queue has room
// for. Zero (or an empty body) means one.
type LeaseRequest struct {
	Max int `json:"max,omitempty"`
}

// LeaseResponse is the plane's answer to a lease request: the leases to
// run, possibly none. The plane holds a request that finds nothing
// leasable until work appears or a bound passes, so an empty answer means
// "ask again", never "done": a plane serves campaigns for as long as it
// runs, and workers stop on their own terms (see Worker.Run).
type LeaseResponse struct {
	Leases []*Lease `json:"leases,omitempty"`
}

// LeaseHeldHeader marks a POST /v1/lease answer whose headers were sent
// because the plane holds the request: the worker may hang up on it.
const LeaseHeldHeader = "Lease-Held"

// HeartbeatRequest is the worker→plane heartbeat body.
type HeartbeatRequest struct {
	Campaign string `json:"campaign,omitempty"`
	LeaseID  string `json:"lease_id"`
}

// ReportRequest is the worker→plane report delivery body. The Shard field
// is the ledger slot index (Lease.Slot); the wire name predates stratified
// sampling, under which a slot is one phase of a shard rather than a whole
// shard.
type ReportRequest struct {
	Campaign string  `json:"campaign,omitempty"`
	LeaseID  string  `json:"lease_id"`
	Shard    int     `json:"shard"`
	Report   *Report `json:"report"`
}

// ReportBatchRequest is the body of POST /v1/reports: several finished
// slots delivered in one roundtrip by a pipelined worker.
type ReportBatchRequest struct {
	Reports []ReportRequest `json:"reports"`
}

// ReportBatchResponse answers a report batch with one outcome per
// delivered report, in request order.
type ReportBatchResponse struct {
	Results []ReportOutcome `json:"results"`
}

// ReportOutcome is the per-report result of a batch delivery. Code 0
// means accepted (or idempotently dropped); otherwise it is the HTTP
// status that report alone earned, so workers apply the abandon-on-4xx
// rule per item.
type ReportOutcome struct {
	Code  int    `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// shardState tracks one ledger slot through pending → leased → done.
type shardState struct {
	done     bool
	retries  int
	leaseID  string
	deadline time.Time
	report   *Report
}

// BlockAggregate is the live per-block view in a snapshot: the SDC-1
// probability with its pooled 95% CI over the injections seen so far.
type BlockAggregate struct {
	Block  int     `json:"block"`
	Trials int     `json:"trials"`
	SDC1   float64 `json:"sdc1"`
	CI95   float64 `json:"ci95"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// Snapshot is a campaign's live aggregate view — the body of every status
// and NDJSON stream line: progress plus running aggregates merged from
// every slot report so far.
type Snapshot struct {
	CompletedShards int              `json:"completed_shards"`
	TotalShards     int              `json:"total_shards"`
	ResumedShards   int              `json:"resumed_shards"`
	RetriedLeases   int              `json:"retried_leases"`
	Injections      int              `json:"injections"`
	MaskedFraction  float64          `json:"masked_fraction"`
	SDC1            float64          `json:"sdc1"`
	SDC1CI95        float64          `json:"sdc1_ci95"`
	PerBlock        []BlockAggregate `json:"per_block"`
	// Sampling echoes the spec's sampling design; the stratified fields
	// below are only present for "stratified" campaigns.
	Sampling string `json:"sampling,omitempty"`
	// PilotShards counts completed pilot slots (stratified only).
	PilotShards int `json:"pilot_shards,omitempty"`
	// StrataWeights are the population stratum weights as hex float bits —
	// bit-exact across serialize/deserialize, like ValueRecord fields.
	StrataWeights engine.HexFloats `json:"strata_weights,omitempty"`
	// StrataTrials is the per-stratum trial count observed so far.
	StrataTrials []int  `json:"strata_trials,omitempty"`
	Done         bool   `json:"done"`
	Failed       string `json:"failed,omitempty"`
}
