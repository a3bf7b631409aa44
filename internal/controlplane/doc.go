// Package controlplane is the campaign server — the only one — and owns
// the only durable log. A Plane holds a persistent queue of many
// campaigns (one internal/campaign Machine each), schedules shard
// leases across one shared worker fleet with priority-weighted fair-share
// (deficit round-robin over active campaigns, per-campaign in-flight
// quotas), authenticates tenants with HMAC bearer tokens, and fans each
// campaign's NDJSON result stream out to many concurrent subscribers.
// Serving a single campaign is the same server with one submission:
// `faultserve -role coordinator` is a short front that opens a dev-mode
// Plane on its -checkpoint path, submits or resumes its one campaign,
// and reads the outcome back through Get and Result.
//
// Authorization separates two roles. Campaign routes are tenant-scoped:
// a tenant lists, reads, streams and cancels only its own campaigns.
// Fleet routes (lease, heartbeat, report) accept only the reserved
// "fleet" worker principal, and a report is merged only when its lease
// was actually granted for that slot — tenants can neither pull other
// tenants' shard leases (whose specs they would otherwise see) nor
// inject fabricated reports into other tenants' campaigns.
//
// Durability is a single append-only journal (format v5; older versions
// are refused) that interleaves every campaign's events — submissions, slot reports,
// cancellations — in one file. Appends are group-committed: concurrent
// events coalesce into one buffered write and a single fsync, and every
// ack is released only after the batch that contains it is durable, so
// an acked submit or report survives kill -9 while the fsync rate stays
// bounded by the batch rate, not the event rate. The journal is
// compacted on restart and past a size threshold: live campaign state is
// rewritten as an atomic snapshot (tmp + fsync + rename), terminal
// campaigns' events are retired, and a crash at any byte of the rewrite
// recovers to either the old journal or the new snapshot, never a
// hybrid. A control plane restarted on the same journal re-admits every
// unfinished campaign and resumes scheduling, including stratified
// campaigns killed between their pilot and main phases: the Neyman
// allocation table is a pure function of the journaled pilot reports, so
// the resumed plane rebuilds it bit-identically.
//
// The fleet path is pipelined and pushed: a worker asks for up to max
// leases per lease roundtrip — held until a slot may be leasable, for at
// most min(LeaseTTL/4, 1 s) — and delivers finished shard results in
// batches via the reports route, while the scheduler grants from an
// incremental deficit-round-robin ring — O(1) typical, O(active
// campaigns) worst — and never holds its lock across an fsync.
//
// Bit-identity is inherited from the campaign layer and preserved under
// interleaving: each campaign owns a private campaign.Machine whose
// slot-order merge is exactly the solo association, so the final report of
// every campaign on a shared fleet is byte-identical to its
// campaign.SoloReport run — regardless of how many campaigns ran
// concurrently, how the scheduler interleaved their leases, or how many
// times the plane was killed and resumed.
package controlplane
