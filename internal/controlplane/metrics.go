package controlplane

import "expvar"

// Control-plane expvar metrics. expvar panics on duplicate registration,
// so the maps live at package scope and accumulate across every Plane in
// the process; /debug/vars on any plane exposes them.
//
//	campaign: {"<id>.leases_granted", "<id>.leases_expired", "<id>.shards_done"}
//	  for active campaigns only: a campaign's keys are dropped when it
//	  finishes, so the map is bounded by the active set, not by history
//	tenant:   {"<tenant>.submitted", "<tenant>.rejected", "<tenant>.queue_capped"}
//	controlplane_queue_depth: campaigns currently active (schedulable)
//	controlplane_duplicate_conflicts: second reports of a done slot whose
//	  JSON differed from the accepted one (answered 409, never merged)
//	controlplane_report_decode_fallbacks: POST /v1/reports bodies that were
//	  not in the canonical form campaign.DecodeReportBatch reads by hand, so
//	  encoding/json decoded them; 0 while every worker posts json.Marshal
//	controlplane_journal: group-commit hot-path counters —
//	  {"batches", "events", "fsyncs", "fsync_nanos", "bytes",
//	   "compactions", "retired_events"}; events/batches is the realized
//	  group-commit amortization, bytes the current file size.
var (
	mCampaigns  = expvar.NewMap("campaign")
	mTenants    = expvar.NewMap("tenant")
	mQueueDepth = expvar.NewInt("controlplane_queue_depth")
	mJournal    = expvar.NewMap("controlplane_journal")
	mConflicts  = expvar.NewInt("controlplane_duplicate_conflicts")
	mFallbacks  = expvar.NewInt("controlplane_report_decode_fallbacks")
)

func noteLeaseGranted(id string) { mCampaigns.Add(id+".leases_granted", 1) }
func noteLeaseExpired(id string, n int) {
	if n > 0 {
		mCampaigns.Add(id+".leases_expired", int64(n))
	}
}
func noteShardDone(id string)       { mCampaigns.Add(id+".shards_done", 1) }
func noteSubmitted(tenant string)   { mTenants.Add(tenantKey(tenant)+".submitted", 1) }
func noteRejected(tenant string)    { mTenants.Add(tenantKey(tenant)+".rejected", 1) }
func setQueueDepth(active int)      { mQueueDepth.Set(int64(active)) }
func noteQueueCapped(tenant string) { mTenants.Add(tenantKey(tenant)+".queue_capped", 1) }
func noteDuplicateConflict()        { mConflicts.Add(1) }
func noteReportDecodeFallback()     { mFallbacks.Add(1) }

// dropCampaignMetrics removes a finished campaign's keys from the campaign
// map.
func dropCampaignMetrics(id string) {
	for _, k := range []string{".leases_granted", ".leases_expired", ".shards_done"} {
		mCampaigns.Delete(id + k)
	}
}

// noteJournalCommit records one committed batch: how many events rode its
// one fsync, how long the write+sync took, and the file size after.
func noteJournalCommit(events, nanos, bytes int64) {
	mJournal.Add("batches", 1)
	mJournal.Add("events", events)
	mJournal.Add("fsyncs", 1)
	mJournal.Add("fsync_nanos", nanos)
	setJournalBytes(bytes)
}

// noteJournalCompaction records one snapshot rewrite and the events it
// retired.
func noteJournalCompaction(retired, bytes int64) {
	mJournal.Add("compactions", 1)
	mJournal.Add("retired_events", retired)
	setJournalBytes(bytes)
}

func setJournalBytes(bytes int64) {
	var v expvar.Int
	v.Set(bytes)
	mJournal.Set("bytes", &v)
}

// tenantKey keeps metric keys well-formed for unauthenticated or
// unidentified callers.
func tenantKey(tenant string) string {
	if tenant == "" {
		return "anonymous"
	}
	return tenant
}
