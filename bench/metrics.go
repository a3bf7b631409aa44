package main

import (
	"fmt"
	"sort"
)

// metricDef is one metric of the schema BENCHMARK.json declares.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the system sees; every workload
// reports every one of them from its untraced run. Bounds are the share of
// the parent's median by which a metric may worsen. They all sit at the
// largest bound the schema allows: on the shared host this was built on,
// ten runs of one binary spread by 9 % to 27 % of their median depending on
// the quarter of an hour (see README.md, "Noise and bounds").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"inj_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_kinj", "ms", "lower", 0.25},
	{"campaign_ms_p50", "ms", "lower", 0.25},
	{"reports_per_s", "1/s", "higher", 0.25},
}

// perLayerDefs builds the per-layer schema: layer = module name.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "numeric.quantize_ns", "numeric.flipbit_ns")

	for _, n := range []string{"ConvNet", "AlexNet", "CaffeNet", "NiN"} {
		add("ms", "lower", "network.golden_forward_ms."+n)
	}
	for _, n := range []string{"ConvNet", "AlexNet"} {
		add("us", "lower", "network.resume_us."+n, "network.resume_dense_us."+n)
	}

	add("ms", "lower", "faultinj.new_ms.ConvNet", "faultinj.new_ms.AlexNet")
	for _, mode := range []string{"perbit", "site_scalar", "site_bitplane", "dense"} {
		add("us", "lower", "faultinj.us_per_inj."+mode+".ConvNet.FLOAT16")
	}
	add("us", "lower",
		"faultinj.us_per_inj.perbit.ConvNet.DOUBLE", "faultinj.us_per_inj.perbit.ConvNet.32b_rb10",
		"faultinj.us_per_inj.perbit.AlexNet.FLOAT16", "faultinj.us_per_inj.perbit.AlexNet.32b_rb10")
	add("ratio", "higher",
		"faultinj.masked_frac.ConvNet.FLOAT16", "faultinj.masked_frac.AlexNet.FLOAT16",
		"faultinj.premasked_frac.ConvNet.32b_rb26")
	for net, blocks := range map[string]int{"ConvNet": 5, "AlexNet": 8} {
		for b := 0; b < blocks; b++ {
			add("us", "lower", fmt.Sprintf("faultinj.block_us_per_inj.%s.b%d", net, b))
			add("ratio", "higher", fmt.Sprintf("faultinj.block_masked_frac.%s.b%d", net, b))
		}
	}

	for _, b := range []string{"global", "filter", "img", "psum"} {
		add("us", "lower", "eyeriss.us_per_inj."+b)
	}
	add("ms", "lower", "eyeriss.new_campaign_ms")

	for _, f := range []string{"weight", "output", "input"} {
		add("us", "lower", "systolic.us_per_inj."+f)
		add("ratio", "higher", "systolic.arch_masked_frac."+f)
		add("ms", "lower", "systolic.sim_ms."+f)
	}
	add("ms", "lower", "systolic.new_campaign_ms", "pearray.sim_ms")

	add("us", "lower", "engine.build_table_us",
		"engine.merge_us.datapath", "engine.merge_us.buffer", "engine.merge_us.systolic")
	add("ratio", "higher", "engine.ci_ratio.ConvNet.16b_rb10")

	for _, s := range []string{"datapath", "buffer", "systolic"} {
		add("ms", "lower", "campaign.execute_lease_ms_p50."+s)
		add("bytes", "lower", "campaign.report_json_bytes."+s)
	}
	add("ms", "lower",
		"campaign.queue_wait_ms_p50", "campaign.slot_held_ms_p50", "campaign.slot_held_ms_p90",
		"campaign.worker_wait_ms_p50", "campaign.pilot_barrier_ms_p50", "campaign.idle_pickup_ms_p50.ttl2s",
		"campaign.first_ci_ms_p50", "campaign.latency_ms_p90")
	add("count", "higher", "campaign.leases_in_flight_mean")
	add("count", "lower", "campaign.golden_misses")
	add("us", "lower",
		"campaign.report_encode_us", "campaign.report_decode_us",
		"campaign.machine_lease_us", "campaign.machine_accept_us")

	for _, r := range []string{"submit", "lease", "reports", "heartbeat", "report_get"} {
		add("ms", "lower", "controlplane.http."+r+"_ms_p50")
	}
	add("ms", "lower", "controlplane.http.lease_ms_p99", "controlplane.http.reports_ms_p99")
	add("count", "lower", "controlplane.http.requests", "controlplane.empty_polls")
	add("MB", "lower", "controlplane.http.bytes_in_mb", "controlplane.http.bytes_out_mb")
	add("count", "higher", "controlplane.lease_batch_mean", "controlplane.reports_batch_mean",
		"controlplane.journal.events_per_fsync")
	add("ms", "lower", "controlplane.journal.fsync_ms_mean")
	add("bytes", "lower", "controlplane.journal.bytes_per_event")
	add("count", "lower", "controlplane.journal.fsyncs", "controlplane.journal.compactions",
		"controlplane.journal.retired_events", "controlplane.replay_events")
	add("ms", "lower", "controlplane.compact_ms", "controlplane.replay_ms",
		"controlplane.final_report_ms_p50", "controlplane.stream_lag_ms_p50")
	add("us", "lower", "controlplane.auth_verify_us")

	add("MB", "lower", "host.peak_rss_mb", "host.alloc_mb_per_kinj")
	add("ratio", "higher", "host.cpu_util")
	add("ms", "lower", "host.gc_pause_ms")
	add("count", "lower", "host.gc_cycles")
	add("ratio", "lower", "trace.overhead_frac")

	sort.SliceStable(d, func(i, j int) bool { return d[i].Name < d[j].Name })
	return d
}

// layerMetrics collects the per-layer metrics of one traced run. Every
// name of the schema is present from the start with value 0: a layer the
// workload does not exercise reads 0 there (no requests, no samples),
// which is what the bypass checks look at.
type layerMetrics struct {
	m map[string]metric
}

func newLayerMetrics() *layerMetrics {
	l := &layerMetrics{m: make(map[string]metric)}
	for _, d := range perLayerDefs() {
		l.m[d.Name] = metric{0, d.Unit}
	}
	return l
}

// set records a value under a schema name; a name outside the schema is a
// bug in the benchmark.
func (l *layerMetrics) set(name string, v float64) {
	cur, ok := l.m[name]
	if !ok {
		panic("bench: metric " + name + " is not in the per-layer schema")
	}
	cur.Value = v
	l.m[name] = cur
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
