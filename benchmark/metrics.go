package main

// metricDef is one line of the ledger's vocabulary. BENCHMARK.json at the
// root of the repository lists the same names, units and directions;
// TestVocabularyMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are measured untraced, on every workload. An operation is what
// the workload's user waits for: one simulation, one completed rollout,
// one routed request.
var endToEnd = []metricDef{
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer come from the traced run. A metric of a layer the workload
// never enters reads 0.
var perLayer = []metricDef{
	{Name: "graph.gen_s", Unit: "s", Better: "lower"},
	{Name: "graph.reference_s", Unit: "s", Better: "lower"},

	{Name: "congest.rounds", Unit: "count", Better: "lower"},
	{Name: "congest.messages", Unit: "count", Better: "lower"},
	{Name: "congest.runs", Unit: "count", Better: "lower"},
	{Name: "congest.rounds_executed", Unit: "count", Better: "lower"},
	{Name: "congest.active_share", Unit: "ratio", Better: "lower"},
	{Name: "congest.ns_per_message", Unit: "ns", Better: "lower"},
	{Name: "congest.round_p50_us", Unit: "us", Better: "lower"},
	{Name: "congest.round_max_us", Unit: "us", Better: "lower"},
	{Name: "congest.max_link_congestion", Unit: "count", Better: "lower"},
	{Name: "congest.outside_rounds_s", Unit: "s", Better: "lower"},

	{Name: "core.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "core.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "hssp.cssp_s", Unit: "s", Better: "lower"},
	{Name: "hssp.blocker_s", Unit: "s", Better: "lower"},
	{Name: "hssp.sssp_s", Unit: "s", Better: "lower"},
	{Name: "hssp.broadcast_s", Unit: "s", Better: "lower"},
	{Name: "hssp.local_s", Unit: "s", Better: "lower"},
	{Name: "hssp.cssp_rounds", Unit: "count", Better: "lower"},
	{Name: "hssp.blocker_rounds", Unit: "count", Better: "lower"},
	{Name: "hssp.sssp_rounds", Unit: "count", Better: "lower"},
	{Name: "hssp.broadcast_rounds", Unit: "count", Better: "lower"},
	{Name: "hssp.h", Unit: "count", Better: "lower"},
	{Name: "hssp.blockers", Unit: "count", Better: "lower"},
	{Name: "hssp.alloc_mb_per_op", Unit: "MB", Better: "lower"},

	{Name: "compute.apsp_s", Unit: "s", Better: "lower"},
	{Name: "compute.kernel_floyd", Unit: "ratio", Better: "lower"},
	{Name: "compute.us_per_source", Unit: "us", Better: "lower"},
	{Name: "compute.alloc_mb_per_op", Unit: "MB", Better: "lower"},

	{Name: "oracle.build_s", Unit: "s", Better: "lower"},
	{Name: "oracle.publish_s", Unit: "s", Better: "lower"},
	{Name: "oracle.save_s", Unit: "s", Better: "lower"},
	{Name: "oracle.save_mb", Unit: "MB", Better: "lower"},
	{Name: "oracle.save_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "oracle.recover_s", Unit: "s", Better: "lower"},

	{Name: "cluster.rollout_overhead_s", Unit: "s", Better: "lower"},
	{Name: "cluster.rollout_polls", Unit: "count", Better: "lower"},
	{Name: "rollout.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "rollout.read_max_us", Unit: "us", Better: "lower"},
	{Name: "rollout.late_max_us", Unit: "us", Better: "lower"},
	{Name: "rollout.refused_share", Unit: "ratio", Better: "lower"},

	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "nethttp.front_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "nethttp.back_self_us", Unit: "us", Better: "lower"},
	{Name: "oracle.handler_us", Unit: "us", Better: "lower"},
	{Name: "span.residual_us", Unit: "us", Better: "lower"},
	{Name: "cluster.backend_calls_per_req", Unit: "count", Better: "lower"},
	{Name: "cluster.scatter_overlap", Unit: "ratio", Better: "higher"},
	{Name: "oracle.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "client.serial_p50_us", Unit: "us", Better: "lower"},

	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.retries_per_req", Unit: "ratio", Better: "lower"},
	{Name: "cluster.hedges_per_req", Unit: "ratio", Better: "lower"},
	{Name: "oracle.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "oracle.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "proc.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "proc.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "query.lookups_per_s", Unit: "1/s", Better: "higher"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
