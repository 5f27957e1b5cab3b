package main

// metricDef names one reported metric. The same names, units and
// directions are declared in BENCHMARK.json at the repository root, which
// also holds each end-to-end metric's bound.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the cluster would see; every workload
// reports every one of them, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cap_per_s", "ops/s"},
	{"lo_p50_us", "us"},
	{"lo_p95_us", "us"},
	{"hi_p50_us", "us"},
	{"hi_p95_us", "us"},
	{"cpu_us_per_proc", "us"},
	{"allocs_per_proc", "count"},
	{"alloc_bytes_per_proc", "B"},
	{"heap_kb_per_ue", "KiB"},
}

// perLayer is what single layers did, from the traced run: live counters
// diffed over the hi phase, then the serial ladder.
var perLayer = []metricDef{
	{"transport.frames_per_proc", "count"},
	{"transport.bytes_per_proc", "B"},
	{"transport.flushes_per_frame", "ratio"},
	{"mmp.busy_us_per_msg", "us"},
	{"mmp.msgs_per_proc", "count"},
	{"mmp.occupancy_max", "ratio"},
	{"mmp.no_context_per_kproc", "count"},
	{"core.agent_queue_peak", "count"},
	{"core.agent_queue_rejects", "count"},
	{"mlb.balance_max_over_min", "ratio"},
	{"state.ctx_per_ue", "count"},
	{"hss.vectors_per_attach", "count"},
	{"sgw.sessions_per_ue", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.gc_cycles", "count"},
	{"enb.gen_late_p99_us", "us"},
	{"enb.gen_late_max_us", "us"},
	{"live.lo_p99_us", "us"},
	{"live.hi_p99_us", "us"},
	{"live.hi_p999_us", "us"},
	{"live.samples", "count"},
	{"live.fail_share", "ratio"},
	{"live.residual_us", "us"},
	{"obs.cap_ratio", "ratio"},
	{"ladder.enb_us", "us"},
	{"ladder.codec_us", "us"},
	{"ladder.codec_allocs", "count"},
	{"ladder.transport_us", "us"},
	{"ladder.transport_hops", "count"},
	{"ladder.mlb_route_us", "us"},
	{"ladder.mlb_route_allocs", "count"},
	{"ladder.mmp_engine_us", "us"},
	{"ladder.mmp_engine_allocs", "count"},
	{"ladder.s6a_wait_us", "us"},
	{"ladder.s6a_calls", "count"},
	{"ladder.s11_wait_us", "us"},
	{"ladder.s11_calls", "count"},
	{"ladder.replicate_us", "us"},
	{"ladder.replicate_calls", "count"},
	{"ladder.total_us", "us"},
	{"ladder.trace_overhead_pct", "%"},
}
