package main

// metricDef is one named metric as BENCHMARK.json declares it. bound is
// the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics carry
// none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are what a user of the pipeline would see — frames
// delivered on time — what each frame costs the host, and the benchmark's
// own set-up time. Every workload reports all of them from the untraced
// run. Latency percentiles are per-layer (core.e2e_*): on the two
// CPU-bound workloads they follow the host's weather by 25-30% between
// sets of runs, and a metric carries one bound for every workload.
// bench/CALIBRATION.md holds the spreads the bounds were set from.
var endToEndMetrics = []metricDef{
	{"goodput_eps", "frames/s", "higher", 0.20},
	{"alloc_kb_per_frame", "KiB", "lower", 0.08},
	{"mallocs_per_frame", "count", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced run only: calls into each
// package's public functions timed from outside, and the public meter
// registry. A metric a workload does not exercise reads 0 there.
var perLayerMetrics = []metricDef{
	{name: "script.event_us", unit: "us", better: "lower"},
	{name: "script.mallocs_per_event", unit: "count", better: "lower"},
	{name: "script.load_us", unit: "us", better: "lower"},
	{name: "script.instr_per_frame", unit: "count", better: "lower"},

	{name: "wire.rpc_rtt_us", unit: "us", better: "lower"},
	{name: "wire.rpc_mallocs", unit: "count", better: "lower"},
	{name: "wire.push_us", unit: "us", better: "lower"},
	{name: "wire.push_mallocs", unit: "count", better: "lower"},
	{name: "wire.copied_kb_per_frame", unit: "KiB", better: "lower"},

	{name: "frame.jpeg_encode_ms", unit: "ms", better: "lower"},
	{name: "frame.jpeg_decode_ms", unit: "ms", better: "lower"},
	{name: "frame.encoded_kb", unit: "KiB", better: "lower"},
	{name: "frame.clone_us", unit: "us", better: "lower"},
	{name: "frame.pool_hit_frac", unit: "frac", better: "higher"},

	{name: "netsim.xfer_ms", unit: "ms", better: "lower"},
	{name: "netsim.overhead_us", unit: "us", better: "lower"},
	{name: "netsim.mallocs_per_xfer", unit: "count", better: "lower"},
	{name: "netsim.alloc_kb_per_xfer", unit: "KiB", better: "lower"},

	{name: "services.invoke_ms", unit: "ms", better: "lower"},
	{name: "services.handler_ms", unit: "ms", better: "lower"},
	{name: "services.wait_p50_ms", unit: "ms", better: "lower"},
	{name: "services.wait_p95_ms", unit: "ms", better: "lower"},
	{name: "services.queue_depth_mean", unit: "count", better: "lower"},
	{name: "services.busy_workers_mean", unit: "count", better: "higher"},
	{name: "services.batch_mean", unit: "count", better: "higher"},
	{name: "services.pool_size_end", unit: "count", better: "lower"},

	{name: "device.stage.load_frame_ms", unit: "ms", better: "lower"},
	{name: "device.stage.pose_ms", unit: "ms", better: "lower"},
	{name: "device.stage.activity_ms", unit: "ms", better: "lower"},
	{name: "device.stage.rep_count_ms", unit: "ms", better: "lower"},
	{name: "device.stage.total_ms", unit: "ms", better: "lower"},
	{name: "device.stage.display_ms", unit: "ms", better: "lower"},
	{name: "device.call_service_ms", unit: "ms", better: "lower"},
	{name: "device.abandoned", unit: "count", better: "lower"},
	{name: "device.breaches", unit: "count", better: "lower"},

	{name: "core.e2e_p50_ms", unit: "ms", better: "lower"},
	{name: "core.e2e_p90_ms", unit: "ms", better: "lower"},
	{name: "core.e2e_p99_ms", unit: "ms", better: "lower"},
	{name: "core.offer_us", unit: "us", better: "lower"},
	{name: "core.source_drop_frac", unit: "frac", better: "lower"},
	{name: "core.inflight_mean", unit: "count", better: "lower"},
	{name: "core.credits_cap_end", unit: "count", better: "lower"},
	{name: "core.tuner_actions", unit: "count", better: "lower"},
	{name: "core.new_cluster_ms", unit: "ms", better: "lower"},
	{name: "core.launch_ms", unit: "ms", better: "lower"},

	{name: "gen.lateness_p99_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_ms_per_frame", unit: "ms", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "budget.unexplained_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
}
