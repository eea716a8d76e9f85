package bench

// Spec declares one metric the way BENCHMARK.json lists it.
type Spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// EndToEnd lists the metrics an untraced run reports, on every workload.
// README.md records why the per-class latencies (read, write, create,
// cold-open), fail_ratio, the p99 and peak_rss_mb are reported as client.*
// per-layer metrics instead: they do not exist, or are zero, on some
// workloads, are not steady enough on the reference box to carry a bound,
// or grow with the work done where lower is meant to be better.
var EndToEnd = []Spec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
}

// PerLayer lists the metrics a traced run reports, on every workload; a
// layer a workload bypasses reads 0 there, which is the point.
var PerLayer = []Spec{
	{Name: "transport.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.request_us_per_op", Unit: "us", Better: "lower"},
	{Name: "transport.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "transport.grant_rpc_us", Unit: "us", Better: "lower"},
	{Name: "transport.release_rpc_us", Unit: "us", Better: "lower"},
	{Name: "transport.update_rpc_us", Unit: "us", Better: "lower"},
	{Name: "transport.invalidate_rpc_us", Unit: "us", Better: "lower"},
	{Name: "transport.repl_rpc_us", Unit: "us", Better: "lower"},
	{Name: "transport.lookup_rpc_us", Unit: "us", Better: "lower"},
	{Name: "core.client_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.handler_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.background_rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lock_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.unlock_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.readview_call_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lock_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.release_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.release_retries_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lookup_dir_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.lookup_stage_ring_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.lookup_stage_walk_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.reserve_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.allocate_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.unreserve_us_p50", Unit: "us", Better: "lower"},
	{Name: "consistency.prefetch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "consistency.prefetch_waste_per_op", Unit: "count", Better: "lower"},
	{Name: "consistency.update_batch_pages_per_op", Unit: "count", Better: "lower"},
	{Name: "consistency.invalidate_failures", Unit: "count", Better: "lower"},
	{Name: "store.mem_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "replog.commit_us_mean", Unit: "us", Better: "lower"},
	{Name: "replog.degraded_commits", Unit: "count", Better: "lower"},
	{Name: "ring.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "ring.fallback_walks_per_op", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "client.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.create_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.cold_open_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.cold_open_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "wire.marshal_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "wire.marshal_alloc_bytes_per_page", Unit: "B", Better: "lower"},
	{Name: "wire.unmarshal_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_alloc_bytes_per_page", Unit: "B", Better: "lower"},
	{Name: "wire.small_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.inproc_echo_us", Unit: "us", Better: "lower"},
	{Name: "transport.inproc_echo_64k_us", Unit: "us", Better: "lower"},
	{Name: "transport.inproc_echo_64k_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.tcp_echo_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_echo_64k_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_echo_64k_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "frame.alloc_release_ns", Unit: "ns", Better: "lower"},
	{Name: "frame.retain_release_ns", Unit: "ns", Better: "lower"},
	{Name: "store.mem_put_ns", Unit: "ns", Better: "lower"},
	{Name: "store.mem_get_ns", Unit: "ns", Better: "lower"},
	{Name: "store.spill_put_us", Unit: "us", Better: "lower"},
	{Name: "store.disk_get_us", Unit: "us", Better: "lower"},
	{Name: "replog.append_us", Unit: "us", Better: "lower"},
	{Name: "ring.build_us", Unit: "us", Better: "lower"},
	{Name: "ring.owners_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.table_lookup_ns", Unit: "ns", Better: "lower"},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(EndToEnd)+len(PerLayer))
	for _, s := range append(append([]Spec(nil), EndToEnd...), PerLayer...) {
		m[s.Name] = s.Unit
	}
	return m
}()
