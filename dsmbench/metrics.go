package main

import "fmt"

// metricDef declares one metric as BENCHMARK.json lists it. bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is every metric a timed run prints. Host-time metrics bear
// the machine's noise; virtual and fabric metrics are exact for a seed
// and move across seeds only with the inputs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
	{"allocs_per_op", "obj/op", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"virt_makespan_ns", "virt_ns", "lower", 0.05},
	{"virt_p50_ns", "virt_ns", "lower", 0.05},
	{"virt_p99_ns", "virt_ns", "lower", 0.15},
	{"fabric_msgs_per_op", "msg/op", "lower", 0.05},
	{"fabric_bytes_per_op", "B/op", "lower", 0.05},
	{"virt_max_rate_rps", "req/virt_s", "higher", 0.05},
}

// perLayer is every metric a traced run prints. The counters come from
// layerCounters (exact, whole episode); vm.* medians, *.host_share and
// trace.overhead_ratio come from the traced episodes.
var perLayer = []metricDef{
	{"vm.hit_host_ns", "ns", "lower", 0},
	{"vm.fault_host_ns", "ns", "lower", 0},
	{"vm.fault_virt_ns", "virt_ns", "lower", 0},
	{"vm.span_host_ns", "ns", "lower", 0},
	{"vm.lock_host_ns", "ns", "lower", 0},
	{"vm.lock_virt_ns", "virt_ns", "lower", 0},
	{"vm.unlock_host_ns", "ns", "lower", 0},
	{"vm.unlock_virt_ns", "virt_ns", "lower", 0},
	{"vm.barrier_host_ns", "ns", "lower", 0},
	{"vm.barrier_virt_ns", "virt_ns", "lower", 0},
	{"vm.fork_host_ns", "ns", "lower", 0},
	{"vm.fork_virt_ns", "virt_ns", "lower", 0},
	{"vm.alloc_host_ns", "ns", "lower", 0},
	{"vm.snapshot_host_ns", "ns", "lower", 0},
	{"virt.latency_samples", "count", "higher", 0},

	{"pagecache.hit_ratio", "ratio", "higher", 0},
	{"pagecache.misses_per_op", "count/op", "lower", 0},
	{"pagecache.fault_stall_ns_per_op", "virt_ns/op", "lower", 0},
	{"pagecache.prefetch_useful_ratio", "ratio", "higher", 0},
	{"pagecache.prefetch_wasted_per_op", "count/op", "lower", 0},
	{"pagecache.twins_per_op", "count/op", "lower", 0},
	{"pagecache.diff_bytes_per_op", "B/op", "lower", 0},
	{"pagecache.invalidations_per_op", "count/op", "lower", 0},
	{"pagecache.partial_invals_per_op", "count/op", "lower", 0},
	{"pagecache.records_per_op", "count/op", "lower", 0},
	{"pagecache.record_bytes_per_op", "B/op", "lower", 0},
	{"pagecache.notices_per_op", "count/op", "lower", 0},
	{"pagecache.evictions_per_op", "count/op", "lower", 0},
	{"pagecache.host_share", "ratio", "lower", 0},

	{"scl.msgs_sent_per_op", "msg/op", "lower", 0},
	{"scl.bytes_received_per_op", "B/op", "lower", 0},
	{"proto.host_share", "ratio", "lower", 0},
	{"scl.host_share", "ratio", "lower", 0},
	{"simnet.host_share", "ratio", "lower", 0},

	{"memserver.fetches_per_op", "count/op", "lower", 0},
	{"memserver.parked_fetch_ratio", "ratio", "lower", 0},
	{"memserver.combined_extras_per_op", "count/op", "lower", 0},
	{"memserver.diff_batches_per_op", "count/op", "lower", 0},
	{"memserver.pulls_per_op", "count/op", "lower", 0},
	{"memserver.tier.hot_hit_ratio", "ratio", "higher", 0},
	{"memserver.tier.promotions_per_op", "count/op", "lower", 0},
	{"memserver.tier.demotions_per_op", "count/op", "lower", 0},
	{"memserver.tier.compress_ratio", "ratio", "lower", 0},
	{"memserver.tier.cow_breaks_per_op", "count/op", "lower", 0},
	{"memserver.host_share", "ratio", "lower", 0},

	{"manager.lock_wait_ratio", "ratio", "lower", 0},
	{"manager.handoff_ratio", "ratio", "higher", 0},
	{"manager.notices_sent_per_op", "count/op", "lower", 0},
	{"manager.notices_pruned_ratio", "ratio", "higher", 0},
	{"manager.barrier_rounds_per_op", "count/op", "lower", 0},
	{"manager.allocs_per_op", "count/op", "lower", 0},
	{"manager.host_share", "ratio", "lower", 0},

	{"replog.entries_per_op", "count/op", "lower", 0},
	{"replog.host_share", "ratio", "lower", 0},

	{"core.compute_ns_per_op", "virt_ns/op", "lower", 0},
	{"core.sync_ns_per_op", "virt_ns/op", "lower", 0},
	{"core.idle_ratio", "ratio", "higher", 0},
	{"core.host_share", "ratio", "lower", 0},

	{"runtime.gc_host_share", "ratio", "lower", 0},
	{"runtime.sched_host_share", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// emit fills res.Metrics with every declared metric, taking values from
// vals; a declared metric missing from vals is an error.
func emit(res *result, defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return nil
}
