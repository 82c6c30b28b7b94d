package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// layerCounters reads every exact quantity of a finished episode: the
// virtual end-to-end metrics and the per-layer counters. Thread
// counters cover the measured phase (the runtime resets them there);
// server, manager, tier, log and fabric counters cover the whole
// episode. Both are divided by the measured operations.
func layerCounters(rt *core.Runtime, out outcome) map[string]float64 {
	ops := float64(out.ops)
	per := func(x int64) float64 { return float64(x) / ops }
	tot := out.run.Totals()
	m := map[string]float64{
		"virt_makespan_ns":     float64(out.run.MaxTotalTime()),
		"virt_p50_ns":          float64(out.p50),
		"virt_p99_ns":          float64(out.p99),
		"virt.latency_samples": float64(out.samples),
		"fabric_msgs_per_op":   per(rt.Fabric().Messages()),
		"fabric_bytes_per_op":  per(rt.Fabric().Bytes()),
		// Closed-loop workloads run as fast as the modelled system
		// allows: their sustained rate is ops over the virtual makespan.
		// (KV replaces this with its bisected open-loop limit.)
		"virt_max_rate_rps": ops / (float64(out.run.MaxTotalTime()) / 1e9),

		"pagecache.hit_ratio":              stats.Rate(tot.Hits, tot.Hits+tot.Misses),
		"pagecache.misses_per_op":          per(tot.Misses),
		"pagecache.fault_stall_ns_per_op":  per(int64(tot.FaultStall)),
		"pagecache.prefetch_useful_ratio":  stats.Rate(tot.PrefetchHits+tot.PrefetchLate, tot.PrefetchIssued),
		"pagecache.prefetch_wasted_per_op": per(tot.PrefetchWasted),
		"pagecache.twins_per_op":           per(tot.Twins),
		"pagecache.diff_bytes_per_op":      per(tot.DiffBytes),
		"pagecache.invalidations_per_op":   per(tot.Invalidations),
		"pagecache.partial_invals_per_op":  per(tot.PartialInvals),
		"pagecache.records_per_op":         per(tot.RecordsLogged),
		"pagecache.record_bytes_per_op":    per(tot.RecordBytes),
		"pagecache.notices_per_op":         per(tot.NoticesReceived),
		"pagecache.evictions_per_op":       per(tot.Evictions),

		"scl.msgs_sent_per_op":      per(tot.MsgsSent),
		"scl.bytes_received_per_op": per(tot.BytesReceived),
	}
	var compute, sync int64
	for _, th := range out.run.Threads {
		compute += int64(th.ComputeTime)
		sync += int64(th.SyncTime)
	}
	m["core.compute_ns_per_op"] = per(compute)
	m["core.sync_ns_per_op"] = per(sync)
	m["core.idle_ratio"] = stats.Rate(int64(tot.IdleTime), int64(tot.IdleTime)+compute+sync)

	var fetches, parked, extras, batches, pulls int64
	for _, s := range rt.Servers() {
		st := s.Stats()
		fetches += st.Fetches.Load()
		parked += st.ParkedFetches.Load()
		extras += st.CombinedExtras.Load()
		batches += st.DiffBatches.Load()
		pulls += st.Pulls.Load()
	}
	m["memserver.fetches_per_op"] = per(fetches)
	m["memserver.parked_fetch_ratio"] = stats.Rate(parked, fetches)
	m["memserver.combined_extras_per_op"] = per(extras)
	m["memserver.diff_batches_per_op"] = per(batches)
	m["memserver.pulls_per_op"] = per(pulls)

	tier := rt.TierStats()
	m["memserver.tier.hot_hit_ratio"] = tier.HotHitRate()
	m["memserver.tier.promotions_per_op"] = per(tier.Promotions.Load())
	m["memserver.tier.demotions_per_op"] = per(tier.Demotions.Load())
	m["memserver.tier.compress_ratio"] = stats.Rate(tier.CompressedBytes.Load(), tier.ColdBytes.Load())
	m["memserver.tier.cow_breaks_per_op"] = per(tier.CoWBreaks.Load())

	mg := rt.Manager().Stats()
	m["manager.lock_wait_ratio"] = stats.Rate(mg.LockWaits.Load(), mg.LockGrants.Load())
	m["manager.handoff_ratio"] = stats.Rate(mg.Handoffs.Load(), mg.LockGrants.Load())
	m["manager.notices_sent_per_op"] = per(mg.NoticesSent.Load())
	m["manager.notices_pruned_ratio"] = stats.Rate(mg.NoticesPruned.Load(), mg.NoticesStored.Load())
	m["manager.barrier_rounds_per_op"] = per(mg.BarrierRounds.Load())
	m["manager.allocs_per_op"] = per(mg.Allocs.Load())

	m["replog.entries_per_op"] = 0
	if rl := rt.ReplLiveness(); rl != nil {
		m["replog.entries_per_op"] = per(rl.MgrReplEntries.Load())
	}
	return m
}

// The KV latency limit and the bisection that finds the highest
// offered rate meeting it. Probes are short episodes run after the
// timed ones; their virtual results, and so the bisection, are
// deterministic for a seed.
const (
	kvLatencyLimitNs = 50_000 // p99 limit, scheduled arrival to completion
	kvProbeOps       = 256    // requests per client per probe
	kvProbeMinGap    = 2_000  // ns; the bisection's per-client gap range
	kvProbeMaxGap    = kvGapNs
	kvProbeStep      = 125 // ns; bisection stops at this gap resolution
)

// kvMaxRate returns the highest aggregate offered rate (requests per
// virtual second) whose p99 stays within kvLatencyLimitNs, and the
// probes' operation totals.
func kvMaxRate(seed uint64) (float64, outcome, error) {
	var tot outcome
	probe := func(gap int64) (bool, error) {
		w := &workload{name: "kv-probe", replicas: kvReplicas,
			run: func(_ *core.Runtime, v *phaseVM, seed uint64, _ sizes) (outcome, error) {
				return kvEpisode(v, kvParams(seed, kvProbeOps, gap))
			}}
		ep, err := runEpisode(w, seed, sizes{}, nil)
		if err != nil {
			return false, err
		}
		tot.ops += ep.out.ops
		tot.failed += ep.out.failed
		if tot.check == nil {
			tot.check = ep.out.check
		}
		ok := ep.out.failed == 0 && int64(ep.out.p99) <= kvLatencyLimitNs
		fmt.Printf("kv probe gap %dns: p99 %dns -> %v\n", gap, int64(ep.out.p99), ok)
		return ok, nil
	}
	lo, hi := int64(kvProbeMinGap), int64(kvProbeMaxGap)
	if ok, err := probe(hi); err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("kv: p99 exceeds %dns even at a %dns gap", kvLatencyLimitNs, hi)
		}
		return 0, tot, err
	}
	if ok, err := probe(lo); err != nil {
		return 0, tot, err
	} else if ok {
		hi = lo
	}
	for hi-lo > kvProbeStep {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, tot, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return threads * 1e9 / float64(hi), tot, nil
}
