package main

import "sort"

// layerMetrics turns the traced run's spans and the counter deltas of
// its measured phases into the per-layer metrics. Every ratio is
// reported next to its base.
func (b *bench) layerMetrics(total counterDelta, phases []*phaseStats) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	bd := b.rec.attribute()
	per := func(part string) float64 { return ratio(bd.parts[part], float64(bd.n)) }

	// Request wall time, split into layer self times that add up to it.
	set("bench.request_wall_ms", ratio(bd.wall, float64(bd.n)), "ms")
	set("bench.attributed_requests", float64(bd.n), "count")
	set("bench.unlinked_requests", float64(bd.unlinked), "count")
	sum := 0.0
	for _, p := range layerParts {
		set(p, per(p), "ms")
		sum += per(p)
	}
	logf("traced request wall %.4f ms = Σ layer self times %.4f ms over %d requests (%d answered without a batch)",
		ratio(bd.wall, float64(bd.n)), sum, bd.n, bd.unlinked)
	for _, p := range layerParts {
		logf("   %-24s %9.4f ms  %5.1f%%", p, per(p), 100*ratio(per(p), ratio(bd.wall, float64(bd.n))))
	}

	// serve
	set("serve.wait_p50_ms", finite(percentile(bd.waits, 50)), "ms")
	set("serve.wait_p99_ms", finite(percentile(bd.waits, 99)), "ms")
	set("serve.batches", total["serve.batches"], "count")
	set("serve.batch_size_mean", ratio(total["serve.batched_queries"], total["serve.batches"]), "count")
	set("serve.cache_lookups", total["serve.requests"], "count")
	set("serve.cache_hits", total["serve.cache_hits"], "count")
	set("serve.cache_hit_rate", ratio(total["serve.cache_hits"], total["serve.requests"]), "fraction")
	set("serve.cache_flushes", total["serve.cache_flushes"], "count")
	set("serve.write_batches", total["serve.write_batches"], "count")
	set("serve.write_batch_size_mean", ratio(total["serve.write_batched"], total["serve.write_batches"]), "count")

	// mutable: open-loop dispatches and writes as the wrappers timed
	// them.
	var batchMs, writeMs []float64
	busy := 0.0
	for _, s := range b.rec.openBatches() {
		d := float64(s.End-s.Start) / 1e6
		batchMs = append(batchMs, d)
		busy += d / 1e3
	}
	for _, s := range b.rec.writes {
		writeMs = append(writeMs, float64(s.End-s.Start)/1e6)
	}
	shards := float64(max(1, b.spec.shards))
	set("mutable.batch_p50_ms", finite(percentile(batchMs, 50)), "ms")
	set("mutable.batch_p99_ms", finite(percentile(batchMs, 99)), "ms")
	set("mutable.busy_frac", ratio(busy, b.rec.openSeconds()*shards), "fraction")
	set("mutable.write_p50_ms", finite(percentile(writeMs, 50)), "ms")
	set("mutable.write_p99_ms", finite(percentile(writeMs, 99)), "ms")
	set("mutable.compactions", total["mutable.compactions"], "count")
	set("mutable.compact_max_s", total["mutable.compact_max_s"], "s")

	// ivfpq / pq kernels (obs.Kernel deltas), per dispatched query.
	queries := total["serve.batched_queries"]
	set("kernel.queries", queries, "count")
	set("kernel.codes_per_query", ratio(total["kernel.scan_codes"], queries), "count")
	set("kernel.lut_entries_per_query", ratio(total["kernel.lut_entries"], queries), "count")
	set("kernel.scan_s", total["kernel.scan_s"], "s")
	set("kernel.scan_gbps", ratio(total["kernel.scan_bytes"], total["kernel.scan_s"])/1e9, "GB/s")
	// The engine folds LUT construction into its scan wall time and
	// records 0 for it: on the engine path the LUT time is not
	// separated, reported as -1 rather than as a measured 0.
	lut := total["kernel.lut_s"]
	if !b.spec.tiered {
		lut = -1
		logf("kernel.lut_s: not separated on the engine path")
	}
	set("kernel.lut_s", lut, "s")

	// tier (obs.Tier deltas)
	set("tier.accesses", total["tier.accesses"], "count")
	set("tier.hot_hit_rate", ratio(total["tier.hot_hits"], total["tier.accesses"]), "fraction")
	set("tier.cold_bytes_per_query", ratio(total["tier.cold_bytes"], queries), "B")
	set("tier.cold_read_s", total["tier.cold_s"], "s")
	set("tier.prefetches_issued", total["tier.prefetches_issued"], "count")
	set("tier.prefetch_hit_rate", ratio(total["tier.prefetch_hits"], total["tier.prefetches_issued"]), "fraction")

	// filter planner
	set("filter.filtered_queries", total["filter.filtered"], "count")
	set("filter.pre_frac", ratio(total["filter.pre"], total["filter.filtered"]), "fraction")
	set("filter.short_answers", float64(b.r.chk.short.Load()), "count")

	// cluster router
	set("cluster.shard_ms", mean(bd.shardMs), "ms")
	set("cluster.shard_requests", total["cluster.shard_requests"], "count")
	set("cluster.hedge_frac", ratio(total["cluster.hedges"], total["cluster.shard_requests"]), "fraction")

	// generator, tail latency and tracing. The windowed p99s leave out
	// the stalls of a minority of windows; the plain p99s keep them.
	for _, ps := range phases {
		switch ps.name {
		case "open":
			set("bench.late_open_p99_ms", percentile(ps.lateMs, 99), "ms")
			set("bench.search_p99_ms", finite(tailP99(ps.searchMs)), "ms")
			set("bench.search_p99_all_ms", finite(percentile(ps.searchMs, 99)), "ms")
		case "writes":
			set("bench.late_writes_p99_ms", percentile(ps.lateMs, 99), "ms")
			set("bench.write_p99_ms", finite(tailP99(ps.writeMs)), "ms")
			set("bench.write_p99_all_ms", finite(percentile(ps.writeMs, 99)), "ms")
		}
	}
	set("bench.own_searches", float64(b.r.ownN.Load()), "count")
	set("bench.own_ranked_out_frac", ratio(float64(b.r.ownRanked.Load()), float64(b.r.ownN.Load())), "fraction")
	untraced := ratio(float64(b.capOK[0]), b.capSecs[0])
	traced := ratio(float64(b.capOK[1]), b.capSecs[1])
	logf("closed loop: untraced slices %.1f/s, traced slices %.1f/s", untraced, traced)
	set("bench.trace_overhead_frac", 1-ratio(traced, untraced), "fraction")
	return m
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
