package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// counterDelta is a set of named counters: a snapshot, or the change
// between two.
type counterDelta map[string]float64

// snapshot reads every public stats surface of the deployment into flat
// named counters: serve.Server.Stats and WriteBatcher.Stats per shard,
// mutable.UpdatableIndex.Stats and FilterStats, the process-global
// obs.Kernel and obs.Tier blocks, and cluster.Router.Stats.
func (d *deployment) snapshot() counterDelta {
	c := counterDelta{}
	for _, s := range d.shards {
		st := s.srv.Stats()
		c["serve.requests"] += float64(st.Requests)
		c["serve.completed"] += float64(st.Completed)
		c["serve.cache_hits"] += float64(st.CacheHits)
		c["serve.shed"] += float64(st.Shed)
		c["serve.expired"] += float64(st.Expired)
		c["serve.backend_errors"] += float64(st.BackendErrs)
		c["serve.batches"] += float64(st.Batches)
		c["serve.batched_queries"] += float64(st.BatchedQ)
		c["serve.coalesced"] += float64(st.Coalesced)
		c["serve.cache_flushes"] += float64(st.CacheFlushes)
		ws := s.writer.Stats()
		c["serve.write_requests"] += float64(ws.Requests)
		c["serve.write_batches"] += float64(ws.Batches)
		c["serve.write_batched"] += float64(ws.BatchedW)
		c["serve.write_shed"] += float64(ws.Shed)
		c["serve.write_expired"] += float64(ws.Expired)
		ix := s.u.Stats()
		c["mutable.epochs"] += float64(ix.Epoch)
		c["mutable.compactions"] += float64(ix.Compactions)
		c["mutable.compact_errors"] += float64(ix.CompactErrors)
		c["mutable.compact_s"] += ix.SumCompactSecs
		c["mutable.compact_max_s"] = max(c["mutable.compact_max_s"], ix.MaxCompactSecs)
		if fs := s.u.FilterStats(); fs != nil {
			c["filter.filtered"] += float64(fs.Filtered)
			c["filter.pre"] += float64(fs.PreDecisions)
			c["filter.post"] += float64(fs.PostDecisions)
		}
	}
	k := obs.Kernel.Snapshot()
	c["kernel.scan_codes"] = float64(k.ScanCodes)
	c["kernel.scan_bytes"] = float64(k.ScanBytes)
	c["kernel.scan_s"] = k.ScanSeconds
	c["kernel.lut_entries"] = float64(k.LUTEntries)
	c["kernel.lut_s"] = k.LUTSeconds
	t := obs.Tier.Snapshot()
	c["tier.hot_hits"] = float64(t.HotHits)
	c["tier.accesses"] = float64(t.HotHits + t.HotMisses)
	c["tier.cold_bytes"] = float64(t.ColdBytes)
	c["tier.cold_s"] = t.ColdSeconds
	c["tier.prefetches_issued"] = float64(t.PrefetchesIssued)
	c["tier.prefetch_hits"] = float64(t.PrefetchHits)
	if d.router != nil {
		rs := d.router.Stats()
		c["cluster.searches"] = float64(rs.Searches)
		c["cluster.degraded"] = float64(rs.Degraded)
		for _, s := range rs.Shards {
			c["cluster.shard_requests"] += float64(s.Requests)
			c["cluster.hedges"] += float64(s.Hedges)
			c["cluster.shard_errors"] += float64(s.Errors)
		}
	}
	return c
}

// sub returns c - prev; the running maximum is kept as is.
func (c counterDelta) sub(prev counterDelta) counterDelta {
	out := counterDelta{}
	for k, v := range c {
		out[k] = v - prev[k]
	}
	out["mutable.compact_max_s"] = c["mutable.compact_max_s"]
	return out
}

func (c counterDelta) add(o counterDelta) {
	for k, v := range o {
		if k == "mutable.compact_max_s" {
			c[k] = max(c[k], v)
			continue
		}
		c[k] += v
	}
}

// ratio is num/den, 0 when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (c counterDelta) String() string {
	keys := make([]string, 0, len(c))
	for k, v := range c {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.6g", k, c[k])
	}
	return b.String()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
