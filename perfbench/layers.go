package main

import (
	"fmt"

	"kard/internal/obs"
)

// layerMetrics reports the traced phase's per-layer metrics: host self
// time by layer from the CPU profile, the runtime's GC and allocation
// figures, and the layers' own counters.
func (b *bench) layerMetrics(rep *report, p *phase, prof []byte, c0, c1 counters) error {
	pr, err := parseProfile(prof)
	if err != nil {
		return err
	}
	a := attribute(pr)
	var sumNs, sumCount int64
	put := func(metric, layer string) {
		ns, n := a.selfNs[layer], a.selfCount[layer]
		sumNs += ns
		sumCount += n
		rep.set(metric, float64(ns)/1e9, int(n), pct(ns, a.totalNs))
	}
	for _, l := range selfLayers {
		put(l+".self_s", l)
	}
	put("runtime.sched_s", "runtime.sched")
	put("other.self_s", "other")
	if sumNs != a.totalNs || sumCount != a.totalCount {
		rep.fail("layer self times sum to %d samples (%d ns), the profile holds %d (%d ns)",
			sumCount, sumNs, a.totalCount, a.totalNs)
	}
	rep.set("sim.handoff_s", float64(a.handoffNs)/1e9, 0, pct(a.handoffNs, a.totalNs))
	fmt.Fprintf(b.log, "profile: %d samples, %.2f s CPU over %.2f s wall\n",
		a.totalCount, float64(a.totalNs)/1e9, c1.wall.Sub(c0.wall).Seconds())

	cells := p.cells
	rep.set("runtime.gc_cpu_s", c1.gcCPU-c0.gcCPU, 0, "")
	rep.set("runtime.gc_cycles", float64(c1.gcCycles-c0.gcCycles), 0, "")
	rep.set("runtime.alloc_mb_per_cell", ratio(float64(c1.heapAlloc-c0.heapAlloc)/1e6, float64(cells)), cells, "")

	rep.set("sim.ops", float64(p.simOps), cells, "simulated, cache hits excluded")
	rep.set("sim.access_units", float64(c1.accessUnits-c0.accessUnits), 0, "")
	rep.set("sim.cs_entries", float64(p.csEntries), cells, "")
	rep.set("sim.batch_drains", float64(c1.batchDrains-c0.batchDrains), 0, "")
	epochs, vetoes := c1.epochs-c0.epochs, c1.epochVetoes-c0.epochVetoes
	rep.set("sim.epochs", float64(epochs), 0, "")
	rep.set("sim.epoch_accesses", float64(c1.epochAccesses-c0.epochAccesses), 0, "")
	rep.set("sim.epoch_veto_ratio", ratio(float64(vetoes), float64(epochs+vetoes)), int(epochs+vetoes), "vetoes / epoch attempts")
	rep.set("sim.host_ns_per_op", ratio(float64(c1.cpu-c0.cpu), float64(p.simOps)), 0, "process CPU per simulated op")

	hits, misses := c1.tlbHits-c0.tlbHits, c1.tlbMisses-c0.tlbMisses
	rep.set("mem.tlb_misses", float64(misses), 0, "")
	rep.set("mem.tlb_hit_ratio", ratio(float64(hits), float64(hits+misses)), 0, "")
	rep.set("mem.mmap_calls", float64(c1.mmaps-c0.mmaps), 0, "")
	rep.set("mem.protect_calls", float64(c1.protects-c0.protects), 0, "")
	walks := c1.radixCount - c0.radixCount
	rep.set("mem.radix_walk_depth_mean", ratio(c1.radixSum-c0.radixSum, float64(walks)), int(walks), "")

	rep.set("alloc.unique_pages", float64(c1.uniquePages-c0.uniquePages), 0, "")
	rep.set("alloc.fallbacks", float64(c1.allocFallbacks-c0.allocFallbacks), 0, "")
	rep.set("mpk.wrpkru", float64(c1.wrpkru-c0.wrpkru), 0, "")
	rep.set("mpk.pkey_mprotect_calls", float64(c1.pkeyMprotect-c0.pkeyMprotect), 0, "")

	raceFaults := c1.raceFaults - c0.raceFaults
	rep.set("core.faults", float64(c1.faults-c0.faults), 0, "")
	rep.set("core.race_faults", float64(raceFaults), 0, "")
	rep.set("core.key_recycles", float64(c1.keyRecycles-c0.keyRecycles), 0, "")
	rep.set("core.reported_per_race_fault", ratio(float64(p.kardRaces), float64(raceFaults)), int(raceFaults), "Kard races reported / race-analysis faults")

	rep.set("harness.cache_hit_ratio", ratio(float64(p.cacheHits), float64(p.cacheHits+p.cacheMiss)), int(p.cacheHits+p.cacheMiss), "")
	rep.set("harness.retries", float64(p.retries), 0, "")

	rep.set("journal.syncs", float64(p.jSyncs), 0, "")
	rep.set("journal.bytes_per_cell", ratio(float64(p.jBytes), float64(cells)), cells, "")
	fsyncBefore := addCounts(c0.svcFsync, c0.clusterFsync)
	fsyncAfter := addCounts(c1.svcFsync, c1.clusterFsync)
	rep.set("journal.fsync_p50_ms", 1000*histQuantile(obs.FsyncBuckets, fsyncBefore, fsyncAfter, 0.5), 0, "interpolated in fsync histogram buckets")

	rep.set("cluster.rpc_retries", float64(c1.rpcRetries-c0.rpcRetries), 0, "")
	rep.set("cluster.dedup_hits", float64(c1.dedupHits-c0.dedupHits), 0, "")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(part, total int64) string {
	if total == 0 {
		return ""
	}
	return fmt.Sprintf("%.1f%% of samples", 100*float64(part)/float64(total))
}

func addCounts(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
