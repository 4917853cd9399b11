package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kard/internal/obs"
)

// counters snapshots the process-wide counters the layers publish (the
// obs.Std registry, which every engine run flushes at teardown), the Go
// runtime's GC and allocation metrics, and the process CPU time. The
// traced phase's per-layer counts are the difference of two snapshots.
type counters struct {
	wall time.Time
	cpu  time.Duration

	accessUnits, batchDrains, epochs, epochAccesses, epochVetoes uint64
	tlbHits, tlbMisses, mmaps, protects                          uint64
	radixCount                                                   uint64
	radixSum                                                     float64
	uniquePages, allocFallbacks, wrpkru, pkeyMprotect            uint64
	faults, raceFaults, keyRecycles                              uint64
	rpcRetries, dedupHits                                        uint64
	svcFsync, clusterFsync                                       []uint64

	gcCPU     float64
	gcCycles  uint64
	heapAlloc uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func snapshot() counters {
	m := obs.Std
	c := counters{
		wall:           time.Now(),
		cpu:            processCPU(),
		accessUnits:    m.SimAccessUnits.Value(),
		batchDrains:    m.SimBatchDrains.Value(),
		epochs:         m.SimEpochs.Value(),
		epochAccesses:  m.SimEpochAccesses.Value(),
		epochVetoes:    m.SimEpochVetoes.Value(),
		tlbHits:        m.MemTLBHits.Value(),
		tlbMisses:      m.MemTLBMisses.Value(),
		mmaps:          m.MemMmapCalls.Value(),
		protects:       m.MemProtectCalls.Value(),
		radixCount:     m.MemRadixDepth.Count(),
		radixSum:       m.MemRadixDepth.Sum(),
		uniquePages:    m.AllocUniquePages.Value(),
		allocFallbacks: m.AllocFallbacks.Value(),
		wrpkru:         m.MpkWRPKRU.Value(),
		pkeyMprotect:   m.MpkPkeyMprotect.Value(),
		raceFaults:     m.CoreFaultRace.Count(),
		keyRecycles:    m.CoreKeyRecycles.Value(),
		rpcRetries: m.ClusterRetryJoin.Value() + m.ClusterRetryLease.Value() +
			m.ClusterRetryComplete.Value() + m.ClusterRetryHeartbeat.Value(),
		dedupHits:    m.ClusterDedupHits.Value(),
		svcFsync:     m.SvcJournalFsync.BucketCounts(),
		clusterFsync: m.ClusterJournalFsync.BucketCounts(),
	}
	// Every fault the handler takes is observed on exactly one stage
	// histogram.
	for _, h := range []*obs.Histogram{m.CoreFaultIdentify, m.CoreFaultMigrate,
		m.CoreFaultRace, m.CoreFaultSoft, m.CoreFaultInterleave} {
		c.faults += h.Count()
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		c.heapAlloc = s[2].Value.Uint64()
	}
	return c
}

// processCPU returns the user plus system CPU time the process used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// histQuantile estimates the q-quantile of a fixed-bucket histogram
// delta by linear interpolation inside the bucket that holds it (the
// Prometheus histogram_quantile rule); the +Inf bucket reports its
// lower bound.
func histQuantile(upper []float64, before, after []uint64, q float64) float64 {
	if len(after) != len(upper)+1 || len(before) != len(after) {
		return 0
	}
	counts := make([]uint64, len(after))
	var total uint64
	for i := range after {
		counts[i] = after[i] - before[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		if cum+float64(n) >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			if i == len(upper) {
				return lo
			}
			return lo + (upper[i]-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return upper[len(upper)-1]
}

// rssSampler samples the process's resident set every rssEvery, so a
// run can take the peak of each unit of work: one unit's peak depends on
// which cells happened to overlap at a GC cycle's high point, and the
// median over a run's units is steadier than the process's single
// high-water mark.
type rssSampler struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = rssMB()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := rssMB()
				s.mu.Lock()
				if v > s.peak {
					s.peak = v
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// take returns the peak since the previous take (or the start) and
// starts the next interval from the current resident set.
func (s *rssSampler) take() float64 {
	now := rssMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	if now > peak {
		peak = now
	}
	s.peak = now
	return peak
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// rssMB returns the current resident set in MB (0 if unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
