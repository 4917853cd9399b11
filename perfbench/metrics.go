package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark prints. BENCHMARK.json at the
// root of the repository lists the same names, units and directions;
// TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them (BENCHMARK.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "cells/s", "higher"},
	{"sim_mops_per_s", "Mops/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"overhead_err_pp", "pp", "lower"},
}

// selfLayers are the modules whose host self time the traced run's CPU
// profile is attributed to, in the order BENCHMARK.json lists them. A
// sample goes to the innermost frame of one of these packages
// (kard/internal/<layer>; journal is kard/internal/service/journal).
var selfLayers = []string{"sim", "mem", "alloc", "mpk", "core", "hb", "lockset",
	"workload", "harness", "service", "journal", "cluster", "trace", "obs"}

// perLayer are the traced run's metrics. Counts cover the traced
// phase's fixed work (one campaign, one job schedule, or a fixed number
// of cluster rounds), so they compare across commits; a metric whose
// layer a workload does not drive reads 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range selfLayers {
		ms = append(ms, metricDef{l + ".self_s", "s", "lower"})
	}
	ms = append(ms,
		metricDef{"runtime.sched_s", "s", "lower"},
		metricDef{"other.self_s", "s", "lower"},
		metricDef{"sim.handoff_s", "s", "lower"},

		metricDef{"runtime.gc_cpu_s", "s", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.alloc_mb_per_cell", "MB/cell", "lower"},

		metricDef{"sim.ops", "count", "higher"},
		metricDef{"sim.access_units", "count", "higher"},
		metricDef{"sim.cs_entries", "count", "higher"},
		metricDef{"sim.batch_drains", "count", "lower"},
		metricDef{"sim.epochs", "count", "higher"},
		metricDef{"sim.epoch_accesses", "count", "higher"},
		metricDef{"sim.epoch_veto_ratio", "ratio", "lower"},
		metricDef{"sim.host_ns_per_op", "ns/op", "lower"},

		metricDef{"mem.tlb_misses", "count", "lower"},
		metricDef{"mem.tlb_hit_ratio", "ratio", "higher"},
		metricDef{"mem.mmap_calls", "count", "lower"},
		metricDef{"mem.protect_calls", "count", "lower"},
		metricDef{"mem.radix_walk_depth_mean", "levels", "lower"},

		metricDef{"alloc.unique_pages", "count", "lower"},
		metricDef{"alloc.fallbacks", "count", "lower"},

		metricDef{"mpk.wrpkru", "count", "lower"},
		metricDef{"mpk.pkey_mprotect_calls", "count", "lower"},

		metricDef{"core.faults", "count", "lower"},
		metricDef{"core.race_faults", "count", "lower"},
		metricDef{"core.key_recycles", "count", "lower"},
		metricDef{"core.reported_per_race_fault", "ratio", "higher"},

		metricDef{"harness.cache_hit_ratio", "ratio", "higher"},
		metricDef{"harness.retries", "count", "lower"},

		metricDef{"journal.syncs", "count", "lower"},
		metricDef{"journal.bytes_per_cell", "B/cell", "lower"},
		metricDef{"journal.fsync_p50_ms", "ms", "lower"},

		metricDef{"cluster.rpc_retries", "count", "lower"},
		metricDef{"cluster.dedup_hits", "count", "lower"},

		metricDef{"sim.exec_gcycles", "Gcycles", "lower"},
		metricDef{"mem.dtlb_miss_rate", "ratio", "lower"},

		metricDef{"harness.cell_p50_ms", "ms", "lower"},
		metricDef{"harness.cell_max_ms", "ms", "lower"},
		metricDef{"service.submit_p50_ms", "ms", "lower"},
		metricDef{"service.submit_p90_ms", "ms", "lower"},
		metricDef{"service.queued_max", "count", "lower"},
		metricDef{"cluster.rpc.lease_p50_ms", "ms", "lower"},
		metricDef{"cluster.rpc.complete_p50_ms", "ms", "lower"},
		metricDef{"cluster.rpc.heartbeat_p50_ms", "ms", "lower"},
		metricDef{"cluster.rpc_count", "count", "lower"},
		metricDef{"bench.gen_lag_p90_ms", "ms", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
	return ms
}()

// reading is one measured value with the number of samples behind it.
type reading struct {
	Value   float64
	Samples int
	Note    string
}

// report collects one run's readings and prints them.
type report struct {
	defs      []metricDef
	readings  map[string]reading
	attempted int
	failed    int
	problems  []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, readings: map[string]reading{}}
}

func (r *report) set(name string, v float64, samples int, note string) {
	r.readings[name] = reading{Value: v, Samples: samples, Note: note}
}

// fail records a correctness problem; the run then prints
// "correct": false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints a table of every metric (value, unit, sample count) and
// then, as the last line, the JSON result. A metric the run did not set
// reads 0 in both.
func (r *report) write(w io.Writer) error {
	res := jsonResult{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
	for _, d := range r.defs {
		rd := r.readings[d.Name]
		v := rd.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		note := ""
		if rd.Note != "" {
			note = "  " + rd.Note
		}
		fmt.Fprintf(w, "%-30s %14.6g %-8s n=%-6d %s-is-better%s\n", d.Name, v, d.Unit, rd.Samples, d.Better, note)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailPercentile applies the reporting rule for timings: the highest
// whole percentile that still has at least ten samples beyond it. It
// returns that percentile (0 when there are fewer than eleven samples,
// so no tail percentile is trustworthy) and its value.
func tailPercentile(xs []float64) (pct int, value float64) {
	n := len(xs)
	if n < 11 {
		return 0, 0
	}
	pct = int(math.Floor(100 * (1 - 10/float64(n))))
	if pct > 99 {
		pct = 99
	}
	return pct, quantile(xs, float64(pct)/100)
}

// timing reports a latency sample set under the rule above: the
// requested percentile's value, with the sample count, and a note that
// names the highest percentile the sample count supports.
func (r *report) timing(name string, xs []float64, q float64) {
	pct, v := tailPercentile(xs)
	note := fmt.Sprintf("tail: p%d=%.4g", pct, v)
	if float64(pct) < 100*q {
		note += fmt.Sprintf(" (p%.0f has fewer than 10 samples beyond it)", 100*q)
	}
	r.set(name, quantile(xs, q), len(xs), note)
}
