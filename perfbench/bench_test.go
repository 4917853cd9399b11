package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		wantPct int
		wantVal float64
	}{
		{n: 10, wantPct: 0},
		{n: 11, wantPct: 9, wantVal: 1},
		{n: 50, wantPct: 80, wantVal: 40},
		{n: 100, wantPct: 90, wantVal: 90},
		{n: 114, wantPct: 91, wantVal: 104},
		{n: 1000, wantPct: 99, wantVal: 990},
		{n: 5000, wantPct: 99, wantVal: 4950},
	} {
		pct, v := tailPercentile(seq(tc.n))
		if pct != tc.wantPct || v != tc.wantVal {
			t.Errorf("n=%d: got p%d=%g, want p%d=%g", tc.n, pct, v, tc.wantPct, tc.wantVal)
		}
		if pct > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%d leaves %d samples beyond it", tc.n, pct, beyond)
			}
		}
	}

	rep := newReport(endToEnd)
	rep.timing("job_p90_ms", seq(100), 0.9)
	if rd := rep.readings["job_p90_ms"]; rd.Value != 90 || rd.Samples != 100 || !strings.Contains(rd.Note, "p90=90") {
		t.Errorf("timing with 100 samples: %+v", rd)
	}
	rep.timing("job_p90_ms", seq(50), 0.9)
	if rd := rep.readings["job_p90_ms"]; rd.Samples != 50 || !strings.Contains(rd.Note, "fewer than 10 samples beyond") {
		t.Errorf("timing with 50 samples must say p90 is under-sampled: %+v", rd)
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}
func (b pb) uint(num int, x uint64) pb { return b.varint(uint64(num) << 3).varint(x) }
func (b pb) bytes(num int, m []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(m))), m...)
}
func (b pb) packed(num int, xs ...uint64) pb {
	var m pb
	for _, x := range xs {
		m = m.varint(x)
	}
	return b.bytes(num, m)
}

// synthProfile builds a gzipped CPU profile: funcs[i] gets function and
// location ID i+1; inlined lists locations holding a second, outer
// function (inlined[loc] = outer function index); each sample is a
// leaf-first list of function indexes taking 10ms.
func synthProfile(funcs []string, inlined map[int]int, samples [][]int) []byte {
	var p pb
	strs := append([]string{""}, funcs...)
	for _, s := range []string{"samples", "count", "cpu", "nanoseconds"} {
		strs = append(strs, s)
	}
	p = p.bytes(1, pb{}.uint(1, uint64(len(funcs)+1)).uint(2, uint64(len(funcs)+2)))
	p = p.bytes(1, pb{}.uint(1, uint64(len(funcs)+3)).uint(2, uint64(len(funcs)+4)))
	for _, s := range samples {
		locs := make([]uint64, len(s))
		for i, f := range s {
			locs[i] = uint64(f + 1)
		}
		p = p.bytes(2, pb{}.packed(1, locs...).packed(2, 1, 10_000_000))
	}
	for i := range funcs {
		loc := pb{}.uint(1, uint64(i+1)).bytes(4, pb{}.uint(1, uint64(i+1)).uint(2, 10))
		if outer, ok := inlined[i]; ok {
			loc = loc.bytes(4, pb{}.uint(1, uint64(outer+1)))
		}
		p = p.bytes(4, loc)
		p = p.bytes(5, pb{}.uint(1, uint64(i+1)).uint(2, uint64(i+1)))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	p = p.uint(12, 10_000_000)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	zw.Close()
	return buf.Bytes()
}

func TestAttributeInnermostLayerFrame(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                              // 0
		"kard/internal/mem.(*radixTable).insert",        // 1
		"kard/internal/sim.(*Engine).Run",               // 2
		"kard/internal/cycles.Max",                      // 3: not a layer
		"runtime.chanrecv1",                             // 4
		"kard/internal/sim.(*Thread).submit",            // 5
		"runtime.findRunnable",                          // 6
		"runtime.schedule",                              // 7
		"runtime.gcBgMarkWorker",                        // 8
		"kard/internal/service/journal.(*Journal).Sync", // 9
		"kard/internal/service.(*Server).Submit",        // 10
		"kard/internal/hb.(*Detector).OnAccess",         // 11: inlined into 2
		"kard/perfbench.run",                            // 12: the benchmark itself
	}
	samples := [][]int{
		{0, 1, 2}, // allocation under mem → mem
		{3, 2},    // cycles (no layer) under sim → sim
		{4, 5, 2}, // channel receive under sim → sim, a hand-off
		{6, 7},    // scheduler → runtime.sched
		{8},       // GC worker → other
		{9, 10},   // journal under service → journal
		{11},      // location holding hb inlined into sim → hb
		{0, 12},   // benchmark code is no layer → other
		{0, 1, 2}, // mem again
	}
	prof, err := parseProfile(synthProfile(funcs, map[int]int{11: 2}, samples))
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(prof)
	want := map[string]int64{"mem": 2, "sim": 2, "runtime.sched": 1, "other": 2, "journal": 1, "hb": 1}
	var sum int64
	for layer, n := range a.selfCount {
		if n != want[layer] {
			t.Errorf("%s: %d samples, want %d", layer, n, want[layer])
		}
		sum += n
	}
	for layer, n := range want {
		if a.selfCount[layer] != n {
			t.Errorf("%s: %d samples, want %d", layer, a.selfCount[layer], n)
		}
	}
	if sum != a.totalCount || a.totalCount != int64(len(samples)) || a.totalNs != int64(len(samples))*10_000_000 {
		t.Errorf("attribution sums to %d of %d samples (%d ns)", sum, a.totalCount, a.totalNs)
	}
	if a.handoffNs != 10_000_000 {
		t.Errorf("handoff %d ns, want one sample", a.handoffNs)
	}
}

func TestOpenLoopMeasuresLatencyFromDueTime(t *testing.T) {
	const interval = 20 * time.Millisecond
	stall := 90 * time.Millisecond
	ol := openLoop{
		interval: interval,
		poll:     time.Millisecond,
		submit: func(i int) error {
			if i == 0 {
				time.Sleep(stall) // the generator stalls on the first send
			}
			if i == 3 {
				return errors.New("rejected")
			}
			return nil
		},
		settled: func(i int) (bool, bool) { return true, i != 4 },
	}
	start := time.Now()
	res, err := ol.run(testCtx(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(res.latency) != 6 || len(res.lag) != 6 {
		t.Fatalf("got %d latencies, %d lags", len(res.latency), len(res.lag))
	}
	for i, lat := range res.latency {
		due := time.Duration(i) * interval
		// Jobs 1 and 2 fell due during the stall: their latency counts
		// the wait from their due time, which a send-time clock hides.
		if i == 1 || i == 2 {
			if min := ms(stall - due); lat < min || res.lag[i] < min {
				t.Errorf("job %d: latency %.1f ms, lag %.1f ms; the stall left it at least %.1f ms late", i, lat, res.lag[i], min)
			}
		}
		if i == 3 || i == 4 {
			if lat != failedLatency {
				t.Errorf("job %d (rejected or failed): latency %g, want the failed marker", i, lat)
			}
			continue
		}
		if lat > ms(elapsed) {
			t.Errorf("job %d: latency %.1f ms exceeds the run's %.1f ms", i, lat, ms(elapsed))
		}
	}
	if len(res.failed) != 2 || res.failed[0] != 3 || res.failed[1] != 4 {
		t.Errorf("failed = %v, want [3 4]", res.failed)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	same := func(kind string, code, file []metricDef) {
		if len(code) != len(file) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(code), len(file))
		}
		listed := map[string]metricDef{}
		for _, m := range file {
			listed[m.Name] = m
		}
		for _, m := range code {
			if got, ok := listed[m.Name]; !ok {
				t.Errorf("%s: printed metric %q is not in BENCHMARK.json", kind, m.Name)
			} else if got != m {
				t.Errorf("%s: %q printed as %+v, BENCHMARK.json says %+v", kind, m.Name, m, got)
			}
		}
	}
	same("end_to_end", endToEnd, e2e)
	same("per_layer", perLayer, layer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if len(recorded[name]) == 0 {
			t.Errorf("reference.json records no verdict hash for workload %q", name)
		}
	}
	for name := range recorded {
		if workloads[name] == nil {
			t.Errorf("reference.json records workload %q, which the benchmark does not run", name)
		}
	}

	// The printed JSON carries exactly the listed names, each with its
	// unit.
	var out bytes.Buffer
	if err := newReport(endToEnd).write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(e2e) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(e2e))
	}
	for _, m := range e2e {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("printed %q as %+v", m.Name, got)
		}
	}
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}
