package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"kard/internal/trace"
)

// spans records the benchmark's own spans around its calls into the
// program's layers on an internal/trace Tracer, held in memory and
// exported as Chrome trace JSON when the run ends. A nil *spans (the
// untraced phases) records nothing.
type spans struct {
	tr *trace.Tracer

	mu    sync.Mutex
	lanes []int64 // end timestamp of the last span on each cell lane
}

const benchPid = 100

func newSpans(seed int64, workload string) *spans {
	tr := trace.NewTracer(seed, "perfbench/"+workload, 0)
	tr.ProcessName(benchPid, "perfbench "+workload)
	return &spans{tr: tr}
}

// track returns the (created on first use) track for one sequential
// caller: spans on one track must nest, so concurrent callers each get
// their own tid.
func (s *spans) track(tid int, name string) *trace.Track {
	if s == nil {
		return nil
	}
	return s.tr.Track(benchPid, tid, name, 0)
}

// span records [start, start+d) on k under name. Timestamps are
// microseconds on the tracer's clock.
func (s *spans) span(k *trace.Track, name string, start time.Time, d time.Duration) {
	if s == nil || k == nil {
		return
	}
	ts := s.tr.Now() - time.Since(start).Microseconds()
	k.Begin(name, "bench", ts)
	k.End(name, "bench", ts+d.Microseconds())
}

// cell records a harness cell that ended now after running for d. Cells
// of one matrix overlap, so each goes on the first lane whose previous
// span has ended.
func (s *spans) cell(d time.Duration) {
	if s == nil {
		return
	}
	end := s.tr.Now()
	start := end - d.Microseconds()
	s.mu.Lock()
	lane := -1
	for i, e := range s.lanes {
		if e <= start {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(s.lanes)
		s.lanes = append(s.lanes, 0)
	}
	s.lanes[lane] = end
	s.mu.Unlock()
	k := s.track(1000+lane, fmt.Sprintf("cells lane %d", lane))
	k.Begin("harness.cell", "bench", start)
	k.End("harness.cell", "bench", end)
}

// export writes the Chrome JSON and returns every completed span's
// duration in milliseconds, by span name.
func (s *spans) export() ([]byte, map[string][]float64, error) {
	var buf bytes.Buffer
	if err := s.tr.WriteChrome(&buf); err != nil {
		return nil, nil, err
	}
	durs, err := spanDurations(buf.Bytes())
	return buf.Bytes(), durs, err
}

// spanDurations pairs the begin and end events of a Chrome trace, per
// track, and returns the span durations in milliseconds by name.
func spanDurations(chrome []byte) (map[string][]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	type open struct {
		name string
		ts   int64
	}
	stacks := map[[2]int][]open{}
	out := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		key := [2]int{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			stacks[key] = append(stacks[key], open{ev.Name, ev.Ts})
		case "E":
			st := stacks[key]
			if len(st) == 0 || st[len(st)-1].name != ev.Name {
				return nil, fmt.Errorf("trace export: unmatched end of %q on %v", ev.Name, key)
			}
			b := st[len(st)-1]
			stacks[key] = st[:len(st)-1]
			out[ev.Name] = append(out[ev.Name], float64(ev.Ts-b.ts)/1000)
		}
	}
	for key, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("trace export: %d unclosed spans on %v", len(st), key)
		}
	}
	return out, nil
}

// rpcTransport times each cluster RPC a worker sends. It records the end
// of every successful complete RPC (a cell's result reaching the
// coordinator) for the end-to-end latency, and, when traced, one span
// per RPC named after its path (cluster.rpc.lease, ...).
type rpcTransport struct {
	base   http.RoundTripper
	worker int
	sp     *spans

	mu        sync.Mutex
	completes []time.Time
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	rpc := strings.TrimPrefix(req.URL.Path, "/cluster/")
	if err == nil && resp.StatusCode == http.StatusOK && rpc == "complete" {
		t.mu.Lock()
		t.completes = append(t.completes, time.Now())
		t.mu.Unlock()
	}
	if t.sp != nil {
		// Heartbeats come from their own goroutine, so they get their
		// own track; the lease loop's RPCs are sequential.
		tid, role := 10*t.worker, "rpc"
		if rpc == "heartbeat" {
			tid, role = 10*t.worker+1, "heartbeat"
		}
		t.sp.span(t.sp.track(tid, fmt.Sprintf("worker %d %s", t.worker, role)), "cluster.rpc."+rpc, start, d)
	}
	return resp, err
}
