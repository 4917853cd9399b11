package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kard/internal/cycles"
)

// panickyDetector is a detector with a bug: its OnAccess panics at the
// at-th access of the run. It keeps Baseline's EpochDetector contract, so
// under ExecModeParallel its OnAccess also runs on epoch worker
// goroutines, and the counter is atomic.
type panickyDetector struct {
	Baseline
	n  atomic.Int64
	at int64
}

func (d *panickyDetector) OnAccess(*Access) cycles.Duration {
	if d.n.Add(1) == d.at {
		panic("detector bug")
	}
	return 0
}

// waitGoroutines polls until the goroutine count is back at base:
// released threads need a moment to observe their abort and exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestDetectorPanicSurfacesFromRun: the pick loop runs on whichever thread
// goroutine submitted an operation, so a detector panic is raised there —
// or, inside a reconciliation epoch, on an epoch worker goroutine — not on
// Run's goroutine. Under every execution mode it must still leave Run, as
// a panic on Run's caller or an error, and no simulated thread may be
// left blocked. At seed 1 the workload's 700th access falls inside an
// epoch's concurrent replay.
func TestDetectorPanicSurfacesFromRun(t *testing.T) {
	for _, mode := range []string{ExecModeSerial, ExecModeBatch, ExecModeParallel} {
		t.Run(mode, func(t *testing.T) {
			base := runtime.NumGoroutine()
			type outcome struct {
				panicked any
				err      error
			}
			ch := make(chan outcome, 1)
			go func() {
				var o outcome
				defer func() {
					o.panicked = recover()
					ch <- o
				}()
				e := New(Config{Seed: 1, ExecMode: mode}, &panickyDetector{at: 700})
				_, o.err = e.Run(func(m *Thread) { epochWorkload(4, 200)(e, m) })
			}()
			select {
			case o := <-ch:
				switch {
				case o.panicked != nil:
					msg := fmt.Sprint(o.panicked)
					if !strings.Contains(msg, "detector bug") {
						t.Errorf("Run panicked with %v, want the detector's panic", o.panicked)
					}
					if mode == ExecModeParallel && !strings.Contains(msg, "epoch worker goroutine") {
						t.Errorf("parallel run did not panic inside an epoch:\n%s", msg)
					}
				case o.err == nil:
					t.Fatal("run with a panicking detector succeeded")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run hung after a detector panic")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestWokenThreadsResumeInWakeOrder: threads woken together — here by a
// barrier — run their body code one at a time in wake order, never in an
// order the host scheduler picks. Body code between two operations may
// therefore touch shared state without a lock (the race detector checks
// the hand-off edges), and its effects are identical on every run.
func TestWokenThreadsResumeInWakeOrder(t *testing.T) {
	const threads = 8
	var want []int
	for run := 0; run < 50; run++ {
		var order []int
		e := New(Config{Seed: 1}, nil)
		_, err := e.Run(func(m *Thread) {
			b := e.NewBarrier(threads)
			var ws []*Thread
			for i := 0; i < threads; i++ {
				ws = append(ws, m.Go(fmt.Sprintf("w%d", i), func(w *Thread) {
					w.Compute(cycles.Duration(100 * (i%3 + 1)))
					w.Barrier(b)
					order = append(order, w.ID())
					w.Compute(1)
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = order
			continue
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("run %d: resume order %v, run 0 had %v", run, order, want)
		}
	}
	got := append([]int(nil), want...)
	sort.Ints(got)
	if len(got) != threads || got[0] != 1 || got[threads-1] != threads {
		t.Fatalf("resume order %v is not one entry per worker", want)
	}
}
