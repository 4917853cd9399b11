package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"kard/internal/faultinject"
)

// everyRule fires at every attempt of the given site.
func everyRule(site faultinject.Site, transient bool) faultinject.Plan {
	return faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		site: {Every: 1, Transient: transient},
	}}
}

func TestWatchdogAbortsHungRun(t *testing.T) {
	e := New(Config{Watchdog: 50 * time.Millisecond}, nil)
	_, err := e.Run(func(m *Thread) {
		mu := e.NewMutex("mu")
		m.Lock(mu, "s")
		m.Go("worker", func(w *Thread) {
			w.Lock(mu, "s") // blocks forever: main never unlocks
		})
		// Main spins on the host clock without ever parking long enough
		// to finish; the watchdog must tear the run down.
		for {
			m.Compute(1)
		}
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	// The error carries the thread-state dump and the flight recorder's
	// recent events (the watchdog fire itself is always the latest one).
	for _, want := range []string{"thread 0 (main)", "thread 1 (worker)", "waits on mutex",
		"flight recorder", "watchdog fired after"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dump missing %q in:\n%s", want, err)
		}
	}
}

// TestWatchdogReleasesRunningThread: a thread still executing body code
// when the watchdog fires cannot be stopped then, but once it reaches
// its next operation — a normal one, or the exit submitted after an
// unrecovered panic — it must be released and its goroutine must exit.
func TestWatchdogReleasesRunningThread(t *testing.T) {
	for _, tc := range []struct {
		name string
		then func(*Thread)
	}{
		{"operation", func(m *Thread) { m.Compute(1) }},
		{"panic", func(*Thread) { panic("body failed after the watchdog") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			gate := make(chan struct{})
			e := New(Config{Watchdog: 20 * time.Millisecond}, nil)
			_, err := e.Run(func(m *Thread) {
				m.Compute(1)
				<-gate // host-blocked in body code, never parked
				tc.then(m)
			})
			if !errors.Is(err, ErrWatchdog) {
				t.Fatalf("got %v, want ErrWatchdog", err)
			}
			if !strings.Contains(err.Error(), "released at their next operation") {
				t.Errorf("error does not name the running thread:\n%s", err)
			}
			close(gate)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines leaked: %d -> %d\n%s", base, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func TestWatchdogOffByDefault(t *testing.T) {
	e := New(Config{}, nil)
	st, err := e.Run(func(m *Thread) { m.Compute(100) })
	if err != nil || st == nil {
		t.Fatalf("plain run: %v", err)
	}
}

func TestPersistentMallocFaultFailsRun(t *testing.T) {
	e := New(Config{Faults: everyRule(faultinject.SiteMalloc, false)}, nil)
	_, err := e.Run(func(m *Thread) {
		m.Malloc(64, "obj")
	})
	if err == nil {
		t.Fatal("run with always-failing malloc succeeded")
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error does not unwrap to the injected fault: %v", err)
	}
	if !strings.Contains(err.Error(), "sim: run failed") {
		t.Fatalf("got %q, want a structured run error, not a panic report", err)
	}
}

func TestTransientMallocFaultIsRetried(t *testing.T) {
	// Every 2nd malloc attempt fails transiently: each workload Malloc
	// needs at most one retry, so the run must succeed and count them.
	plan := faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteMalloc: {Every: 2, Transient: true},
	}}
	e := New(Config{Faults: plan}, nil)
	st, err := e.Run(func(m *Thread) {
		for i := 0; i < 4; i++ {
			o := m.Malloc(64, "obj")
			m.Write(o, 0, 8, "w")
			m.Free(o)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.FaultsInjected == 0 || st.FaultRetries == 0 {
		t.Fatalf("injected=%d retried=%d, want both nonzero", st.FaultsInjected, st.FaultRetries)
	}
}

func TestGlobalRegistrationFaultFailsSetup(t *testing.T) {
	e := New(Config{Faults: everyRule(faultinject.SiteMmap, false)}, nil)
	if o := e.Global(64, "g"); o != nil {
		t.Fatalf("Global under persistent mmap failure returned %v, want nil", o)
	}
	_, err := e.Run(func(m *Thread) {})
	if err == nil || !strings.Contains(err.Error(), "sim: setup failed") {
		t.Fatalf("got %v, want a setup failure", err)
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error does not unwrap to the injected fault: %v", err)
	}
}

func TestFrameExhaustionSurfacesAsRunError(t *testing.T) {
	e := New(Config{MaxFrames: 2}, nil)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("frame exhaustion panicked: %v", p)
		}
	}()
	_, err := e.Run(func(m *Thread) {
		o := m.Malloc(16*4096, "big")
		m.Write(o, 0, 16*4096, "w") // touches more frames than exist
	})
	if err == nil {
		t.Fatal("run beyond the frame limit succeeded")
	}
	if !strings.Contains(err.Error(), "frame pool exhausted") {
		t.Fatalf("got %v, want frame exhaustion", err)
	}
}

func TestFaultStatsZeroWithoutPlan(t *testing.T) {
	e := New(Config{}, nil)
	st, err := e.Run(func(m *Thread) {
		o := m.Malloc(64, "obj")
		m.Write(o, 0, 8, "w")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected != 0 || st.FaultRetries != 0 || st.Degraded != 0 || st.AllocFallbacks != 0 {
		t.Fatalf("fault counters nonzero without a plan: %+v", st)
	}
}
