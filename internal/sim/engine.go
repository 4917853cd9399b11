package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/faultinject"
	"kard/internal/mem"
	"kard/internal/mpk"
	"kard/internal/obs"
	"kard/internal/trace"
)

// Config parameterizes one simulated execution.
type Config struct {
	// Seed keys the scheduler's tie-breaking, so different seeds explore
	// different interleavings deterministically.
	Seed int64
	// TLBEntries sizes the dTLB model (0 = default).
	TLBEntries int
	// TLBModel selects the dTLB replacement model: "" or "clock" is the
	// flat CLOCK model whose hit/miss sequences pin the golden outputs;
	// "setassoc" is the two-level set-associative geometry of the paper's
	// evaluation machine (64-entry 8-way L1 + 1536-entry 12-way STLB;
	// TLBEntries is ignored). New panics on any other value.
	TLBModel string
	// UniquePageAllocator selects Kard's consolidated unique-page
	// allocator instead of the compact native one.
	UniquePageAllocator bool
	// AllocRecycle enables virtual-page recycling in the unique-page
	// allocator (ablation; off in the paper).
	AllocRecycle bool
	// Faults is the deterministic fault-injection plan threaded through
	// the run's syscall-like boundaries. The zero plan injects nothing.
	Faults faultinject.Plan
	// Watchdog bounds the run's wall-clock time (0 = unbounded). An
	// exceeded deadline aborts the run with an error wrapping
	// ErrWatchdog and a per-thread state dump.
	Watchdog time.Duration
	// Deadline is an absolute wall-clock deadline propagated from job
	// submission (zero = none). When it is nearer than Watchdog it
	// becomes the effective bound; a run whose deadline already passed
	// fails immediately with ErrDeadline instead of starting.
	Deadline time.Time
	// MaxFrames bounds the simulated physical frame pool (0 =
	// unlimited); exhaustion surfaces as mem.ErrFrameExhausted.
	MaxFrames uint64
	// Metrics publishes per-access counters to the process-wide obs
	// registry live (one atomic add per access) instead of only at run
	// teardown. The detection service turns it on so a /metrics scrape
	// sees in-flight work; batch evaluation leaves it off and loses
	// nothing — the same totals are flushed when the run ends. The live
	// path stays allocation-free (benchgate's AccessSteadyStateMetrics
	// run enforces it).
	Metrics bool
	// ExecMode selects the access execution path (DESIGN.md §12):
	// ExecModeParallel ("" and the default) buffers accesses per thread,
	// replays them through the scheduler, and commits conflict-free
	// batches concurrently in reconciliation epochs; ExecModeBatch
	// buffers and replays without epochs; ExecModeSerial parks every
	// access individually — the differential oracle. All three produce
	// byte-identical statistics, verdicts, and race reports. New panics
	// on any other value.
	ExecMode string
	// BatchSize overrides the per-thread access buffer capacity
	// (0 = DefaultBatchSize). Meaningless under ExecModeSerial.
	BatchSize int
	// Trace, when non-nil, receives structured span events from the run:
	// the run span, batch-drain instants, reconciliation-epoch spans with
	// their commit/replay phases, epoch vetoes, watchdog firings, and
	// fault-injection retries. Events record at operation-boundary rate,
	// never per access, and all timestamps are virtual clocks — a traced
	// run is as deterministic as an untraced one, and a nil Trace costs
	// one predictable branch per boundary (benchgate's
	// AccessSteadyStateTraced run pins the traced cost).
	Trace *trace.Track
}

// Engine is the discrete-event execution engine. Create one per run with
// New, register globals, then call Run.
type Engine struct {
	cfg      Config
	space    *mem.AddressSpace
	objects  *alloc.ObjectTable
	alloc    alloc.Allocator
	detector Detector

	mu          sync.Mutex // guards mutex/barrier creation from workload code
	mutexes     []*Mutex
	rwmutexes   []*RWMutex
	conds       []*Cond
	barriers    []*BarrierObj
	sections    map[string]*CriticalSection
	sectionList []*CriticalSection

	// Scheduling (DESIGN.md §7): the thread that submits an operation
	// takes sched and runs the pick loop itself (Engine.schedule) until
	// some thread is woken, then resumes the first woken thread directly.
	// Exactly one goroutine — the loop holder or the thread it resumed —
	// runs at a time, so workload body code is serialized with
	// happens-before edges at every hand-off.
	sched     sync.Mutex
	parked    []*Thread // threads whose next operation is pick-eligible
	ready     []wakeup  // woken threads in wake order, not yet resumed
	readyHead int
	threads   []*Thread
	// abort is set (under sched) once Run tears the run down: submit then
	// unwinds the calling body with errAborted instead of scheduling.
	abort bool
	// done is closed by the loop holder that finds no thread left to
	// pick; Run waits on it.
	done chan struct{}
	// loopPanic describes an engine or detector panic raised by the pick
	// loop on a thread goroutine; Run re-panics it on its caller's.
	loopPanic any

	startup cycles.Time

	// Section concurrency tracking (Table 5).
	activeSections    map[*CriticalSection]int
	maxConcurrent     int
	totalCSEntries    uint64
	accessUnits       uint64
	tlbMissUnits      uint64
	globalsRegistered int
	started           bool // Run was called
	obsFlushed        bool

	// panics records unrecovered panics from thread bodies (guarded by
	// mu: thread goroutines append concurrently). Run reports them as
	// errors instead of letting one diverging workload kill the process.
	panics []string

	// runErrs records structured run-level errors — failed setup
	// allocations, operation errors a thread could not continue past,
	// detector invariant violations — reported by Run without the
	// panic-to-error net (guarded by mu).
	runErrs []error

	// inj is the run's fault injector, nil without a Faults plan. It is
	// also attached to the address space, where mem/mpk/alloc/core
	// consult it.
	inj *faultinject.Injector

	// scratch is the reusable Access record for the scalar and
	// batch-replay access paths. Passing its address to OnAccess keeps
	// the per-access path allocation-free (a local would escape to the
	// heap through the interface call); detectors must not retain the
	// pointer past the OnAccess call, which the Detector interface
	// documents. Those paths run only inside the pick loop, under sched,
	// so one record per engine is safe; parallel epochs use the
	// per-thread epochScratch records instead.
	scratch Access

	// Batched execution (DESIGN.md §12, internal/sim/batch.go).
	execMode  string // resolved Config.ExecMode
	batching  bool   // execMode != ExecModeSerial
	batchSize int
	// epochDet is non-nil when reconciliation epochs may run: parallel
	// mode, an EpochDetector, and the CLOCK dTLB (the set-associative
	// model's LRU touches are order-sensitive, so it never epochs).
	epochDet  EpochDetector
	epochHold bool // a vetoed configuration; re-check only after a new arrival
	epochFoot map[*alloc.Object]*Thread
	// epochThreads is the reusable per-epoch participant list.
	epochThreads []*Thread

	// Per-run batch/epoch telemetry, flushed to obs at teardown.
	batchDrains   uint64
	batchDepth    [10]uint64 // power-of-two drain-depth buckets
	epochCount    uint64
	epochAccesses uint64
	epochVetoes   uint64

	// tr is the structured trace track (Config.Trace; nil = off). All
	// events record inside the pick loop or Run, at boundary rate.
	tr *trace.Track

	// syncRing is the fixed ring of recent synchronization edges (lock,
	// unlock, barrier, spawn, join, exit) feeding race provenance
	// (provenance.go). Recording is a value store into a fixed array —
	// allocation-free — and happens only at sync operations, never on the
	// access path. syncCount is the total recorded; the ring index is
	// syncCount % syncRingSize.
	syncRing  [syncRingSize]SyncEdge
	syncCount uint64
}

// New creates an engine with the given configuration and detector. The
// detector may be nil, meaning Baseline.
func New(cfg Config, det Detector) *Engine {
	if det == nil {
		det = NewBaseline()
	}
	var as *mem.AddressSpace
	switch cfg.TLBModel {
	case "", "clock":
		as = mem.NewAddressSpace(cfg.TLBEntries)
	case "setassoc":
		as = mem.NewAddressSpaceWithTLB(mem.NewSetAssocTLB())
	default:
		panic(fmt.Sprintf("sim: unknown TLBModel %q (want \"\", \"clock\", or \"setassoc\")", cfg.TLBModel))
	}
	tbl := alloc.NewObjectTable(as)
	e := &Engine{
		cfg:            cfg,
		space:          as,
		objects:        tbl,
		detector:       det,
		done:           make(chan struct{}),
		sections:       make(map[string]*CriticalSection),
		activeSections: make(map[*CriticalSection]int),
	}
	switch cfg.ExecMode {
	case "", ExecModeParallel:
		e.execMode = ExecModeParallel
	case ExecModeBatch, ExecModeSerial:
		e.execMode = cfg.ExecMode
	default:
		panic(fmt.Sprintf("sim: unknown ExecMode %q (want %q, %q, or %q)",
			cfg.ExecMode, ExecModeParallel, ExecModeBatch, ExecModeSerial))
	}
	if _, ok := det.(interface{ SerialOnly() }); ok {
		// The detector logs a per-event timeline (sim.Tracer): under the
		// batched modes its OnAccess calls fire at drain time rather than
		// at the Read/Write call sites, and a future epoch-capable wrapper
		// would fire them concurrently. Force the scalar path so the
		// logged timeline is the interleaving the workload actually wrote.
		e.execMode = ExecModeSerial
	}
	e.batching = e.execMode != ExecModeSerial
	e.tr = cfg.Trace
	e.batchSize = cfg.BatchSize
	if e.batchSize <= 0 {
		e.batchSize = DefaultBatchSize
	}
	if e.execMode == ExecModeParallel {
		if ed, ok := det.(EpochDetector); ok {
			if _, clock := as.TLB().(*mem.TLB); clock {
				e.epochDet = ed
			}
		}
	}
	if !cfg.Faults.Empty() {
		e.inj = faultinject.New(cfg.Seed, cfg.Faults)
		as.SetInjector(e.inj)
	}
	if cfg.MaxFrames > 0 {
		as.SetFrameLimit(cfg.MaxFrames)
	}
	if cfg.UniquePageAllocator {
		u := alloc.NewUniquePage(as, tbl)
		u.Recycle = cfg.AllocRecycle
		e.alloc = u
		e.startup = e.startup.Add(cycles.MemfdCreate)
	} else {
		e.alloc = alloc.NewNative(as, tbl)
	}
	det.Setup(e)
	return e
}

// Space returns the simulated address space.
func (e *Engine) Space() *mem.AddressSpace { return e.space }

// Objects returns the object table.
func (e *Engine) Objects() *alloc.ObjectTable { return e.objects }

// Allocator returns the active allocator.
func (e *Engine) Allocator() alloc.Allocator { return e.alloc }

// Detector returns the active detector.
func (e *Engine) Detector() Detector { return e.detector }

// Threads returns all threads created so far (including exited ones), in
// creation order. Detectors use it to inspect which threads currently
// execute critical sections.
func (e *Engine) Threads() []*Thread { return e.threads }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// ExecMode returns the resolved execution mode the engine runs under —
// Config.ExecMode after defaulting, or ExecModeSerial when the detector
// demanded the scalar path (see the SerialOnly check in New).
func (e *Engine) ExecMode() string { return e.execMode }

// Global registers a global object before the run starts. Kard aggregates
// global metadata during compilation and registers it when the program
// starts (§5.3); the cost is charged to startup.
//
// Transient allocation faults are retried with backoff charged to
// startup. A persistent failure records a run error and returns nil: Run
// reports it before executing any thread, so callers registering several
// globals need not check each one.
func (e *Engine) Global(size uint64, name string) *alloc.Object {
	if e.started {
		panic("sim: Global must be called before Run")
	}
	o, d, err := e.alloc.Global(size, name)
	for r := 0; err != nil && faultinject.IsTransient(err) && r < allocMaxRetries; r++ {
		e.inj.NoteRetry()
		e.tr.InstantArg("fault.retry", "sim", int64(e.startup), "site", name, int64(r))
		e.startup = e.startup.Add(allocRetryBackoff << r)
		o, d, err = e.alloc.Global(size, name)
	}
	if err != nil {
		e.FailRun(fmt.Errorf("sim: registering global %q: %w", name, err))
		return nil
	}
	e.startup = e.startup.Add(d)
	e.startup = e.startup.Add(e.detector.ObjectAllocated(nil, o))
	e.globalsRegistered++
	return o
}

// FailRun records a run-level error for Run to report: a failed setup
// allocation or a detector invariant violation. Hooks whose signatures
// only return durations use it instead of panicking; the run continues
// (degraded) and the error surfaces when Run finishes — or immediately,
// for errors recorded before Run starts.
func (e *Engine) FailRun(err error) {
	obs.Flight.Recordf(obs.EvRunFail, "%v", err)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runErrs = append(e.runErrs, err)
}

// allocMaxRetries bounds retries of transient allocation faults;
// allocRetryBackoff is the simulated cost of the first retry, doubling
// per attempt.
const (
	allocMaxRetries                   = 3
	allocRetryBackoff cycles.Duration = 2000
)

// ErrWatchdog marks run failures caused by the wall-clock watchdog.
// Callers match it with errors.Is.
var ErrWatchdog = errors.New("watchdog timeout")

// ErrDeadline marks run failures caused by an expired Config.Deadline —
// before the run started, or mid-run when the deadline was the binding
// wall-clock bound (such errors also match ErrWatchdog). Callers match
// it with errors.Is.
var ErrDeadline = errors.New("deadline exceeded")

// Run executes body as the main thread and drives the simulation until
// every thread exits. It returns the run statistics, or an error if the
// simulated program deadlocked or a thread body panicked without
// recovering (the panic is captured and reported as the error, so one
// diverging workload cannot take down a whole evaluation process).
func (e *Engine) Run(body func(*Thread)) (*Stats, error) {
	if e.started {
		return nil, fmt.Errorf("sim: engine already ran")
	}
	e.started = true
	// Telemetry flushes exactly once per run, whatever the exit path —
	// Finish() only runs on success, which is not enough for gauges that
	// must be retracted on watchdog and failure teardowns too.
	outcome := "failed"
	defer func() { e.finishObs(outcome) }()
	// The run span opens before any early return so finishObs (which
	// closes it) always sees a matching begin.
	e.tr.Begin("run", "sim", int64(e.startup))
	if err := e.takeRunErrs(); err != nil {
		// Setup (Global registration) already failed: report it before
		// executing any thread code.
		return nil, fmt.Errorf("sim: setup failed: %w", err)
	}
	bound, deadlineBound := e.cfg.Watchdog, false
	if !e.cfg.Deadline.IsZero() {
		rem := time.Until(e.cfg.Deadline)
		if rem <= 0 {
			outcome = "deadline"
			return nil, fmt.Errorf("sim: %w: job deadline %v passed before the run started",
				ErrDeadline, e.cfg.Deadline.UTC().Format(time.RFC3339))
		}
		if bound == 0 || rem < bound {
			bound, deadlineBound = rem, true
		}
	}
	var watchC <-chan time.Time
	if bound > 0 {
		timer := time.NewTimer(bound)
		defer timer.Stop()
		watchC = timer.C
	}
	// Run only starts main and waits: the thread goroutines schedule each
	// other. Every exit path below holds sched with abort set, so a thread
	// still running body code unwinds at its next operation.
	main := e.startThread("main", e.startup, body)
	main.resume <- opResult{}
	select {
	case <-e.done:
	case <-watchC:
	}
	e.sched.Lock() // waits out the scheduling step in flight, if any
	defer e.sched.Unlock()
	e.abort = true
	select {
	case <-e.done: // the run ended, possibly as the watchdog fired
	default:
		outcome = "watchdog"
		if deadlineBound {
			outcome = "deadline"
		}
		return nil, e.abortTimeout(bound, deadlineBound)
	}
	if p := e.loopPanic; p != nil {
		panic(p) // every other thread was released by failSchedule
	}

	var blocked []string
	var report string
	for _, t := range e.threads {
		if !t.done {
			if report == "" {
				report = e.blockageReport() // before tearing the threads down
			}
			blocked = append(blocked, fmt.Sprintf("%s(#%d)", t.name, t.id))
			t.done = true
			t.resume <- opResult{err: errAborted} // release the goroutine
		}
	}
	e.mu.Lock()
	panics := e.panics
	e.mu.Unlock()
	if len(panics) > 0 {
		msg := strings.Join(panics, "\n---\n")
		if len(blocked) > 0 {
			msg = fmt.Sprintf("%s\n(threads %v were left blocked by the panic)", msg, blocked)
		}
		return nil, fmt.Errorf("sim: workload panic: %s", msg)
	}
	if err := e.takeRunErrs(); err != nil {
		// FailRun errors get the same flight-recorder context as
		// watchdog reports: the events leading up to the failure.
		if len(blocked) > 0 {
			return nil, fmt.Errorf("sim: run failed: %w (threads %v were left blocked)\n%s",
				err, blocked, obs.Flight.Dump(16))
		}
		return nil, fmt.Errorf("sim: run failed: %w\n%s", err, obs.Flight.Dump(16))
	}
	if len(blocked) > 0 {
		return nil, fmt.Errorf("sim: deadlock: threads %v blocked forever\n%s", blocked, report)
	}
	e.detector.Finish()
	outcome = "ok"
	return e.collectStats(), nil
}

// finishObs publishes the run's accumulated telemetry — outcome, access
// units, races, injector tallies, the address space's counters, and any
// detector-held gauges — to the process-wide obs registry. Hot-path
// signals are plain per-run fields flushed here in one batch, so the
// access/translate path never pays an atomic (live per-access publishing
// is opt-in via Config.Metrics, which makes this skip the access units it
// already published). Idempotent; Run arranges exactly one call per run
// on every exit path.
func (e *Engine) finishObs(outcome string) {
	if e.obsFlushed {
		return
	}
	e.obsFlushed = true
	m := obs.Std
	switch outcome {
	case "ok":
		m.SimRunsOK.Inc()
	case "watchdog":
		m.SimRunsWatchdog.Inc()
	case "deadline":
		m.SimRunsDeadline.Inc()
	default:
		m.SimRunsFailed.Inc()
	}
	if !e.cfg.Metrics {
		m.SimAccessUnits.Add(e.accessUnits)
	}
	m.SimBatchDrains.Add(e.batchDrains)
	for i, n := range e.batchDepth {
		if n > 0 && i > 0 {
			m.SimBatchDepth.ObserveN(float64(uint64(1)<<(i-1)), n)
		}
	}
	m.SimEpochs.Add(e.epochCount)
	m.SimEpochAccesses.Add(e.epochAccesses)
	m.SimEpochVetoes.Add(e.epochVetoes)
	m.SimRaces.Add(uint64(len(e.detector.Races())))
	if e.inj != nil {
		fs := e.inj.Stats()
		m.SimFaultsInjected.Add(fs.Injected)
		m.SimFaultRetries.Add(fs.Retried)
		m.SimDegradations.Add(fs.Degraded)
	}
	e.space.FlushObs()
	if f, ok := e.detector.(interface{ FlushObs() }); ok {
		f.FlushObs()
	}
	e.tr.InstantArg("run.outcome", "sim", -1, "outcome", outcome,
		int64(len(e.detector.Races())))
	e.tr.EndArg("run", "sim", -1, "accesses", int64(e.accessUnits))
	e.tr.Flush()
}

// takeRunErrs joins and clears the recorded run errors.
func (e *Engine) takeRunErrs() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.runErrs) == 0 {
		return nil
	}
	err := errors.Join(e.runErrs...)
	e.runErrs = nil
	return err
}

// abortTimeout tears the run down after the watchdog fired. Run holds
// sched with abort set, so no scheduling step is in flight: every thread
// parked at the pick loop, woken but not yet resumed, or blocked in a
// synchronization queue is released with errAborted. The one thread that
// may still be running body code cannot be stopped safely; it unwinds at
// its next operation, when submit sees abort. Only a body that never
// reaches another operation keeps its goroutine. bound is the wall-clock
// bound that fired; deadlineBound marks it as the job deadline rather
// than the watchdog setting.
func (e *Engine) abortTimeout(bound time.Duration, deadlineBound bool) error {
	if deadlineBound {
		obs.Flight.Recordf(obs.EvWatchdog, "job deadline fired after %v wall-clock", bound)
		e.tr.InstantArg("watchdog", "sim", -1, "bound", "deadline", bound.Milliseconds())
	} else {
		obs.Flight.Recordf(obs.EvWatchdog, "watchdog fired after %v wall-clock", bound)
		e.tr.InstantArg("watchdog", "sim", -1, "bound", "watchdog", bound.Milliseconds())
	}
	// The thread-state dump carries the flight recorder's recent events:
	// what the engine was doing (faults, degradations, breaker activity)
	// right before the run wedged is exactly the triage context a
	// timeout report needs.
	dump := e.stateDump() + "\n" + obs.Flight.Dump(16)
	safe := e.blockedSet()
	var running []string
	for _, t := range e.threads {
		if t.done {
			continue
		}
		if safe[t] {
			t.done = true
			t.resume <- opResult{err: errAborted}
		} else {
			running = append(running, fmt.Sprintf("%s(#%d)", t.name, t.id))
		}
	}
	var err error
	if deadlineBound {
		err = fmt.Errorf("sim: %w: %w: run hit the job deadline after %v wall-clock\n%s",
			ErrWatchdog, ErrDeadline, bound, dump)
	} else {
		err = fmt.Errorf("sim: %w: run exceeded %v wall-clock\n%s", ErrWatchdog, bound, dump)
	}
	if len(running) > 0 {
		err = fmt.Errorf("%w\n(threads %v were running body code; they are released at their next operation)", err, running)
	}
	return err
}

// startThread creates a simulated thread at the given start time and
// launches its goroutine, which waits to be resumed before running body.
func (e *Engine) startThread(name string, start cycles.Time, body func(*Thread)) *Thread {
	t := &Thread{
		id:     len(e.threads),
		name:   name,
		eng:    e,
		clock:  start,
		held:   make(map[*Mutex]bool),
		resume: make(chan opResult, 1),
	}
	e.threads = append(e.threads, t)
	e.detector.ThreadStarted(t)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && err == errAborted {
					return // engine tore the deadlocked thread down
				}
				if oe, ok := r.(*opError); ok {
					// A failed operation the body did not handle:
					// record it as a structured run error (no stack —
					// the error chain identifies the site) and exit
					// the thread so the scheduler keeps running.
					e.FailRun(fmt.Errorf("thread %s(#%d): %w", t.name, t.id, oe.err))
					t.exitFromRecover()
					return
				}
				// An unrecovered panic in the thread body: record it
				// and exit the thread normally so the scheduler keeps
				// running and Run can report the panic as an error.
				e.recordPanic(t, r)
				t.exitFromRecover()
			}
		}()
		if r := <-t.resume; r.err != nil {
			return // released before it ever ran
		}
		body(t)
		t.submit(op{kind: opExit})
	}()
	return t
}

// exitFromRecover submits the thread's exit from inside its recover
// handler. A teardown may answer that submit with errAborted; nothing
// above the handler recovers, so the panic is absorbed here.
func (t *Thread) exitFromRecover() {
	defer func() {
		if r := recover(); r != nil && r != any(errAborted) {
			panic(r)
		}
	}()
	t.submit(op{kind: opExit})
}

// recordPanic captures an unrecovered thread-body panic, with the stack of
// the panicking goroutine, for Run to report.
func (e *Engine) recordPanic(t *Thread, v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.panics = append(e.panics, fmt.Sprintf("thread %s(#%d): %v\n%s", t.name, t.id, v, debug.Stack()))
}

// errAborted is delivered to threads that are still blocked when the
// engine shuts down after detecting a deadlock (or a watchdog timeout),
// so their goroutines exit instead of leaking.
var errAborted = fmt.Errorf("sim: thread aborted at engine shutdown")

// opError wraps an operation error delivered to a thread, so the
// thread-goroutine recover distinguishes failed operations (structured
// run errors, error chain preserved for errors.Is/As) from genuine
// workload panics (reported with stacks).
type opError struct{ err error }

func (e *opError) Error() string { return e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// wakeup is one woken thread and the result its pending operation
// returns.
type wakeup struct {
	t *Thread
	r opResult
}

// wake queues t to resume with r. Woken threads resume one at a time in
// wake order, each running its body to its next operation.
func (e *Engine) wake(t *Thread, r opResult) {
	e.ready = append(e.ready, wakeup{t, r})
}

// schedule runs the pick loop on self's goroutine, which holds sched and
// has just parked self at its next operation. The loop executes picked
// operations until one wakes a thread, then resumes the first woken
// thread: self by returning its result — no goroutine switch — or any
// other thread by one direct hand-off, after which self blocks until it
// is woken in turn. A pick happens only while no woken thread waits, so
// at every pick each live thread is parked or queued: pick order cannot
// depend on host scheduling. Returns with sched released.
func (e *Engine) schedule(self *Thread) opResult {
	defer func() {
		if p := recover(); p != nil {
			e.failSchedule(self, p)
			panic(errAborted)
		}
	}()
	for e.readyHead == len(e.ready) && len(e.parked) > 0 {
		e.tryEpoch()
		t := e.pickNext()
		if t.batchPos < len(t.batch) {
			e.executeBatchEntry(t)
		} else {
			e.execute(t)
		}
	}
	var next wakeup
	if e.readyHead < len(e.ready) {
		next = e.ready[e.readyHead]
		if e.readyHead++; e.readyHead == len(e.ready) {
			e.ready, e.readyHead = e.ready[:0], 0
		}
	} else {
		// Nothing left to run: every thread exited or is blocked forever.
		// Run takes over and releases the blocked ones.
		close(e.done)
	}
	if next.t == self {
		e.sched.Unlock()
		return next.r
	}
	exiting := self.done // an exited thread passes the scheduler on and ends
	e.sched.Unlock()
	if next.t != nil {
		next.t.resume <- next.r
	}
	if exiting {
		return opResult{}
	}
	return <-self.resume
}

// failSchedule tears the run down after the pick loop panicked on self's
// goroutine — an engine or detector bug, not a workload panic. While the
// loop runs every other live thread is blocked at its resume channel, so
// all are released with errAborted; self unwinds with errAborted, and
// Run re-panics on its caller's goroutine with p and this stack.
func (e *Engine) failSchedule(self *Thread, p any) {
	e.loopPanic = fmt.Sprintf("%v\n\npick loop goroutine:\n%s", p, debug.Stack())
	e.abort = true
	for _, t := range e.threads {
		if t != self && !t.done {
			t.resume <- opResult{err: errAborted}
		}
		t.done = true
	}
	close(e.done)
	e.sched.Unlock()
}

// arrive admits a thread that parked at its next operation: telemetry for a
// freshly drained batch, epoch re-admission (a new arrival is the only
// event that can change a vetoed epoch configuration), then activation.
func (e *Engine) arrive(t *Thread) {
	e.epochHold = false
	if len(t.batch) > 0 && t.batchPos == 0 {
		e.noteDrain(len(t.batch))
		e.tr.InstantArg("drain", "sim", int64(t.clock), "depth", "", int64(len(t.batch)))
	}
	e.activate(t)
}

// activate makes the thread's next queued operation pick-eligible and
// charges it to the thread's operation count — batched entries count one
// by one exactly as their scalar submissions would have, and the opDrain
// park itself is free (the scalar path has no such operation). The count
// feeds the seed-keyed scheduling prio, so it must advance identically
// across execution modes.
func (e *Engine) activate(t *Thread) {
	if t.batchPos < len(t.batch) || t.pending.kind != opDrain {
		t.opCount++
	}
	e.parked = append(e.parked, t)
}

// pickNext removes and returns the parked thread with the smallest
// (clock, tie-break hash) pair.
func (e *Engine) pickNext() *Thread {
	best := 0
	bestPrio := e.prio(e.parked[0])
	for i := 1; i < len(e.parked); i++ {
		t := e.parked[i]
		switch {
		case t.clock < e.parked[best].clock:
			best, bestPrio = i, e.prio(t)
		case t.clock == e.parked[best].clock:
			if p := e.prio(t); p < bestPrio {
				best, bestPrio = i, p
			}
		}
	}
	t := e.parked[best]
	e.parked[best] = e.parked[len(e.parked)-1]
	e.parked = e.parked[:len(e.parked)-1]
	return t
}

// prio is the deterministic, seed-keyed tie-breaker: it depends only on
// the seed, the thread, and the thread's operation count, never on host
// goroutine scheduling.
func (e *Engine) prio(t *Thread) uint64 {
	return splitmix64(uint64(e.cfg.Seed)*0x9e3779b97f4a7c15 ^ uint64(t.id)<<32 ^ t.opCount)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// execute runs one parked operation on the scheduler.
func (e *Engine) execute(t *Thread) {
	o := t.pending
	switch o.kind {
	case opCompute:
		t.charge(o.cost)
		e.wake(t, opResult{})

	case opMalloc:
		obj, d, err := e.alloc.Malloc(o.size, o.site)
		// Transient allocation faults (injected OOM, mmap EAGAIN) are
		// retried with exponential backoff charged in simulated cycles,
		// as a production allocator would sleep and retry.
		for r := 0; err != nil && faultinject.IsTransient(err) && r < allocMaxRetries; r++ {
			e.inj.NoteRetry()
			e.tr.InstantArg("fault.retry", "sim", int64(t.clock), "site", o.site, int64(r))
			t.charge(allocRetryBackoff << r)
			obj, d, err = e.alloc.Malloc(o.size, o.site)
		}
		if err != nil {
			e.wake(t, opResult{err: err})
			return
		}
		t.charge(d)
		t.charge(e.detector.ObjectAllocated(t, obj))
		e.wake(t, opResult{obj: obj})

	case opFree:
		t.charge(e.detector.ObjectFreed(t, o.obj))
		d, err := e.alloc.Free(o.obj)
		if err != nil {
			e.wake(t, opResult{err: err})
			return
		}
		t.charge(d)
		e.wake(t, opResult{})

	case opAccess:
		e.wake(t, opResult{err: e.accessCore(t, o.obj, o.off, o.size, o.access, o.site)})

	case opSweep:
		e.wake(t, opResult{err: e.sweepCore(t, o.objs, o.size, o.access, o.site)})

	case opDrain:
		// The batch was fully replayed before this final op became
		// pick-eligible (the pick loop executes queued entries first);
		// the park itself costs nothing.
		e.wake(t, opResult{})

	case opRLock, opRUnlock, opWLock, opWUnlock:
		e.executeRW(t, o)

	case opCondWait, opCondSignal, opCondBroadcast:
		e.executeCond(t, o)

	case opTryLock:
		m := o.mutex
		if m.holder != nil {
			t.charge(cycles.LockUncontended)
			e.wake(t, opResult{ok: false})
			return
		}
		t.clock = cycles.Max(t.clock, m.lastRelease).Add(cycles.LockUncontended)
		e.grantLock(t, m, o.site)
		e.wake(t, opResult{ok: true})

	case opLock:
		m := o.mutex
		if m.holder == t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d re-locking held %s", t.id, m)})
			return
		}
		if m.holder != nil {
			m.waiters = append(m.waiters, t) // stays parked in the mutex queue
			return
		}
		t.clock = cycles.Max(t.clock, m.lastRelease).Add(cycles.LockUncontended)
		e.grantLock(t, m, o.site)
		e.wake(t, opResult{})

	case opUnlock:
		m := o.mutex
		if m.holder != t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d unlocking %s it does not hold", t.id, m)})
			return
		}
		entry, ok := t.popSection(m)
		if !ok {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d has no section for %s", t.id, m)})
			return
		}
		t.charge(e.detector.CSExit(t, entry.Section, m))
		t.charge(cycles.LockUncontended)
		e.leaveSection(entry.Section)
		e.noteSync("unlock", t.id, -1, m.name, t.clock)
		delete(t.held, m)
		m.lastRelease = t.clock
		m.holder = nil
		e.wake(t, opResult{}) // the unlocker first: often self, so no switch
		e.wakeMutexWaiter(m)

	case opBarrier:
		b := o.barrier
		b.waiting = append(b.waiting, t)
		if len(b.waiting) < b.n {
			return
		}
		var tmax cycles.Time
		for _, w := range b.waiting {
			tmax = cycles.Max(tmax, w.clock)
		}
		tmax = tmax.Add(cycles.BarrierWait)
		d := e.detector.BarrierPassed(b.waiting)
		group := b.waiting
		b.waiting = nil
		b.passes++
		e.noteSync("barrier", t.id, len(group), "", tmax)
		e.wake(t, opResult{})
		for _, w := range group {
			w.clock = tmax.Add(d)
			if w != t {
				e.wake(w, opResult{})
			}
		}

	case opSpawn:
		t.charge(cycles.ThreadSpawn)
		child := e.startThread(o.site, t.clock, o.body)
		e.detector.ThreadSpawned(t, child)
		e.noteSync("spawn", t.id, child.id, o.site, t.clock)
		e.wake(t, opResult{thread: child})
		e.wake(child, opResult{})

	case opJoin:
		target := o.thread
		if target.done {
			t.clock = cycles.Max(t.clock, target.final)
			e.detector.ThreadJoined(t, target)
			e.noteSync("join", t.id, target.id, "", t.clock)
			e.wake(t, opResult{})
			return
		}
		target.joiners = append(target.joiners, t)

	case opExit:
		e.detector.ThreadExited(t)
		t.done = true
		t.final = t.clock
		e.noteSync("exit", t.id, -1, "", t.final)
		for _, j := range t.joiners {
			j.clock = cycles.Max(j.clock, t.final)
			e.detector.ThreadJoined(j, t)
			e.noteSync("join", j.id, t.id, "", j.clock)
			e.wake(j, opResult{})
		}
		t.joiners = nil
		// The exited thread needs no turn: if it is the loop holder it
		// passes the scheduler on and its goroutine ends; otherwise its
		// goroutine, parked in schedule, is released to end concurrently
		// — it touches no engine state on the way out.
		t.resume <- opResult{}

	default:
		e.wake(t, opResult{err: fmt.Errorf("sim: unknown op kind %d", o.kind)})
	}
}

// pickWaiter removes and returns the min-clock thread of a wait queue,
// ties broken by the seed-keyed prio like pickNext.
func (e *Engine) pickWaiter(q *[]*Thread) *Thread {
	best := 0
	bestPrio := e.prio((*q)[0])
	for i := 1; i < len(*q); i++ {
		w := (*q)[i]
		switch {
		case w.clock < (*q)[best].clock:
			best, bestPrio = i, e.prio(w)
		case w.clock == (*q)[best].clock:
			if p := e.prio(w); p < bestPrio {
				best, bestPrio = i, p
			}
		}
	}
	w := (*q)[best]
	*q = append((*q)[:best], (*q)[best+1:]...)
	return w
}

// wakeMutexWaiter hands a released mutex to its min-clock waiter, if any:
// after an unlock and after a condition wait released the mutex.
func (e *Engine) wakeMutexWaiter(m *Mutex) {
	if m.holder != nil || len(m.waiters) == 0 {
		return
	}
	w := e.pickWaiter(&m.waiters)
	w.clock = cycles.Max(w.clock, m.lastRelease).Add(cycles.LockHandoff)
	m.contended++
	e.grantLock(w, m, w.pending.site)
	e.wake(w, opResult{})
}

// grantLock completes a lock acquisition: section bookkeeping and the
// detector's CSEnter hook.
func (e *Engine) grantLock(t *Thread, m *Mutex, site string) {
	m.holder = t
	m.acquisitions++
	t.held[m] = true
	cs := e.section(site)
	cs.entries++
	e.totalCSEntries++
	t.Sections = append(t.Sections, SectionEntry{Section: cs, Mutex: m, Enter: t.clock})
	e.enterSection(cs)
	e.noteSync("lock", t.id, -1, site, t.clock)
	t.charge(e.detector.CSEnter(t, cs, m))
}

func (e *Engine) enterSection(cs *CriticalSection) {
	e.activeSections[cs]++
	if n := len(e.activeSections); n > e.maxConcurrent {
		e.maxConcurrent = n
	}
}

func (e *Engine) leaveSection(cs *CriticalSection) {
	e.activeSections[cs]--
	if e.activeSections[cs] == 0 {
		delete(e.activeSections, cs)
	}
}

// popSection removes and returns the innermost section entry of t whose
// mutex is m; ok is false when t has none.
func (t *Thread) popSection(m *Mutex) (entry SectionEntry, ok bool) {
	for i := len(t.Sections) - 1; i >= 0; i-- {
		if t.Sections[i].Mutex == m {
			entry = t.Sections[i]
			t.Sections = append(t.Sections[:i], t.Sections[i+1:]...)
			return entry, true
		}
	}
	return SectionEntry{}, false
}

// accessCore performs one data access: translation through the dTLB per
// touched page, the base access cost, and the detector hook. It runs in
// the pick loop, under sched, for both the scalar path and the batch
// replay, so the engine's scratch record is safe to reuse — a local Access would
// escape to the heap through the OnAccess interface call, costing one
// allocation per simulated access.
func (e *Engine) accessCore(t *Thread, obj *alloc.Object, off, size uint64, kind mpk.AccessKind, site string) error {
	if obj.Freed() {
		return fmt.Errorf("sim: thread %d use-after-free of %s at %s", t.id, obj, site)
	}
	addr := obj.Base + mem.Addr(off)
	first, last := mem.PageRange(addr, size)
	for p := first; p <= last; p++ {
		a := p.Base()
		if a < addr {
			a = addr
		}
		_, miss, minor, err := e.space.Translate(a)
		if err != nil {
			return err
		}
		if miss {
			t.charge(cycles.TLBMiss)
			e.tlbMissUnits++
			t.tlbMisses++
		} else {
			t.tlbHits++
		}
		if minor {
			t.charge(cycles.MinorFault)
		}
	}
	e.scratch = Access{Thread: t, Object: obj, Addr: addr, Size: size, Kind: kind, Site: site}
	units := e.scratch.Units()
	t.charge(cycles.Duration(units) * cycles.Access)
	t.accessUnits += units
	e.accessUnits += units
	if e.cfg.Metrics {
		obs.Std.SimAccessUnits.Add(units)
	}
	t.charge(e.detector.OnAccess(&e.scratch))
	return nil
}

// sweepCore accesses every object of a pool, translating each object's
// first page through the dTLB and invoking the detector per object. The
// engine's Access record is reused across the loop; detectors must not
// retain it past the OnAccess call.
func (e *Engine) sweepCore(t *Thread, objs []*alloc.Object, size uint64, kind mpk.AccessKind, site string) error {
	e.scratch = Access{Thread: t, Kind: kind, Site: site}
	for _, obj := range objs {
		if obj.Freed() {
			return fmt.Errorf("sim: thread %d sweep over freed %s at %s", t.id, obj, site)
		}
		sz := size
		if sz > obj.Padded {
			sz = obj.Padded
		}
		_, miss, minor, err := e.space.Translate(obj.Base)
		if err != nil {
			return err
		}
		if miss {
			t.charge(cycles.TLBMiss)
			e.tlbMissUnits++
			t.tlbMisses++
		} else {
			t.tlbHits++
		}
		if minor {
			t.charge(cycles.MinorFault)
		}
		e.scratch.Object, e.scratch.Addr, e.scratch.Size = obj, obj.Base, sz
		units := e.scratch.Units()
		t.charge(cycles.Duration(units) * cycles.Access)
		t.accessUnits += units
		e.accessUnits += units
		if e.cfg.Metrics {
			obs.Std.SimAccessUnits.Add(units)
		}
		t.charge(e.detector.OnAccess(&e.scratch))
	}
	return nil
}

// op is one pending thread operation.
type op struct {
	kind    opKind
	cost    cycles.Duration
	size    uint64
	off     uint64
	obj     *alloc.Object
	objs    []*alloc.Object
	access  mpk.AccessKind
	site    string
	mutex   *Mutex
	rwmutex *RWMutex
	cond    *Cond
	barrier *BarrierObj
	thread  *Thread
	body    func(*Thread)
}

type opKind uint8

var opNames = [...]string{
	"compute", "malloc", "free", "access", "sweep", "lock", "unlock",
	"trylock", "barrier", "spawn", "join", "exit", "rlock", "runlock",
	"wlock", "wunlock", "condwait", "condsignal", "condbroadcast",
	"drain",
}

func (k opKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

const (
	opCompute opKind = iota
	opMalloc
	opFree
	opAccess
	opSweep
	opLock
	opUnlock
	opTryLock
	opBarrier
	opSpawn
	opJoin
	opExit
	opRLock
	opRUnlock
	opWLock
	opWUnlock
	opCondWait
	opCondSignal
	opCondBroadcast
	// opDrain parks a thread whose access batch filled (or was explicitly
	// flushed) with no other operation to run; the batch replays and the
	// thread resumes. It is the only op kind with no scalar equivalent,
	// so it never advances the operation count (DESIGN.md §12).
	opDrain
)

type opResult struct {
	obj    *alloc.Object
	thread *Thread
	ok     bool
	err    error
}
