// Command perfbench is the campaign benchmark: it runs one of three named
// workloads through the program's public entry points for a fixed host
// time, checks every verdict against a serial-mode oracle, and prints
// end-to-end metrics (or, with -trace 1, a per-layer breakdown from a
// CPU profile and the benchmark's own spans). BENCHMARK.md describes the
// workloads and every metric.
//
// Usage, from the root of the repository (run.sh builds the binary):
//
//	bash perfbench/run.sh --workload table3-corpus --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// runBudget bounds a whole run, so a wedged workload fails the run
// instead of hanging it.
const runBudget = 170 * time.Second

// setupWarmups is how many untimed set-ups the service workloads run
// before their timed ones, so the set-up median leaves out the
// process's cold start.
const setupWarmups = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "host seconds one run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	dir := fs.String("dir", ".bench_build", "directory for state, traces and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWL, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds ≥ 1, -trace 0|1\n", workloadNames())
		return 2
	}
	state, err := os.MkdirTemp(mkdir(*dir), "state-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(state)

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	b := &bench{
		ctx:      ctx,
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.GOMAXPROCS(0),
		out:      *dir,
		state:    state,
		log:      stderr,
	}
	wl := newWL(b)
	var rep *report
	if *traced == 1 {
		rep, err = b.tracedRun(wl)
	} else {
		rep, err = b.endToEndRun(wl)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func mkdir(d string) string {
	_ = os.MkdirAll(d, 0o755) // MkdirTemp reports the failure
	return d
}

// syncFS fsyncs dir. On a journaling file system that commits what
// earlier writes left pending, so a timed operation's own fsyncs do not
// pay for them.
func syncFS(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	_ = f.Sync() // a set-up timed without the flush is still valid
}

// bench is one run's fixed context.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int    // parallelism: matrix jobs, service workers, cluster workers
	out      string // where traces and profiles are exported
	state    string // scratch state directories, removed at exit
	log      io.Writer
}

// tempDir returns a fresh state directory.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.state, prefix)
}

// runner runs one named benchmark workload. Its phase runs units of
// fixed work (a campaign, a cluster round, a slice of the job schedule)
// until the phase's stop rule says enough; lateSetups times the second
// half of the set-up samples after the measured work, so the set-up
// median spans the run; cells lists every distinct cell the phases ran,
// in spec order, for the oracle.
type runner interface {
	phase(p *phase) error
	lateSetups(p *phase) error
	cells() []cellRef
	close() error
}

var workloads = map[string]func(b *bench) runner{
	"table3-corpus":    newCorpus,
	"kardd-open-loop":  newKarddOpenLoop,
	"cluster-loopback": newClusterLoopback,
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return fmt.Sprint(ns)
}

// phase is one measured stretch of a run and what it observed.
type phase struct {
	b *bench
	// more reports whether to start another unit, given the units done
	// and the phase's elapsed time.
	more func(units int, elapsed time.Duration) bool
	// duration is the length of the open-loop schedule the phase runs;
	// the closed-loop workloads follow more instead.
	duration time.Duration
	units    int
	sp       *spans // nil when untraced

	setup     []float64 // seconds per set-up
	unitSecs  []float64 // host seconds per unit (campaign, round)
	unitCPU   []float64 // process CPU seconds per unit
	unitRSS   []float64 // peak resident MB per unit (nil rss: not sampled)
	rss       *rssSampler
	busy      time.Duration
	cells     int       // cells completed
	simOps    uint64    // operations simulated (cache hits excluded)
	jobLat    []float64 // ms from due to settled
	attempted int
	failed    int
	notes     []string

	// per-layer observations
	kardRaces int
	csEntries uint64
	retries   int
	queuedMax int
	genLag    []float64 // ms
	cacheHits uint64
	cacheMiss uint64
	jSyncs    uint64
	jBytes    int64
	verdicts  *verdictLog
}

// unitStart and unitEnd bracket one unit of work: they take its host
// and CPU seconds, and, when the phase samples RSS, its peak.
func (p *phase) unitStart() (time.Time, time.Duration) {
	if p.rss != nil {
		p.rss.take()
	}
	return time.Now(), processCPU()
}

func (p *phase) unitEnd(start time.Time, cpu time.Duration) time.Duration {
	took := time.Since(start)
	p.busy += took
	p.unitSecs = append(p.unitSecs, took.Seconds())
	p.unitCPU = append(p.unitCPU, (processCPU() - cpu).Seconds())
	if p.rss != nil {
		p.unitRSS = append(p.unitRSS, p.rss.take())
	}
	return took
}

func (p *phase) note(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// untilSeconds is the end-to-end stop rule: keep going until the run's
// seconds have passed and at least min units ran.
func untilSeconds(d time.Duration, min int) func(int, time.Duration) bool {
	return func(units int, elapsed time.Duration) bool { return elapsed < d || units < min }
}

// fixedUnits is the traced run's stop rule: exactly n units.
func fixedUnits(n int) func(int, time.Duration) bool {
	return func(units int, _ time.Duration) bool { return units < n }
}

// endToEndRun measures the workload untraced for the run's seconds and
// reports the end-to-end metrics.
func (b *bench) endToEndRun(wl runner) (*report, error) {
	vl := newVerdictLog()
	p := &phase{b: b, verdicts: vl, duration: b.seconds,
		more: untilSeconds(b.seconds, minUnits(wl)), rss: startRSS()}
	err := wl.phase(p)
	p.rss.close()
	if err == nil {
		err = wl.lateSetups(p)
	}
	if cerr := wl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep := newReport(endToEnd)
	rep.attempted, rep.failed = p.attempted, p.failed
	for _, n := range p.notes {
		fmt.Fprintln(b.log, n)
	}
	if len(p.unitSecs) > 0 {
		fmt.Fprintf(b.log, "unit seconds: %.3g; CPU seconds: %.3g; peak MB: %.4g\n", p.unitSecs, p.unitCPU, p.unitRSS)
	}
	secs := p.busy.Seconds()
	rep.set("setup_s", median(p.setup), len(p.setup), "median, half before and half after the measured work")
	rep.set("cells_per_s", float64(p.cells)/secs, p.cells, fmt.Sprintf("over %.2fs in %d units", secs, p.units))
	rep.set("sim_mops_per_s", float64(p.simOps)/1e6/secs, p.cells, "")
	rep.timing("job_p50_ms", p.jobLat, 0.5)
	rep.timing("job_p90_ms", p.jobLat, 0.9)
	rep.set("peak_rss_mb", median(p.unitRSS), len(p.unitRSS), "median of per-unit peaks")
	sim, err := b.check(wl, vl, rep)
	if err != nil {
		return nil, err
	}
	rep.set("overhead_err_pp", sim.overheadErr, sim.overheadCells, "simulated; vs paper Table 3")
	okRatio := 0.0
	if rep.attempted > 0 && rep.failed <= rep.attempted {
		okRatio = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	rep.set("ok_ratio", okRatio, rep.attempted, fmt.Sprintf("%d failed", rep.failed))
	return rep, nil
}

// tracedRun runs the workload's traced-phase work twice: once untraced,
// for the comparison rate, then under a CPU profile with the benchmark's
// spans recorded, and reports the per-layer metrics of the second.
func (b *bench) tracedRun(wl runner) (*report, error) {
	vl := newVerdictLog()
	n, half := tracedUnits(wl), b.seconds/2
	plain := &phase{b: b, verdicts: vl, duration: half, more: fixedUnits(n)}
	if err := wl.phase(plain); err != nil {
		return nil, err
	}

	sp := newSpans(b.seed, b.workload)
	traced := &phase{b: b, verdicts: vl, duration: half, more: fixedUnits(n), sp: sp}
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	c0 := snapshot()
	err := wl.phase(traced)
	c1 := snapshot()
	pprof.StopCPUProfile()
	if cerr := wl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	rep := newReport(perLayer)
	rep.attempted = plain.attempted + traced.attempted
	rep.failed = plain.failed + traced.failed
	for _, n := range traced.notes {
		fmt.Fprintln(b.log, n)
	}
	if err := b.layerMetrics(rep, traced, prof.Bytes(), c0, c1); err != nil {
		return nil, err
	}
	chrome, durs, err := sp.export()
	if err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d", b.workload, b.seed)
	if err := os.WriteFile(filepath.Join(b.out, "trace-"+base+".json"), chrome, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(b.out, "cpu-"+base+".pb.gz"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	spanMetrics(rep, durs, traced)

	plainRate := float64(plain.cells) / plain.busy.Seconds()
	tracedRate := float64(traced.cells) / traced.busy.Seconds()
	rep.set("bench.trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, 2,
		fmt.Sprintf("untraced %.3g vs traced %.3g cells/s", plainRate, tracedRate))

	sim, err := b.check(wl, vl, rep)
	if err != nil {
		return nil, err
	}
	rep.set("sim.exec_gcycles", sim.execGcycles, sim.cells, "simulated; distinct cells")
	rep.set("mem.dtlb_miss_rate", sim.dtlbMissRate, sim.cells, "simulated; distinct cells")
	return rep, nil
}

// minUnits is the fewest units an end-to-end phase runs, so job_p90_ms
// has at least ten samples beyond it.
func minUnits(wl runner) int {
	if u, ok := wl.(interface{ minUnits() int }); ok {
		return u.minUnits()
	}
	return 1
}

// tracedUnits is the fixed work of each traced-run phase, in units;
// the open loop instead runs half of the run's schedule in each.
func tracedUnits(wl runner) int {
	if u, ok := wl.(interface{ tracedUnits() int }); ok {
		return u.tracedUnits()
	}
	return 1
}

// spanMetrics turns the exported span durations into metrics.
func spanMetrics(rep *report, durs map[string][]float64, p *phase) {
	cell := durs["harness.cell"]
	rep.set("harness.cell_p50_ms", quantile(cell, 0.5), len(cell), "")
	rep.set("harness.cell_max_ms", quantile(cell, 1), len(cell), "")
	sub := durs["service.submit"]
	rep.set("service.submit_p50_ms", quantile(sub, 0.5), len(sub), "")
	rep.timing("service.submit_p90_ms", sub, 0.9)
	rep.set("service.queued_max", float64(p.queuedMax), 0, "sampled Stats().Queued")
	rpcs := 0
	for name, ds := range durs {
		if strings.HasPrefix(name, "cluster.rpc.") {
			rpcs += len(ds)
		}
	}
	for _, rpc := range []string{"lease", "complete", "heartbeat"} {
		ds := durs["cluster.rpc."+rpc]
		rep.set("cluster.rpc."+rpc+"_p50_ms", quantile(ds, 0.5), len(ds), "")
	}
	rep.set("cluster.rpc_count", float64(rpcs), rpcs, "")
	rep.timing("bench.gen_lag_p90_ms", p.genLag, 0.9)
}
