package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"kard/internal/harness"
	"kard/internal/service"
	"kard/internal/service/journal"
)

// kardd-open-loop feeds an in-process detection service (service.Open
// on a fresh state directory) through Submit on a fixed schedule, as
// independent users would, and polls Status until each job settles. A
// job is two cells (Kard and TSan) of one small model; seeds are
// distinct, and one job in four re-requests an earlier job's cells under
// a fresh ID, so cache reads run beside cache writes. The per-job fixed
// costs dominate here: durable admission, journal fsyncs, verdict JSON,
// cache I/O and engine set-up.

const (
	// karddRate is the offered load, about 30% of the rate at which the
	// service saturates with two workers on a 2-CPU host (~26 jobs/s).
	// Job latency is then mostly service time: at 15 jobs/s the
	// latencies read the same and spread as much, while peak RSS spread
	// more and a run took longer.
	karddRate = 8 // jobs per second
	// karddWarmJobs is how many jobs, on the same schedule, run before
	// the measured window: a fresh service ran its first 20 jobs up to
	// 1.5× slower than the rest.
	karddWarmJobs = 24
	// karddReuseEvery and karddReuseBack place the re-requests: every
	// fourth job repeats a fresh job more than karddReuseBack places
	// earlier, which has settled by then, so its cells are cache reads.
	karddReuseEvery = 4
	karddReuseBack  = 8
	// karddOpens is how many fresh state directories a run opens, for
	// the set-up median: half before the schedule (the last of those
	// serves it), half after.
	karddOpens = 80
	// pollEvery is how often the benchmark asks Status about unsettled
	// jobs; it bounds the latency measurement's resolution.
	pollEvery = time.Millisecond
)

// smallModels are the models whose cells each take well under 100 ms at
// corpusScale. nginx is left out: its Kard cell alone takes over a
// second.
var smallModels = []string{"aget", "memcached", "pigz", "racecorpus", "x264"}

// smallScale runs the race corpus at full size: its known-race count
// (69 ILU scenarios) describes the full corpus, and the whole corpus
// still simulates in a few milliseconds.
func smallScale(model string) float64 {
	if model == "racecorpus" {
		return 1
	}
	return corpusScale
}

type kardd struct {
	b          *bench
	srv        *service.Server
	jobs       []service.JobSpec // the run's whole schedule, from the seed
	reused     []bool            // whether jobs[i] re-requests an earlier job
	freshCells []harness.Spec    // cells of the fresh jobs, in order
	next       int               // jobs handed to phases so far
}

func newKarddOpenLoop(b *bench) runner {
	return &kardd{b: b}
}

// defaults are the per-job defaults the service applies (its 2-minute
// cell timeout); normalizing with them here gives the same cells the
// service runs.
var defaults = service.ServerDefaults{CellTimeout: 2 * time.Minute}

// gen generates the run's n-job schedule from the seed. Fresh jobs take
// the small models in seeded random order, one permutation of all five
// per five fresh jobs, so every seed offers the same mix; each fourth
// job repeats the fresh job karddReuseBack+1 places before it. The
// traced run splits the same schedule between its two phases, so both
// modes check the same cells.
func (k *kardd) gen(n int) error {
	rng := rand.New(rand.NewSource(k.b.seed))
	var perm []int
	fresh := 0
	k.jobs = make([]service.JobSpec, n)
	k.reused = make([]bool, n)
	for i := range k.jobs {
		id := fmt.Sprintf("perfbench-%d-%d", k.b.seed, i)
		if i%karddReuseEvery == karddReuseEvery-1 && i > karddReuseBack {
			k.jobs[i] = k.jobs[i-karddReuseBack-1]
			k.jobs[i].ID = id
			k.reused[i] = true
			continue
		}
		if fresh%len(smallModels) == 0 {
			perm = rng.Perm(len(smallModels))
		}
		model := smallModels[perm[fresh%len(smallModels)]]
		fresh++
		js := service.JobSpec{ID: id, Workload: model,
			Modes:   []harness.Mode{harness.ModeKard, harness.ModeTSan},
			Seeds:   []int64{k.b.seed*1_000_000 + int64(i)},
			Threads: corpusThreads, Scale: smallScale(model)}
		if err := js.Normalize(defaults); err != nil {
			return err
		}
		k.jobs[i] = js
		k.freshCells = append(k.freshCells, js.Cells()...)
	}
	return nil
}

// setups times n service.Open calls, each on a fresh state directory
// of a just-flushed file system. With keep, the last server stays open
// to serve the run; the others are drained at once.
func (k *kardd) setups(p *phase, n int, keep bool) error {
	for i := 0; i < n; i++ {
		dir, err := k.b.tempDir("kardd-")
		if err != nil {
			return err
		}
		syncFS(k.b.state)
		start := time.Now()
		srv, err := service.Open(service.Config{Dir: dir, Workers: k.b.nproc, CellWorkers: 1})
		if err != nil {
			return err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		if keep && i == n-1 {
			k.srv = srv
			break
		}
		if err := srv.Drain(k.b.ctx); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

func (k *kardd) lateSetups(p *phase) error { return k.setups(p, karddOpens/2, false) }

func (k *kardd) phase(p *phase) error {
	if k.srv == nil {
		if err := k.gen(karddWarmJobs + int(karddRate*k.b.seconds.Seconds())); err != nil {
			return err
		}
		if err := k.setups(&phase{}, setupWarmups, false); err != nil {
			return err
		}
		if err := k.setups(p, karddOpens-karddOpens/2, true); err != nil {
			return err
		}
		// The warm-up's latencies and counts are left out; its
		// verdicts are checked with the rest.
		warm := &phase{b: p.b, verdicts: p.verdicts}
		if err := k.window(warm, karddWarmJobs); err != nil {
			return err
		}
		p.attempted += warm.attempted
		p.failed += warm.failed
		p.notes = append(p.notes, warm.notes...)
	}
	return k.window(p, int(math.Round(karddRate*p.duration.Seconds())))
}

// window runs the next n jobs of the schedule on the open loop and
// files what they did in p.
func (k *kardd) window(p *phase, n int) error {
	if rest := len(k.jobs) - k.next; n > rest {
		n = rest
	}
	jobs, reused := k.jobs[k.next:k.next+n], k.reused[k.next:k.next+n]
	k.next += n
	st0 := k.srv.Stats()
	jw := journalWatch{last: st0.Journal}
	gen := p.sp.track(2, "generator")
	var fileErr error
	ol := openLoop{
		interval: time.Second / karddRate,
		poll:     pollEvery,
		submit: func(i int) error {
			t := time.Now()
			_, err := k.srv.Submit(jobs[i])
			p.sp.span(gen, "service.submit", t, time.Since(t))
			return err
		},
		settled: func(i int) (done, ok bool) {
			st, known := k.srv.Status(jobs[i].ID)
			switch {
			case !known:
				p.note("job %s unknown after admission", jobs[i].ID)
				return true, false
			case st.State == service.StateFailed:
				p.note("job %s failed: %s", jobs[i].ID, st.Error)
				return true, false
			case st.State != service.StateDone:
				return false, false
			}
			if err := k.settled(p, jobs[i], st.Verdict, reused[i]); err != nil && fileErr == nil {
				fileErr = err
			}
			return true, true
		},
	}
	if p.sp != nil {
		polls := 0
		ol.tick = func() {
			if polls++; polls%20 != 0 {
				return
			}
			st := k.srv.Stats()
			if st.Queued > p.queuedMax {
				p.queuedMax = st.Queued
			}
			jw.observe(st.Journal)
		}
	}
	if p.rss != nil {
		p.rss.take()
	}
	res, err := ol.run(k.b.ctx, n)
	if err != nil {
		return err
	}
	if p.rss != nil {
		p.unitRSS = append(p.unitRSS, p.rss.take())
	}
	if fileErr != nil {
		return fileErr
	}
	p.attempted += 2 * n
	p.failed += 2 * len(res.failed)
	for _, i := range res.failed {
		p.note("job %s rejected or failed", jobs[i].ID)
	}
	p.jobLat = append(p.jobLat, res.latency...)
	p.genLag = append(p.genLag, res.lag...)
	p.busy += res.busy
	p.units += n

	st1 := k.srv.Stats()
	jw.observe(st1.Journal)
	p.jSyncs += st1.Journal.Syncs - st0.Journal.Syncs
	p.jBytes += jw.appended
	p.cacheHits += st1.Cache.Hits - st0.Cache.Hits
	p.cacheMiss += st1.Cache.Misses - st0.Cache.Misses
	p.note("kardd: %d jobs at %d/s; generator lateness p50 %.3f ms, max %.3f ms",
		n, karddRate, quantile(res.lag, 0.5), quantile(res.lag, 1))
	return nil
}

// settled files a finished job's cell verdicts. A re-request's cells
// come from the cache, so they add no simulated operations.
func (k *kardd) settled(p *phase, js service.JobSpec, v *service.JobVerdict, reused bool) error {
	cells := js.Cells()
	if v == nil || len(v.Cells) != len(cells) {
		p.failed += len(cells)
		p.note("job %s settled without a verdict for each of its %d cells", js.ID, len(cells))
		return nil
	}
	for i, cv := range v.Cells {
		p.cells++
		if !reused {
			p.simOps += cv.Summary.Ops
		}
		p.tally(cells[i].Mode, cv)
		if err := p.verdicts.add(cv); err != nil {
			return err
		}
	}
	return nil
}

func (k *kardd) cells() []cellRef {
	refs := make([]cellRef, len(k.freshCells))
	for i, s := range k.freshCells {
		refs[i] = cellRef{spec: s}
	}
	return refs
}

func (k *kardd) close() error {
	if k.srv == nil {
		return nil
	}
	return k.srv.Drain(k.b.ctx)
}

// journalWatch totals the bytes appended to a WAL from periodic
// samples of its size. Compaction truncates the WAL, so after one the
// whole new size is growth; appends between the last sample and the
// compaction go uncounted.
type journalWatch struct {
	last     journal.Stats
	appended int64
}

func (w *journalWatch) observe(st journal.Stats) {
	if st.Compactions > w.last.Compactions {
		w.appended += st.Bytes
	} else {
		w.appended += st.Bytes - w.last.Bytes
	}
	w.last = st
}
