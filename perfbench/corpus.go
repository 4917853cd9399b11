package main

import (
	"fmt"
	"time"

	"kard/internal/harness"
	"kard/internal/service"
	"kard/internal/workload"
)

// table3-corpus runs the 19 Table 3 application models, each in all
// four configurations (Kard, TSan, Lockset, Baseline), as one closed
// batch (a campaign) through harness.RunMatrixContext with no cache, one
// campaign after another. The Kard cells put the unique-page allocator,
// the page table, mpk and the Kard detector to work; the TSan and
// Lockset cells put the shadow-state detectors to work over the native
// allocator. Which layer a change moves shows in the traced run's
// per-layer breakdown.

const (
	corpusScale   = 0.05
	corpusThreads = 4
	// corpusMinCampaigns makes job_p90_ms rest on over 100 cells (76
	// per campaign).
	corpusMinCampaigns = 2
	// setupReps is how many times a run repeats a cheap set-up to take
	// its median: half before the measured work, half after it.
	setupReps = 400
)

// corpusModes is the campaign's mode order: the detector modes first,
// so the long Kard and TSan cells start early and the short Lockset
// and Baseline cells fill the end of the batch.
var corpusModes = []harness.Mode{harness.ModeKard, harness.ModeTSan, harness.ModeLockset, harness.ModeBaseline}

type corpus struct {
	b     *bench
	specs []harness.Spec
}

func newCorpus(b *bench) runner {
	return &corpus{b: b}
}

func (c *corpus) minUnits() int    { return corpusMinCampaigns }
func (c *corpus) tracedUnits() int { return 1 }

// expand builds the campaign's cells from the seed: every Table 3
// application (the registry minus the race corpus) in the first mode,
// in table order, then every application in the next. Mode-major order
// with the short modes last lets two workers finish within a short cell
// of each other; application-major order ends on nginx's 1.2 s Kard
// cell, and whether it starts early enough decides, by sub-second
// timing luck, how long a campaign takes.
func (c *corpus) expand() ([]harness.Spec, error) {
	var apps []string
	for _, name := range workload.Names() {
		w, err := workload.New(name)
		if err != nil {
			return nil, err
		}
		if w.Spec().Suite != "corpus" {
			apps = append(apps, name)
		}
	}
	if len(apps) != 19 {
		return nil, fmt.Errorf("corpus: %d Table 3 applications, want 19", len(apps))
	}
	var specs []harness.Spec
	for _, m := range corpusModes {
		for _, name := range apps {
			specs = append(specs, harness.Spec{Options: harness.Options{
				Workload: name, Mode: m, Threads: corpusThreads, Scale: corpusScale, Seed: c.b.seed}})
		}
	}
	return specs, nil
}

func (c *corpus) phase(p *phase) error {
	if c.specs == nil {
		if err := c.setups(p, setupReps/2); err != nil {
			return err
		}
	}
	phaseStart := time.Now()
	matrix := p.sp.track(1, "campaigns")
	for p.more(p.units, time.Since(phaseStart)) {
		if err := p.b.ctx.Err(); err != nil {
			return err
		}
		start, cpu := p.unitStart()
		rs := harness.RunMatrixContext(p.b.ctx, c.specs, harness.MatrixOptions{
			Jobs: p.b.nproc,
			OnCell: func(_, _ int, r harness.MatrixResult) {
				p.jobLat = append(p.jobLat, ms(time.Since(start)))
				p.sp.cell(r.Elapsed)
			},
		})
		took := p.unitEnd(start, cpu)
		p.sp.span(matrix, "harness.matrix", start, took)
		p.units++
		for _, r := range rs {
			if err := p.result(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// setups times n spec expansions, keeping the last one's specs.
func (c *corpus) setups(p *phase, n int) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		specs, err := c.expand()
		if err != nil {
			return err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		c.specs = specs
	}
	return nil
}

func (c *corpus) lateSetups(p *phase) error { return c.setups(p, setupReps-setupReps/2) }

// result files one finished matrix cell.
func (p *phase) result(r harness.MatrixResult) error {
	p.attempted++
	if r.Err != nil {
		p.failed++
		p.note("cell %s failed: %v", r.Spec.Label(), r.Err)
		return nil
	}
	if r.Attempts > 1 {
		p.retries++
	}
	p.cells++
	p.simOps += r.Result.Summary.Ops
	v := service.NewCellVerdict(r.Spec, r.Result)
	p.tally(r.Spec.Mode, v)
	return p.verdicts.add(v)
}

// tally adds a verdict's counts to the phase's per-layer observations.
func (p *phase) tally(mode harness.Mode, v *service.CellVerdict) {
	p.csEntries += v.Summary.CSEntries
	if mode == harness.ModeKard {
		p.kardRaces += v.Races
	}
}

func (c *corpus) cells() []cellRef {
	refs := make([]cellRef, len(c.specs))
	for i, s := range c.specs {
		refs[i] = cellRef{spec: s}
	}
	return refs
}

func (c *corpus) close() error { return nil }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
