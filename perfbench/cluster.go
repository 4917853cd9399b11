package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"kard/internal/cluster"
	"kard/internal/harness"
)

// cluster-loopback runs a closed matrix of small cells on a coordinator
// (cluster.New) with one in-process worker per CPU (cluster.DialWith and
// cluster.RunWorker) over an httptest loopback server, one round after
// another. Each round is a fresh coordinator on a fresh state directory,
// as kardd -cluster starts one per campaign, so set-up (the journal, the
// HTTP server, every worker's join) is measured every round. It is the
// only workload that drives internal/cluster: leases, heartbeats,
// cluster.wal and RPC dedup.

const (
	// clusterSeeds is how many seeds the round's matrix crosses with the
	// small models and the Kard and TSan modes: 5 × 2 × 8 = 80 cells, a
	// round of over a second, so workers heartbeat (every second) too.
	clusterSeeds = 8
	// clusterSetups is how many extra set-ups a run times for the
	// set-up median: half before the rounds, half after.
	clusterSetups = 40
	// clusterTracedRounds is the traced run's fixed work per phase.
	clusterTracedRounds = 4
)

type loopback struct {
	b     *bench
	specs []harness.Spec
	warm  bool // the extra set-ups ran
}

func newClusterLoopback(b *bench) runner {
	var specs []harness.Spec
	for _, model := range smallModels {
		for _, m := range []harness.Mode{harness.ModeKard, harness.ModeTSan} {
			for k := 0; k < clusterSeeds; k++ {
				specs = append(specs, harness.Spec{Options: harness.Options{Workload: model, Mode: m,
					Threads: corpusThreads, Scale: smallScale(model), Seed: b.seed*100 + int64(k)}})
			}
		}
	}
	return &loopback{b: b, specs: specs}
}

func (l *loopback) tracedUnits() int { return clusterTracedRounds }

func (l *loopback) phase(p *phase) error {
	if !l.warm {
		l.warm = true
		if err := l.extraSetups(&phase{}, setupWarmups); err != nil {
			return err
		}
		if err := l.extraSetups(p, clusterSetups/2); err != nil {
			return err
		}
	}
	phaseStart := time.Now()
	for p.more(p.units, time.Since(phaseStart)) {
		r, err := l.setup(p)
		if err != nil {
			return err
		}
		err = l.round(p, r)
		r.close()
		if err != nil {
			return err
		}
		p.units++
	}
	return nil
}

// extraSetups times n set-ups, torn down unused, so the set-up median
// rests on more samples than the rounds alone give. The samples go to
// p; untimed warm-ups pass a throwaway phase.
func (l *loopback) extraSetups(p *phase, n int) error {
	for i := 0; i < n; i++ {
		r, err := l.setup(p)
		if err != nil {
			return err
		}
		r.close()
	}
	return nil
}

func (l *loopback) lateSetups(p *phase) error {
	return l.extraSetups(p, clusterSetups-clusterSetups/2)
}

// rig is one round's coordinator, loopback server and joined workers.
type rig struct {
	dir        string
	coord      *cluster.Coordinator
	srv        *httptest.Server
	transports []*rpcTransport
	clients    []*cluster.Client
}

// setup starts a coordinator for the matrix on a fresh state directory
// of a just-flushed file system, serves it on a loopback server and
// joins one worker per CPU, timing all of it as one set-up.
func (l *loopback) setup(p *phase) (*rig, error) {
	dir, err := l.b.tempDir("cluster-")
	if err != nil {
		return nil, err
	}
	syncFS(l.b.state)
	start := time.Now()
	r := &rig{dir: dir}
	if r.coord, err = cluster.New(cluster.Config{Dir: dir}, l.specs); err != nil {
		r.close()
		return nil, err
	}
	r.srv = httptest.NewServer(r.coord.Handler())
	for w := 0; w < l.b.nproc; w++ {
		t := &rpcTransport{base: http.DefaultTransport.(*http.Transport).Clone(), worker: w, sp: p.sp}
		r.transports = append(r.transports, t)
		cl, err := cluster.DialWith(l.b.ctx, r.srv.URL, fmt.Sprintf("perfbench-%d", w),
			cluster.ClientOptions{Transport: t})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	p.setup = append(p.setup, time.Since(start).Seconds())
	return r, nil
}

func (r *rig) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	for _, t := range r.transports {
		t.base.(*http.Transport).CloseIdleConnections()
	}
	if r.coord != nil {
		_ = r.coord.Close() // the round's verdicts are already read
	}
	os.RemoveAll(r.dir)
}

// round runs the matrix once on a rig's workers.
func (l *loopback) round(p *phase, r *rig) error {
	run, cpu := p.unitStart()
	ctx, cancel := context.WithCancel(l.b.ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(r.clients))
	for w, cl := range r.clients {
		wg.Add(1)
		go func(w int, cl *cluster.Client) {
			defer wg.Done()
			errs[w] = cluster.RunWorker(ctx, cl, cluster.WorkerOptions{})
		}(w, cl)
	}
	werr := r.coord.Wait(l.b.ctx)
	took := p.unitEnd(run, cpu)
	p.sp.span(p.sp.track(3, "rounds"), "cluster.round", run, took)
	if werr != nil {
		cancel()
	}
	wg.Wait()
	if werr != nil {
		return werr
	}
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster worker %d: %w", w, err)
		}
	}
	for _, t := range r.transports {
		for _, at := range t.completes {
			p.jobLat = append(p.jobLat, ms(at.Sub(run)))
		}
	}
	st := r.coord.Stats()
	p.jSyncs += st.Journal.Syncs
	p.jBytes += st.Journal.Bytes
	for _, res := range r.coord.Results() {
		if err := p.result(res); err != nil {
			return err
		}
	}
	return nil
}

func (l *loopback) cells() []cellRef {
	refs := make([]cellRef, len(l.specs))
	for i, s := range l.specs {
		refs[i] = cellRef{spec: s}
	}
	return refs
}

func (l *loopback) close() error { return nil }
