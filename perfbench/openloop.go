package main

import (
	"context"
	"math"
	"time"
)

// failedLatency stands in for the latency of a rejected or failed
// request, which misses any limit.
const failedLatency = math.MaxFloat64

// openLoop issues n requests on a fixed schedule, one every interval,
// whatever became of the earlier ones, and polls until each settles. A
// request's latency runs from its due time, not from when it was sent,
// so the wait a stalled generator imposes on the requests behind it
// counts against them.
type openLoop struct {
	interval time.Duration
	poll     time.Duration
	// submit sends request i; an error means it was rejected.
	submit func(i int) error
	// settled reports whether request i has settled and, if so, whether
	// it succeeded. Only the polling goroutine calls it, and the time it
	// takes is not charged to any request.
	settled func(i int) (done, ok bool)
	// tick, when set, runs on every poll, on the polling goroutine.
	tick func()
}

type loopResult struct {
	latency []float64     // ms from due to settled; failedLatency when rejected or failed
	lag     []float64     // ms from due to sent: how late the generator ran
	failed  []int         // requests rejected or failed, in index order
	busy    time.Duration // from the first due time to the last settle
}

type sent struct {
	i   int
	due time.Time
	err error
}

func (o openLoop) run(ctx context.Context, n int) (loopResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	genDone := make(chan struct{})
	defer func() { cancel(); <-genDone }()

	res := loopResult{latency: make([]float64, n), lag: make([]float64, n)}
	sends := make(chan sent, n) // one send per request: the generator never blocks
	start := time.Now()
	go func() {
		defer close(genDone)
		defer close(sends)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * o.interval)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			t := time.Now()
			err := o.submit(i)
			res.lag[i] = ms(t.Sub(due))
			sends <- sent{i: i, due: due, err: err}
		}
	}()

	failed := make([]bool, n)
	outstanding := map[int]time.Time{}
	last := start
	tick := time.NewTicker(o.poll)
	defer tick.Stop()
	for in := sends; in != nil || len(outstanding) > 0; {
		select {
		case s, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			if s.err != nil {
				failed[s.i] = true
				res.latency[s.i] = failedLatency
				continue
			}
			outstanding[s.i] = s.due
		case <-tick.C:
			if o.tick != nil {
				o.tick()
			}
			// Requests found settled on this poll are timed at its
			// start, so the time settled spends filing results is
			// charged to none of them.
			now := time.Now()
			for i, due := range outstanding {
				done, ok := o.settled(i)
				if !done {
					continue
				}
				last = now
				delete(outstanding, i)
				if !ok {
					failed[i] = true
					res.latency[i] = failedLatency
					continue
				}
				res.latency[i] = ms(now.Sub(due))
			}
		case <-ctx.Done():
			return res, ctx.Err()
		}
	}
	for i, f := range failed {
		if f {
			res.failed = append(res.failed, i)
		}
	}
	res.busy = last.Sub(start)
	return res, nil
}
