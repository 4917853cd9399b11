package sim

import (
	"fmt"
	"sort"
	"strings"
)

// blockageReport describes every permanently blocked thread at engine
// shutdown — what it waits on and who is responsible — and names any
// lock-ordering cycle it finds in the waits-for graph. It turns the bare
// "deadlock" error into an actionable diagnosis.
func (e *Engine) blockageReport() string {
	waitsOn := map[*Thread]string{}   // thread → human description
	waitsFor := map[*Thread]*Thread{} // mutex waits-for edges only

	for _, m := range e.mutexes {
		for _, w := range m.waiters {
			holder := "nobody"
			if m.holder != nil {
				holder = fmt.Sprintf("thread %d (%s)", m.holder.id, m.holder.name)
				waitsFor[w] = m.holder
			}
			waitsOn[w] = fmt.Sprintf("mutex %q held by %s", m.name, holder)
		}
	}
	for _, rw := range e.rwmutexes {
		describe := func(w *Thread, mode string) {
			var holder string
			switch {
			case rw.writer != nil:
				holder = fmt.Sprintf("writer thread %d", rw.writer.id)
				waitsFor[w] = rw.writer
			case len(rw.readers) > 0:
				holder = fmt.Sprintf("%d reader(s)", len(rw.readers))
			default:
				holder = "nobody"
			}
			waitsOn[w] = fmt.Sprintf("rwmutex %q (%s) held by %s", rw.name, mode, holder)
		}
		for _, w := range rw.waitingW {
			describe(w, "write")
		}
		for _, w := range rw.waitingR {
			describe(w, "read")
		}
	}
	for _, c := range e.conds {
		for _, w := range c.waiting {
			waitsOn[w] = fmt.Sprintf("condition %q (no future signal)", c.name)
		}
	}
	for _, b := range e.barriers {
		for _, w := range b.waiting {
			waitsOn[w] = fmt.Sprintf("barrier #%d (%d of %d arrived)", b.id, len(b.waiting), b.n)
		}
	}
	for _, t := range e.threads {
		for _, j := range t.joiners {
			waitsOn[j] = fmt.Sprintf("join of thread %d (%s), itself blocked", t.id, t.name)
		}
	}

	var lines []string
	for t, why := range waitsOn {
		lines = append(lines, fmt.Sprintf("  thread %d (%s) waits on %s", t.id, t.name, why))
	}
	sort.Strings(lines)

	if cycle := findCycle(waitsFor); len(cycle) > 0 {
		var names []string
		for _, t := range cycle {
			names = append(names, fmt.Sprintf("thread %d", t.id))
		}
		lines = append(lines, "  lock cycle: "+strings.Join(names, " → "))
	}
	return strings.Join(lines, "\n")
}

// blockedSet returns every thread blocked at its resume channel, which
// watchdog teardown can therefore release safely: parked at the pick
// loop, woken but not yet resumed, or waiting in a synchronization queue
// (mutex, rwmutex, condition, barrier, join). A live thread outside the
// set is running body code.
func (e *Engine) blockedSet() map[*Thread]bool {
	set := make(map[*Thread]bool, len(e.threads))
	add := func(ts []*Thread) {
		for _, t := range ts {
			set[t] = true
		}
	}
	add(e.parked)
	for _, w := range e.ready[e.readyHead:] {
		set[w.t] = true
	}
	for _, m := range e.mutexes {
		add(m.waiters)
	}
	for _, rw := range e.rwmutexes {
		add(rw.waitingW)
		add(rw.waitingR)
	}
	for _, c := range e.conds {
		add(c.waiting)
	}
	for _, b := range e.barriers {
		add(b.waiting)
	}
	for _, t := range e.threads {
		add(t.joiners)
	}
	return set
}

// stateDump renders every thread's state — virtual clock, operation
// count, and whether it is exited, blocked (parked at the pick loop, woken,
// or in a synchronization queue, and at what operation), or still running
// body code — plus the blockage report. Watchdog-timeout errors carry it so
// a hung cell is diagnosable from its error alone. The caller holds sched.
func (e *Engine) stateDump() string {
	blocked := e.blockedSet()
	var lines []string
	for _, t := range e.threads {
		var line string
		switch {
		case t.done:
			line = fmt.Sprintf("  thread %d (%s): clock %d, %d ops, exited",
				t.id, t.name, uint64(t.clock), t.opCount)
		case blocked[t]:
			line = fmt.Sprintf("  thread %d (%s): clock %d, %d ops, blocked at %s",
				t.id, t.name, uint64(t.clock), t.opCount, t.pending.kind)
		default:
			line = fmt.Sprintf("  thread %d (%s): clock %d, running",
				t.id, t.name, uint64(t.clock))
		}
		lines = append(lines, line)
	}
	if br := e.blockageReport(); br != "" {
		lines = append(lines, br)
	}
	return strings.Join(lines, "\n")
}

// findCycle returns one cycle in the waits-for graph, if any, ending with
// the thread that closes it. The result is deterministic: starts are
// probed in thread-id order and the cycle is rotated so its lowest-id
// thread comes first, so blockage reports (and their golden tests) never
// depend on map iteration order.
func findCycle(edges map[*Thread]*Thread) []*Thread {
	starts := make([]*Thread, 0, len(edges))
	for start := range edges {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].id < starts[j].id })
	for _, start := range starts {
		seen := map[*Thread]int{}
		var path []*Thread
		t := start
		for t != nil {
			if i, ok := seen[t]; ok {
				return canonicalCycle(append(path[i:], t))
			}
			seen[t] = len(path)
			path = append(path, t)
			t = edges[t]
		}
	}
	return nil
}

// canonicalCycle rotates a cycle (whose last element repeats the first)
// so the lowest-id thread leads.
func canonicalCycle(c []*Thread) []*Thread {
	if len(c) < 2 {
		return c
	}
	ring := c[:len(c)-1] // drop the closing repeat
	min := 0
	for i, t := range ring {
		if t.id < ring[min].id {
			min = i
		}
	}
	out := make([]*Thread, 0, len(c))
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(min+i)%len(ring)])
	}
	return append(out, ring[min])
}
