package sim

import (
	"fmt"
	"io"
	"sync"

	"kard/internal/alloc"
	"kard/internal/cycles"
)

// Tracer is a Detector decorator that logs every execution event to a
// writer while forwarding to an inner detector (which may be nil for
// trace-only runs). It powers the kardtrace debugging tool.
//
// A Tracer-driven run always executes on the scalar path: the decorator
// implements the SerialOnly marker, which makes Engine.New force
// ExecModeSerial whatever Config.ExecMode asked for. Under batch mode
// OnAccess fires at drain time instead of at the Read/Write call
// sites, so the logged timeline would interleave batch replays with the
// operations that triggered them — technically the same detector-event
// order, but not the narrative the tool's users read. The log method is
// additionally mutex-guarded so a misuse that bypasses Engine.New cannot
// corrupt the event counter.
type Tracer struct {
	Inner Detector
	W     io.Writer
	// Limit stops logging (but not forwarding) after this many events;
	// 0 means unlimited.
	Limit int

	mu sync.Mutex
	n  int
}

// NewTracer wraps inner (nil → Baseline) with event logging to w.
func NewTracer(inner Detector, w io.Writer, limit int) *Tracer {
	if inner == nil {
		inner = NewBaseline()
	}
	return &Tracer{Inner: inner, W: w, Limit: limit}
}

// SerialOnly marks the Tracer as requiring ExecModeSerial; Engine.New
// checks for the method and forces the scalar path.
func (tr *Tracer) SerialOnly() {}

func (tr *Tracer) log(t *Thread, format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.n++
	if tr.Limit > 0 && tr.n > tr.Limit {
		if tr.n == tr.Limit+1 {
			fmt.Fprintf(tr.W, "... (trace limit %d reached)\n", tr.Limit)
		}
		return
	}
	prefix := ""
	if t != nil {
		prefix = fmt.Sprintf("[%12d] t%-2d ", t.Now(), t.ID())
	}
	fmt.Fprintf(tr.W, prefix+format+"\n", args...)
}

func (tr *Tracer) Name() string    { return "trace(" + tr.Inner.Name() + ")" }
func (tr *Tracer) Setup(e *Engine) { tr.Inner.Setup(e) }

func (tr *Tracer) ThreadStarted(t *Thread) {
	tr.Inner.ThreadStarted(t)
	tr.log(t, "start %q", t.Name())
}

func (tr *Tracer) ThreadExited(t *Thread) {
	tr.Inner.ThreadExited(t)
	tr.log(t, "exit")
}

func (tr *Tracer) ThreadSpawned(p, c *Thread) {
	tr.Inner.ThreadSpawned(p, c)
	tr.log(p, "spawn t%d %q", c.ID(), c.Name())
}

func (tr *Tracer) ThreadJoined(j, t *Thread) {
	tr.Inner.ThreadJoined(j, t)
	tr.log(j, "join t%d", t.ID())
}

func (tr *Tracer) ObjectAllocated(t *Thread, o *alloc.Object) cycles.Duration {
	d := tr.Inner.ObjectAllocated(t, o)
	tr.log(t, "malloc %s", o)
	return d
}

func (tr *Tracer) ObjectFreed(t *Thread, o *alloc.Object) cycles.Duration {
	d := tr.Inner.ObjectFreed(t, o)
	tr.log(t, "free %s", o)
	return d
}

func (tr *Tracer) CSEnter(t *Thread, cs *CriticalSection, m *Mutex) cycles.Duration {
	d := tr.Inner.CSEnter(t, cs, m)
	tr.log(t, "enter %s via %s (cost %d)", cs, m, d)
	return d
}

func (tr *Tracer) CSExit(t *Thread, cs *CriticalSection, m *Mutex) cycles.Duration {
	d := tr.Inner.CSExit(t, cs, m)
	tr.log(t, "exit  %s via %s", cs, m)
	return d
}

func (tr *Tracer) OnAccess(a *Access) cycles.Duration {
	d := tr.Inner.OnAccess(a)
	if d > 0 {
		// Only log accesses the detector reacted to (faults,
		// instrumented work) to keep traces readable.
		tr.log(a.Thread, "%-5s %s+%d len %d at %q (detector cost %d)",
			a.Kind, a.Object, a.Offset(), a.Size, a.Site, d)
	}
	return d
}

func (tr *Tracer) BarrierPassed(ts []*Thread) cycles.Duration {
	d := tr.Inner.BarrierPassed(ts)
	if len(ts) > 0 {
		tr.log(ts[0], "barrier (%d threads)", len(ts))
	}
	return d
}

func (tr *Tracer) Finish()       { tr.Inner.Finish() }
func (tr *Tracer) Races() []Race { return tr.Inner.Races() }

var _ Detector = (*Tracer)(nil)
