package core

import (
	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
	"kard/internal/obs"
	"kard/internal/sim"
)

// threadState is Kard's per-thread runtime state: the stack of PKRU values
// pushed at critical section entries (§5.4, Figure 3b) and, under the
// non-ILU extension, the keys claimed outside critical sections.
type threadState struct {
	pkruStack []mpk.PKRU
	claims    []mpk.Pkey
	// softHeld tracks virtual-key holds under the §8 software fallback.
	softHeld map[int]mpk.Perm
}

func tstate(t *sim.Thread) *threadState { return t.DetectorState.(*threadState) }

// sectionState is one row of the section-object map (§5.3): the shared
// objects this critical section has accessed (with the strongest access
// kind seen) and, derived from them, the keys the section needs — K_R(s)
// and K_W(s) of Algorithm 1, encoded as key → needed permission.
type sectionState struct {
	objects    map[alloc.ObjectID]mpk.AccessKind
	keysNeeded map[mpk.Pkey]mpk.AccessKind
	softNeeded map[int]mpk.AccessKind // virtual keys (§8 software fallback)
}

func sectionStateOf(cs *sim.CriticalSection) *sectionState {
	if cs == nil || cs.DetectorState == nil {
		return nil
	}
	return cs.DetectorState.(*sectionState)
}

// sectionLinkMetadataBytes is the RSS charge per section-object map entry.
const sectionLinkMetadataBytes = 48

func (d *Detector) sectionState(cs *sim.CriticalSection) *sectionState {
	if ss := sectionStateOf(cs); ss != nil {
		return ss
	}
	ss := &sectionState{
		objects:    make(map[alloc.ObjectID]mpk.AccessKind),
		keysNeeded: make(map[mpk.Pkey]mpk.AccessKind),
		softNeeded: make(map[int]mpk.AccessKind),
	}
	cs.DetectorState = ss
	return ss
}

// noteObject records in the section-object map that cs accessed os with
// the given kind (Algorithm 1 lines 17–18 and 25–26), returning the
// bookkeeping cost.
func (d *Detector) noteObject(cs *sim.CriticalSection, os *objState, kind mpk.AccessKind) cycles.Duration {
	if cs == nil {
		return 0
	}
	ss := d.sectionState(cs)
	prev, known := ss.objects[os.obj.ID]
	if !known {
		d.eng.Space().ChargeMetadata(sectionLinkMetadataBytes)
	}
	if !known || kind == mpk.Write && prev == mpk.Read {
		ss.objects[os.obj.ID] = kind
	}
	if os.domain == DomainReadWrite && !os.soft {
		if need, ok := ss.keysNeeded[os.key]; !ok || kind == mpk.Write && need == mpk.Read {
			ss.keysNeeded[os.key] = kind
		}
		d.key(os.key).sections[cs] = struct{}{}
	}
	return cycles.MapUpdate
}

// ThreadStarted implements sim.Detector: a fresh thread holds the default
// key (hardware), k14 read-only, and k15 read-write; every Read-write
// domain key is denied (§5.2).
func (d *Detector) ThreadStarted(t *sim.Thread) {
	t.PKRU = mpk.DenyAll().
		With(KeyRO, mpk.PermRead).
		With(KeyNA, mpk.PermRW)
	t.DetectorState = &threadState{softHeld: make(map[int]mpk.Perm)}
}

// ThreadExited implements sim.Detector.
func (d *Detector) ThreadExited(t *sim.Thread) {
	d.releaseClaims(t)
}

// ThreadSpawned implements sim.Detector. Kard needs no spawn edges: its
// detection state lives in keys, not clocks.
func (d *Detector) ThreadSpawned(parent, child *sim.Thread) {}

// ThreadJoined implements sim.Detector.
func (d *Detector) ThreadJoined(joiner, target *sim.Thread) {}

// ObjectAllocated implements sim.Detector: every new sharable object —
// heap or global — enters the Not-accessed domain under k15 (§5.2). This
// is the pkey_mprotect invoked at object allocation that §7.2 identifies
// as a linear cost in the number of sharable objects.
func (d *Detector) ObjectAllocated(t *sim.Thread, o *alloc.Object) cycles.Duration {
	os := d.state(o)
	os.domain = DomainNotAccessed
	return d.protect(o, KeyNA)
}

// ObjectFreed implements sim.Detector: drop tracking state; the key, if
// any, stops protecting the object.
func (d *Detector) ObjectFreed(t *sim.Thread, o *alloc.Object) cycles.Duration {
	os := stateOf(o)
	if os == nil {
		return 0
	}
	if os.domain == DomainReadWrite && !os.unprotected && !os.soft {
		d.keyObjDelete(os.key, o.ID)
	}
	delete(d.pending, os)
	delete(d.unprot, os)
	o.DetectorState = nil
	d.eng.Space().ChargeMetadata(-objStateMetadataBytes)
	return cycles.MapUpdate
}

// CSEnter implements sim.Detector: push the thread's current key set,
// retract k15 so unidentified sharable objects trap (§5.3), and
// proactively acquire the keys the section is known to need (§5.4,
// Algorithm 1 lines 2–6).
func (d *Detector) CSEnter(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	ts := tstate(t)
	cost := d.releaseClaims(t) // a lock is a synchronization point
	ts.pkruStack = append(ts.pkruStack, t.PKRU)
	t.PKRU = t.PKRU.With(KeyNA, mpk.PermNone)

	// The map lookup and key-section checks run under Kard's internal
	// synchronization (§5.4).
	cost += d.serialize(t, cycles.MapLookup)
	ss := d.sectionState(cs)
	for k, need := range ss.keysNeeded {
		cost += cycles.AtomicOp // key-section map check (Figure 3b step 2)
		want := mpk.PermRead
		if need == mpk.Write {
			want = mpk.PermRW
		}
		if d.tryAcquire(t, k, want) {
			d.counts.ProactiveAcquires++
		} else if want == mpk.PermRW {
			// Fall back to shared read if someone holds the key.
			if d.tryAcquire(t, k, mpk.PermRead) {
				d.counts.ProactiveAcquires++
			}
		}
	}
	cost += d.proactiveSoft(t, cs)
	if d.opts.DisableProactive {
		// Ablation: undo the acquisitions, keeping only the k15
		// retraction, so every object re-access faults.
		old := ts.pkruStack[len(ts.pkruStack)-1]
		d.releaseDiff(t, t.PKRU, old, cs, m)
		t.PKRU = old.With(KeyNA, mpk.PermNone)
	}
	// One WRPKRU installs the section-entry PKRU; the counter mirrors
	// the cycle charge on the next line.
	obs.Std.MpkWRPKRU.Inc()
	return cost + cycles.WRPKRU + cycles.WrapperCall
}

// CSExit implements sim.Detector: release the keys acquired at or during
// the section by popping the saved key set, timestamp the release with
// RDTSCP (§5.4), and resolve interleavings waiting on this thread.
func (d *Detector) CSExit(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	ts := tstate(t)
	n := len(ts.pkruStack)
	old := ts.pkruStack[n-1]
	ts.pkruStack = ts.pkruStack[:n-1]
	d.releaseDiff(t, t.PKRU, old, cs, m)
	t.PKRU = old
	obs.Std.MpkWRPKRU.Inc()
	cost := cycles.WRPKRU + cycles.RDTSCP + cycles.WrapperCall
	cost += d.serialize(t, cycles.AtomicOp+cycles.RDTSCP) // release timestamps under the runtime lock
	if len(t.Sections) == 0 {
		cost += d.releaseSoft(t, cs, m)
	}
	cost += d.sectionExitInterleaves(t)
	return cost
}

// OnAccess implements sim.Detector: the MPK access check. Permitted
// accesses cost nothing — the hardware performs the check — while denied
// accesses raise #GP and enter Kard's fault handler (§5.5).
func (d *Detector) OnAccess(a *sim.Access) cycles.Duration {
	pte, ok := d.eng.Space().Peek(a.Addr)
	if !ok {
		return 0
	}
	if f := mpk.Check(a.Thread.PKRU, pte, a.Addr, a.Kind); f != nil {
		f.TID = a.Thread.ID()
		f.IP = a.Site
		f.Time = a.Thread.Now()
		return d.handleFault(a, f)
	}
	return 0
}

// EpochCheck implements sim.EpochDetector: an access is epoch-safe exactly
// when the MPK check would not fault — the hardware-permitted path of
// OnAccess is pure and free, which is the whole point of Kard (§5.2). The
// thread's PKRU and the page's key cannot change inside an epoch (both are
// only written by synchronization and allocation hooks, which the engine
// excludes), so a no-fault verdict here still holds at commit time.
func (d *Detector) EpochCheck(a *sim.Access) bool {
	pte, ok := d.eng.Space().Peek(a.Addr)
	if !ok {
		return true // OnAccess returns 0 without observing anything
	}
	return mpk.Check(a.Thread.PKRU, pte, a.Addr, a.Kind) == nil
}

// EpochCost implements sim.EpochDetector: permitted accesses cost nothing.
func (d *Detector) EpochCost(a *sim.Access) cycles.Duration { return 0 }

var _ sim.EpochDetector = (*Detector)(nil)

// BarrierPassed implements sim.Detector: barriers are synchronization
// points for the non-ILU extension's claims.
func (d *Detector) BarrierPassed(ts []*sim.Thread) cycles.Duration {
	var cost cycles.Duration
	for _, t := range ts {
		cost += d.releaseClaims(t)
	}
	return cost
}

// releaseClaims drops the keys a thread claimed outside critical sections
// under the non-ILU extension (§8).
func (d *Detector) releaseClaims(t *sim.Thread) cycles.Duration {
	ts, ok := t.DetectorState.(*threadState)
	if !ok || len(ts.claims) == 0 {
		return 0
	}
	now := t.Now()
	for _, k := range ts.claims {
		ks := d.key(k)
		p, held := ks.holders[t]
		if !held {
			continue
		}
		if p == mpk.PermRW {
			ks.lastRWRelease = now
			ks.everRWReleased = true
		}
		delete(ks.holders, t)
		ks.lastRelease = now
		ks.everReleased = true
		ks.lastHolderTID = t.ID()
		ks.lastHolderSite = "<outside section>"
		ks.lastHolderSection = nil
		ks.lastHolderMutex = nil
		t.PKRU = t.PKRU.With(k, mpk.PermNone)
	}
	ts.claims = ts.claims[:0]
	obs.Std.MpkWRPKRU.Inc()
	return cycles.WRPKRU
}
