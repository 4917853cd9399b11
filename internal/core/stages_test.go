package core

// Tests for the three Figure 3 stages — object tracking, domain
// enforcement, race detection — plus edge cases of the key machinery.

import (
	"testing"

	"kard/internal/mpk"
	"kard/internal/sim"
)

// TestFigure3aTracking: the first write inside a section identifies the
// object, migrates it to the Read-write domain, updates the
// section-object map, and grants the key reactively.
func TestFigure3aTracking(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("la")
		oa := m.Malloc(64, "oa")
		m.Lock(mu, "sa")
		m.Write(oa, 0, 8, "write-oa")
		// Inside the section the thread must now hold oa's key
		// read-write (step 5 of Figure 3a).
		os := stateOf(oa)
		if os.domain != DomainReadWrite {
			t.Fatalf("domain = %s", os.domain)
		}
		if m.PKRU.Perm(os.key) != mpk.PermRW {
			t.Error("faulting thread did not acquire the key reactively")
		}
		// Section-object map updated (step 4).
		cs := e.Sections()[0]
		ss := sectionStateOf(cs)
		if ss == nil || ss.objects[oa.ID] != mpk.Write {
			t.Error("section-object map missing the identified object")
		}
		m.Unlock(mu)
		if m.PKRU.Perm(os.key) != mpk.PermNone {
			t.Error("key not released at section exit")
		}
	})
	if det.Counters().ReactiveAcquires == 0 {
		t.Error("reactive acquisition not counted")
	}
}

// TestFigure3bEnforcement: on re-entry the thread proactively acquires
// the section's known keys; a concurrent holder degrades the acquisition
// to read-only.
func TestFigure3bEnforcement(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		oa := m.Malloc(64, "oa")
		// Identify oa in section sa.
		m.Lock(la, "sa")
		m.Write(oa, 0, 8, "w")
		m.Unlock(la)
		key := stateOf(oa).key

		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa") // proactive: acquires oa's key read-write
			if w.PKRU.Perm(key) != mpk.PermRW {
				t.Error("proactive acquisition failed")
			}
			w.Barrier(b)
			w.Compute(100000)
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			// sb never accessed oa, so no proactive acquisition and
			// no conflict either.
			w.Lock(lb, "sb")
			if w.PKRU.Perm(key) != mpk.PermNone {
				t.Error("t2 should not hold sa's key")
			}
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
}

// TestFigure3cDetection: with t2 holding the key for ob, t1's read inside
// a different section faults and the key-section map confirms the race.
func TestFigure3cDetection(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		ob := m.Malloc(64, "ob")
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Lock(lb, "sb")
			w.Write(ob, 0, 8, "wk2-write")
			w.Barrier(b)
			w.Compute(100000)
			w.Unlock(lb)
		})
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(la, "sa")
			w.Read(ob, 0, 8, "rk2-read") // violation (Figure 3c step 2)
			w.Unlock(la)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d", len(st.Races))
	}
	if st.Races[0].OtherSection != "sb" {
		t.Errorf("holder section = %q, want sb", st.Races[0].OtherSection)
	}
	if det.Counters().RaceFaults == 0 {
		t.Error("race-fault counter not bumped")
	}
}

// TestSameMutexHandoffNoFalsePositive: consecutive same-lock sections
// within the fault window must never be misread as races — the lock
// orders them.
func TestSameMutexHandoffNoFalsePositive(t *testing.T) {
	st, _ := newRun(t, 1, Options{DisableProactive: true}, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o := m.Malloc(64, "o")
		var ws []*sim.Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, m.Go("w", func(w *sim.Thread) {
				for j := 0; j < 10; j++ {
					w.Lock(mu, "s")
					w.Write(o, 0, 8, "w") // with proactive off, every write faults
					w.Unlock(mu)
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	})
	if len(st.Races) != 0 {
		t.Fatalf("same-lock handoffs reported as races: %+v", st.Races)
	}
}

// TestReadThenWriteUpgrade: a thread holding a key read-only upgrades to
// read-write on its own write when no one else holds the key.
func TestReadThenWriteUpgrade(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		mu, mu2 := e.NewMutex("a"), e.NewMutex("b")
		o := m.Malloc(64, "o")
		// Put o into the Read-write domain.
		m.Lock(mu, "init")
		m.Write(o, 0, 8, "w")
		m.Unlock(mu)
		key := stateOf(o).key
		// Read then write in another section.
		m.Lock(mu2, "user")
		m.Read(o, 0, 8, "r")
		if m.PKRU.Perm(key) != mpk.PermRead {
			t.Fatalf("perm after read = %s", m.PKRU.Perm(key))
		}
		m.Write(o, 0, 8, "w2")
		if m.PKRU.Perm(key) != mpk.PermRW {
			t.Errorf("perm after write = %s, want rw", m.PKRU.Perm(key))
		}
		m.Unlock(mu2)
	})
	if n := len(det.Races()); n != 0 {
		t.Errorf("upgrade produced %d races", n)
	}
}

// TestRecycledObjectReMigrates: a write to an object whose key was
// recycled to the Read-only domain faults and re-migrates without losing
// accuracy (§5.4).
func TestRecycledObjectReMigrates(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		// Exhaust all 13 keys with one-object sections.
		for i := 0; i < NumRWKeys+1; i++ {
			mu := e.NewMutex(string(rune('a' + i)))
			o := m.Malloc(32, "o")
			m.Lock(mu, "s"+string(rune('a'+i)))
			m.Write(o, 0, 8, "w")
			m.Unlock(mu)
			if i == 0 {
				// Remember the first object; its key gets recycled
				// last-recently-released first.
				e.Detector() // no-op; kept for clarity
			}
		}
	})
	c := det.Counters()
	if c.KeyRecyclingEvents == 0 {
		t.Fatal("no recycling")
	}
	if len(det.Races()) != 0 {
		t.Error("recycling must not create reports")
	}
}

// TestInterleaveInitiatorWritesAgain: the initiating thread faulting a
// second time widens its observed range instead of ending the
// interleaving.
func TestInterleaveInitiatorWidens(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(256, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "w1")
			w.Barrier(b)
			w.Compute(150000)
			w.Write(o, 64, 8, "w1-second") // t1's second access, overlapping range check
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Read(o, 128, 8, "r2") // starts interleaving (candidate race)
			w.Compute(20000)
			w.Write(o, 136, 8, "w2") // initiator faults again: widen
			w.Compute(300000)
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	// t1's second access at offset 64 does not overlap t2's [128,144):
	// the candidate must be pruned.
	if len(st.Races) != 0 {
		t.Fatalf("races = %+v, want pruned", st.Races)
	}
	if det.Counters().PrunedSpurious == 0 {
		t.Error("expected a spurious-prune")
	}
}
