package mem

// DefaultTLBEntries is the default dTLB capacity. The Xeon Silver 4110 of
// the evaluation machine has a 64-entry L1 dTLB and a 1536-entry L2 STLB
// for 4 KiB pages; a single flat structure of the combined size is a
// standard first-order model and is what the miss-rate column of Table 3
// responds to. The two-level set-associative geometry itself is modeled
// by SetAssocTLB, selectable via sim.Config.TLBModel.
const DefaultTLBEntries = 1536

// TLBModel is the interface every dTLB model implements. The CLOCK TLB is
// the default (its hit/miss sequences pin the golden outputs); SetAssocTLB
// models the physical two-level geometry.
type TLBModel interface {
	// Lookup returns the cached translation for p, or nil on a miss,
	// charging the hit/miss counters.
	Lookup(p Page) *PTE
	// Insert caches a translation after a miss, evicting if full.
	Insert(p Page, pte *PTE)
	// Invalidate drops the translation for p (on munmap).
	Invalidate(p Page)
	// Hits returns the number of translations served from the TLB.
	Hits() uint64
	// Misses returns the number of translations that required a page walk.
	Misses() uint64
	// MissRate returns misses / (hits + misses), or 0 before any
	// translation.
	MissRate() float64
	// ResetCounters zeroes the hit/miss counters without dropping
	// translations.
	ResetCounters()
}

// TLB is a first-order dTLB model: a fixed capacity of page → entry slots
// with CLOCK (second-chance) replacement. CLOCK approximates LRU closely
// at a fraction of the bookkeeping cost, which matters because every
// simulated access translates through it.
//
// The implementation is allocation-free at steady state: the page → slot
// directory is an open-addressed, array-backed index (no Go map, no
// hashing through the runtime), fronted by a most-recently-used slot hint
// that serves the overwhelmingly common translate-the-same-page-again case
// in a handful of instructions. Every replacement decision is identical to
// the original map-backed CLOCK implementation — only the directory
// changed — so hit/miss sequences, and therefore every golden statistic,
// are preserved bit-for-bit.
type TLB struct {
	capacity int
	slots    []tlbSlot
	hand     int
	// mru is the slot index of the most recent hit or insert. The fast
	// path validates it against the requested page, so a stale hint
	// (evicted or reused slot) falls through to the index — no explicit
	// invalidation is needed.
	mru int
	idx tlbIndex

	hits   uint64
	misses uint64
}

type tlbSlot struct {
	page    Page
	pte     *PTE
	used    bool
	present bool
}

// NewTLB returns a TLB with the given capacity (0 selects
// DefaultTLBEntries).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBEntries
	}
	t := &TLB{
		capacity: capacity,
		slots:    make([]tlbSlot, capacity),
		mru:      -1,
	}
	t.idx.init(capacity)
	return t
}

// Lookup returns the cached translation for p, or nil on a miss. Hit/miss
// counters feed the dTLB-miss-rate column of Table 3.
func (t *TLB) Lookup(p Page) *PTE {
	// Fast path: the last slot touched. The bounds-checked uint cast
	// keeps the function inlinable into Translate.
	if m := uint(t.mru); m < uint(len(t.slots)) && t.slots[m].page == p && t.slots[m].present {
		t.hits++
		t.slots[m].used = true
		return t.slots[m].pte
	}
	return t.lookupSlow(p)
}

func (t *TLB) lookupSlow(p Page) *PTE {
	if i := t.idx.get(p); i >= 0 {
		t.hits++
		t.slots[i].used = true
		t.mru = int(i)
		return t.slots[i].pte
	}
	t.misses++
	return nil
}

// Insert caches a translation after a miss, evicting with CLOCK if full.
func (t *TLB) Insert(p Page, pte *PTE) {
	if i := t.idx.get(p); i >= 0 {
		t.slots[i].pte = pte
		t.slots[i].used = true
		return
	}
	for {
		s := &t.slots[t.hand]
		if !s.present {
			break
		}
		if !s.used {
			t.idx.del(s.page)
			s.present = false
			break
		}
		s.used = false
		t.hand = (t.hand + 1) % t.capacity
	}
	t.slots[t.hand] = tlbSlot{page: p, pte: pte, used: true, present: true}
	t.idx.put(p, int32(t.hand))
	t.mru = t.hand
	t.hand = (t.hand + 1) % t.capacity
}

// Invalidate drops the translation for p (on munmap).
func (t *TLB) Invalidate(p Page) {
	if i := t.idx.get(p); i >= 0 {
		t.slots[i].present = false
		t.slots[i].used = false
		t.idx.del(p)
	}
}

// Hits returns the number of translations served from the TLB.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of translations that required a page walk.
func (t *TLB) Misses() uint64 { return t.misses }

// MissRate returns misses / (hits + misses), or 0 before any translation.
func (t *TLB) MissRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.misses) / float64(total)
}

// ResetCounters zeroes the hit/miss counters without dropping translations.
// The harness calls it after warm-up so steady-state rates are reported.
func (t *TLB) ResetCounters() { t.hits, t.misses = 0, 0 }

// tlbIndex is an open-addressed page → slot directory with linear probing
// and backward-shift deletion (no tombstones, so probe chains never decay).
// It is sized at twice the TLB capacity rounded up to a power of two, so
// the load factor stays at or below one half and probes are short.
type tlbIndex struct {
	mask uint64
	keys []Page
	vals []int32 // slot index, or -1 for an empty cell
}

func (ix *tlbIndex) init(capacity int) {
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	ix.mask = uint64(size - 1)
	ix.keys = make([]Page, size)
	ix.vals = make([]int32, size)
	for i := range ix.vals {
		ix.vals[i] = -1
	}
}

// hashPage spreads page numbers across the index. Pages from the bump
// allocator are sequential, so a multiplicative mix is enough.
func hashPage(p Page) uint64 {
	x := uint64(p) * 0x9e3779b97f4a7c15
	return x ^ (x >> 32)
}

func (ix *tlbIndex) get(p Page) int32 {
	h := hashPage(p) & ix.mask
	for {
		v := ix.vals[h]
		if v < 0 {
			return -1
		}
		if ix.keys[h] == p {
			return v
		}
		h = (h + 1) & ix.mask
	}
}

func (ix *tlbIndex) put(p Page, slot int32) {
	h := hashPage(p) & ix.mask
	for ix.vals[h] >= 0 {
		if ix.keys[h] == p {
			ix.vals[h] = slot
			return
		}
		h = (h + 1) & ix.mask
	}
	ix.keys[h] = p
	ix.vals[h] = slot
}

func (ix *tlbIndex) del(p Page) {
	h := hashPage(p) & ix.mask
	for {
		if ix.vals[h] < 0 {
			return // not present
		}
		if ix.keys[h] == p {
			break
		}
		h = (h + 1) & ix.mask
	}
	// Backward-shift the probe chain into the hole so that every
	// remaining key stays reachable from its ideal position.
	hole := h
	for {
		h = (h + 1) & ix.mask
		if ix.vals[h] < 0 {
			break
		}
		ideal := hashPage(ix.keys[h]) & ix.mask
		// The element at h may fill the hole only if its probe path
		// from ideal passes through the hole.
		if (h-ideal)&ix.mask >= (h-hole)&ix.mask {
			ix.keys[hole] = ix.keys[h]
			ix.vals[hole] = ix.vals[h]
			hole = h
		}
	}
	ix.vals[hole] = -1
}
