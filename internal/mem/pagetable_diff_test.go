package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// The differential test: two address spaces — one over the production
// radix page table, one over the map-backed reference implementation —
// execute identical randomized mmap/munmap/protect/translate/store/load
// sequences. Every observable must match at every step: operation results,
// PTE contents, RSS and physical footprints, minor-fault and syscall
// counters, TLB hit/miss totals, and full page-table walks. This is the
// proof that the radix rewrite changes no simulated statistic.

// diffPair is the two address spaces under comparison plus the mirrored
// auxiliary state the driver needs (live mappings, paired memfds).
type diffPair struct {
	radix, ref *AddressSpace
	fdR, fdM   *Memfd
	// live mappings, as (base page, page count) of successful mmaps.
	mappings []diffMapping
}

type diffMapping struct {
	base Addr
	n    uint64
}

// diffTLBEntries is deliberately small so the sequences exercise CLOCK
// eviction and slot reuse, not just cold inserts.
const diffTLBEntries = 64

func newDiffPair() *diffPair {
	d := &diffPair{
		radix: newAddressSpace(newRadixTable(), NewTLB(diffTLBEntries)),
		ref:   newAddressSpace(newMapTable(), NewTLB(diffTLBEntries)),
	}
	d.fdR = d.radix.NewMemfd("diff")
	d.fdM = d.ref.NewMemfd("diff")
	return d
}

// step applies one random operation to both spaces and asserts the
// immediate results agree. It returns a description of the operation for
// failure messages.
func (d *diffPair) step(t *testing.T, rng *rand.Rand) string {
	t.Helper()
	switch op := rng.Intn(100); {
	case op < 20: // mmap anonymous
		n := uint64(1 + rng.Intn(16))
		pkey := uint8(rng.Intn(16))
		a1, err1 := d.radix.MmapAnon(n, pkey)
		a2, err2 := d.ref.MmapAnon(n, pkey)
		if a1 != a2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("MmapAnon(%d, %d): radix (%s, %v) vs ref (%s, %v)", n, pkey, a1, err1, a2, err2)
		}
		if err1 == nil {
			d.mappings = append(d.mappings, diffMapping{a1, n})
		}
		return fmt.Sprintf("mmapAnon(%d, %d)", n, pkey)

	case op < 28: // mmap shared, sometimes past EOF to hit the rollback path
		filePages := d.fdR.Size() / PageSize
		if rng.Intn(4) == 0 || filePages == 0 {
			grow := (filePages + uint64(1+rng.Intn(4))) * PageSize
			if err1, err2 := d.fdR.Truncate(grow), d.fdM.Truncate(grow); (err1 == nil) != (err2 == nil) {
				t.Fatalf("Truncate(%d): radix %v vs ref %v", grow, err1, err2)
			}
			filePages = d.fdR.Size() / PageSize
		}
		off := uint64(rng.Intn(int(filePages))) * PageSize
		// Overshooting the file size by up to 2 pages exercises the
		// partial-failure rollback (later pages fail frameAt).
		n := uint64(1 + rng.Intn(int(filePages-off/PageSize)+2))
		pkey := uint8(rng.Intn(16))
		a1, err1 := d.radix.MmapShared(d.fdR, off, n, pkey)
		a2, err2 := d.ref.MmapShared(d.fdM, off, n, pkey)
		if a1 != a2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("MmapShared(off=%d, n=%d): radix (%s, %v) vs ref (%s, %v)", off, n, a1, err1, a2, err2)
		}
		if err1 == nil {
			d.mappings = append(d.mappings, diffMapping{a1, n})
		}
		return fmt.Sprintf("mmapShared(off=%d, n=%d, pkey=%d) -> err=%v", off, n, pkey, err1)

	case op < 38: // munmap a live mapping (or a bogus address)
		if len(d.mappings) == 0 || rng.Intn(8) == 0 {
			bogus := Addr(rng.Uint64() &^ PageMask)
			err1 := d.radix.Munmap(bogus, 1)
			err2 := d.ref.Munmap(bogus, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("Munmap(bogus %s): radix %v vs ref %v", bogus, err1, err2)
			}
			return "munmap(bogus)"
		}
		i := rng.Intn(len(d.mappings))
		m := d.mappings[i]
		err1 := d.radix.Munmap(m.base, m.n)
		err2 := d.ref.Munmap(m.base, m.n)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Munmap(%s, %d): radix %v vs ref %v", m.base, m.n, err1, err2)
		}
		d.mappings = append(d.mappings[:i], d.mappings[i+1:]...)
		return fmt.Sprintf("munmap(%s, %d)", m.base, m.n)

	case op < 50: // protect a byte range of a live mapping
		if len(d.mappings) == 0 {
			return "protect(skipped)"
		}
		m := d.mappings[rng.Intn(len(d.mappings))]
		span := m.n * PageSize
		start := uint64(rng.Intn(int(span)))
		size := 1 + uint64(rng.Intn(int(span-start)))
		pkey := uint8(rng.Intn(16))
		err1 := d.radix.Protect(m.base+Addr(start), size, pkey)
		err2 := d.ref.Protect(m.base+Addr(start), size, pkey)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Protect(%s+%d, %d, %d): radix %v vs ref %v", m.base, start, size, pkey, err1, err2)
		}
		return fmt.Sprintf("protect(%s+%d, %d, %d)", m.base, start, size, pkey)

	case op < 85: // translate (mapped or unmapped)
		var addr Addr
		if len(d.mappings) > 0 && rng.Intn(8) != 0 {
			m := d.mappings[rng.Intn(len(d.mappings))]
			addr = m.base + Addr(rng.Intn(int(m.n*PageSize)))
		} else {
			addr = Addr(rng.Uint64())
		}
		p1, miss1, minor1, err1 := d.radix.Translate(addr)
		p2, miss2, minor2, err2 := d.ref.Translate(addr)
		if miss1 != miss2 || minor1 != minor2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("Translate(%s): radix (miss=%v minor=%v err=%v) vs ref (miss=%v minor=%v err=%v)",
				addr, miss1, minor1, err1, miss2, minor2, err2)
		}
		if err1 == nil {
			comparePTE(t, addr, p1, p2)
		}
		return fmt.Sprintf("translate(%s)", addr)

	default: // store/load round trip through the data channel
		if len(d.mappings) == 0 {
			return "store(skipped)"
		}
		m := d.mappings[rng.Intn(len(d.mappings))]
		span := m.n * PageSize
		start := uint64(rng.Intn(int(span)))
		size := 1 + uint64(rng.Intn(minInt(128, int(span-start))))
		buf := make([]byte, size)
		rng.Read(buf)
		err1 := d.radix.Store(m.base+Addr(start), buf)
		err2 := d.ref.Store(m.base+Addr(start), buf)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Store(%s+%d, %d): radix %v vs ref %v", m.base, start, size, err1, err2)
		}
		got1 := make([]byte, size)
		got2 := make([]byte, size)
		if err := d.radix.Load(m.base+Addr(start), got1); err != nil {
			t.Fatalf("radix Load: %v", err)
		}
		if err := d.ref.Load(m.base+Addr(start), got2); err != nil {
			t.Fatalf("ref Load: %v", err)
		}
		if string(got1) != string(got2) {
			t.Fatalf("Load(%s+%d) disagrees between tables", m.base, start)
		}
		return fmt.Sprintf("store/load(%s+%d, %d)", m.base, start, size)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// comparePTE asserts two PTEs describe the same mapping (frame identity by
// ID — the pools are distinct objects but allocate in the same order).
func comparePTE(t *testing.T, addr Addr, a, b *PTE) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("PTE presence for %s: radix %v vs ref %v", addr, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	var fa, fb FrameID
	if a.Frame != nil {
		fa = a.Frame.ID()
	}
	if b.Frame != nil {
		fb = b.Frame.ID()
	}
	if a.Pkey != b.Pkey || a.touched != b.touched || fa != fb || a.backOff != b.backOff ||
		(a.backing == nil) != (b.backing == nil) {
		t.Fatalf("PTE for %s: radix {pkey=%d touched=%v frame=%d backOff=%d} vs ref {pkey=%d touched=%v frame=%d backOff=%d}",
			addr, a.Pkey, a.touched, fa, a.backOff, b.Pkey, b.touched, fb, b.backOff)
	}
}

// compareState asserts every aggregate statistic and the full page-table
// contents agree.
func (d *diffPair) compareState(t *testing.T) {
	t.Helper()
	r, m := d.radix, d.ref
	type agg struct {
		name   string
		rv, mv uint64
	}
	aggs := []agg{
		{"MappedPages", uint64(r.MappedPages()), uint64(m.MappedPages())},
		{"ResidentPages", r.ResidentPages(), m.ResidentPages()},
		{"ResidentBytes", r.ResidentBytes(), m.ResidentBytes()},
		{"PhysicalBytes", r.PhysicalBytes(), m.PhysicalBytes()},
		{"PeakResidentBytes", r.PeakResidentBytes(), m.PeakResidentBytes()},
		{"PeakPhysicalBytes", r.PeakPhysicalBytes(), m.PeakPhysicalBytes()},
		{"MinorFaults", r.MinorFaults, m.MinorFaults},
		{"MmapCalls", r.MmapCalls, m.MmapCalls},
		{"MunmapCalls", r.MunmapCalls, m.MunmapCalls},
		{"ProtectCalls", r.ProtectCalls, m.ProtectCalls},
		{"TLBHits", r.TLB().Hits(), m.TLB().Hits()},
		{"TLBMisses", r.TLB().Misses(), m.TLB().Misses()},
	}
	for _, a := range aggs {
		if a.rv != a.mv {
			t.Fatalf("%s: radix %d vs ref %d", a.name, a.rv, a.mv)
		}
	}
	// Full page-table walk: identical pages in identical order with
	// identical entries.
	type row struct {
		p   Page
		pte *PTE
	}
	var rows []row
	r.pages.walk(func(p Page, pte *PTE) bool {
		rows = append(rows, row{p, pte})
		return true
	})
	i := 0
	m.pages.walk(func(p Page, pte *PTE) bool {
		if i >= len(rows) {
			t.Fatalf("ref table has extra page %d", p)
		}
		if rows[i].p != p {
			t.Fatalf("walk order diverges at %d: radix page %d vs ref page %d", i, rows[i].p, p)
		}
		comparePTE(t, p.Base(), rows[i].pte, pte)
		i++
		return true
	})
	if i != len(rows) {
		t.Fatalf("radix table has %d extra pages", len(rows)-i)
	}
	// Protect semantics: the per-key page sets agree for every key.
	for k := 0; k < 16; k++ {
		pr, pm := r.PagesWithKey(uint8(k)), m.PagesWithKey(uint8(k))
		if len(pr) != len(pm) {
			t.Fatalf("PagesWithKey(%d): radix %d pages vs ref %d pages", k, len(pr), len(pm))
		}
		for j := range pr {
			if pr[j] != pm[j] {
				t.Fatalf("PagesWithKey(%d)[%d]: radix %d vs ref %d", k, j, pr[j], pm[j])
			}
		}
	}
}

// TestPageTableDifferential is the radix ≡ map proof: ≥10k randomized
// operations per seed across several seeds, with aggregate state compared
// periodically and the complete table contents at every checkpoint.
func TestPageTableDifferential(t *testing.T) {
	const (
		opsPerSeed = 12000
		checkpoint = 1500
	)
	for _, seed := range []int64{1, 2, 3, 42, 20260806} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := newDiffPair()
			var last string
			for i := 0; i < opsPerSeed; i++ {
				last = d.step(t, rng)
				if i%checkpoint == checkpoint-1 {
					d.compareState(t)
				}
			}
			_ = last
			d.compareState(t)
		})
	}
}

// TestPageTableSpareLeafReuse drives both tables through the churn the
// radix table's spare leaf exists for: empty a leaf completely, then map
// into a different 8192-page region, which must reuse the emptied leaf.
// The reused leaf must carry nothing over — every PTE, presence bit and
// statistic agrees with the map reference.
func TestPageTableSpareLeafReuse(t *testing.T) {
	d := newDiffPair()
	rt := d.radix.pages.(*radixTable)
	mmap := func(f func(as *AddressSpace, fd *Memfd) (Addr, error)) Addr {
		t.Helper()
		a1, err1 := f(d.radix, d.fdR)
		a2, err2 := f(d.ref, d.fdM)
		if err1 != nil || err2 != nil || a1 != a2 {
			t.Fatalf("radix (%s, %v) vs ref (%s, %v)", a1, err1, a2, err2)
		}
		return a1
	}
	both := func(f func(as *AddressSpace) error) {
		t.Helper()
		if err1, err2 := f(d.radix), f(d.ref); err1 != nil || err2 != nil {
			t.Fatalf("radix %v, ref %v", err1, err2)
		}
	}
	if err1, err2 := d.fdR.Truncate(4*PageSize), d.fdM.Truncate(4*PageSize); err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Fill part of one leaf with anonymous and shared pages, touch and
	// retag them, then unmap them all.
	anon := mmap(func(as *AddressSpace, _ *Memfd) (Addr, error) { return as.MmapAnon(5, 3) })
	shared := mmap(func(as *AddressSpace, fd *Memfd) (Addr, error) { return as.MmapShared(fd, PageSize, 2, 7) })
	for _, a := range []Addr{anon, anon + 4*PageSize, shared + PageSize} {
		both(func(as *AddressSpace) error { return as.Store(a+8, []byte("stale")) })
		both(func(as *AddressSpace) error { return as.Protect(a, 1, 9) })
	}
	d.compareState(t)
	p := PageOf(anon)
	leaf := rt.root[p>>(3*radixBits)].kids[(p>>(2*radixBits))&radixMask].kids[(p>>radixBits)&radixMask]
	both(func(as *AddressSpace) error { return as.Munmap(anon, 5) })
	both(func(as *AddressSpace) error { return as.Munmap(shared, 2) })
	if rt.spare != leaf {
		t.Fatal("emptied leaf was not kept as the spare")
	}
	d.compareState(t)

	// Jump the bump pointer into the next region: its first insert takes
	// the spare.
	next := (p>>radixBits + 1) << radixBits
	d.radix.nextPage, d.ref.nextPage = next+100, next+100
	a := mmap(func(as *AddressSpace, fd *Memfd) (Addr, error) { return as.MmapShared(fd, 0, 3, 4) })
	if rt.spare != nil {
		t.Fatal("insert into a new region did not take the spare leaf")
	}
	both(func(as *AddressSpace) error { return as.Store(a+PageSize, []byte("fresh")) })
	b := mmap(func(as *AddressSpace, _ *Memfd) (Addr, error) { return as.MmapAnon(2, 0) })
	for _, addr := range []Addr{a, a + 2*PageSize, b, b + PageSize, next.Base(), (next + 99).Base(), anon} {
		p1, miss1, minor1, err1 := d.radix.Translate(addr)
		p2, miss2, minor2, err2 := d.ref.Translate(addr)
		if miss1 != miss2 || minor1 != minor2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("Translate(%s): radix (miss=%v minor=%v err=%v) vs ref (miss=%v minor=%v err=%v)",
				addr, miss1, minor1, err1, miss2, minor2, err2)
		}
		if err1 == nil {
			comparePTE(t, addr, p1, p2)
		}
	}
	d.compareState(t)
}

// TestMmapSharedRollbackRestoresReservation pins the partial-failure
// contract: when a later page of a MAP_SHARED range fails, the pages
// already mapped are unwound and the address-space reservation is given
// back, so the next mapping lands where it would have without the failure.
func TestMmapSharedRollbackRestoresReservation(t *testing.T) {
	as := NewAddressSpace(0)
	f := as.NewMemfd("heap")
	if err := f.Truncate(PageSize); err != nil {
		t.Fatal(err)
	}
	before := as.MappedPages()
	// Two pages from a one-page file: page 0 maps, page 1 fails frameAt.
	if _, err := as.MmapShared(f, 0, 2, 3); err == nil {
		t.Fatal("mapping past EOF should fail")
	}
	if got := as.MappedPages(); got != before {
		t.Fatalf("failed mmap left %d pages mapped, want %d", got, before)
	}
	a1, err := as.MmapAnon(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	as2 := NewAddressSpace(0)
	a2, err := as2.MmapAnon(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("reservation not rolled back: next mapping at %s, want %s", a1, a2)
	}
}
