package mem

import "testing"

// BenchmarkTranslateHit measures the TLB fast path — the cost the
// simulator pays on every data access. The zero-allocation invariant here
// is load-bearing: cmd/benchgate fails CI if allocs/op rises above zero or
// ns/op regresses by more than the threshold.
func BenchmarkTranslateHit(b *testing.B) {
	as := NewAddressSpace(0)
	a := mustMmap(b, as, 1, 0)
	if _, _, _, err := as.Translate(a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := as.Translate(a + 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateMiss measures the page-walk path with a thrashing
// working set.
func BenchmarkTranslateMiss(b *testing.B) {
	as := NewAddressSpace(64)
	const pages = 4096
	a := mustMmap(b, as, pages, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := a + Addr((i%pages)*PageSize)
		if _, _, _, err := as.Translate(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLBEvict measures the CLOCK replacement path: a working set one
// page larger than the TLB, walked round-robin, so every translation after
// warm-up misses and every insert sweeps the used bits.
func BenchmarkTLBEvict(b *testing.B) {
	const entries = 64
	as := NewAddressSpace(entries)
	a := mustMmap(b, as, entries+1, 0)
	for i := 0; i <= entries; i++ {
		if _, _, _, err := as.Translate(a + Addr(i*PageSize)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := a + Addr((i%(entries+1))*PageSize)
		if _, _, _, err := as.Translate(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadixWalk measures the ordered full-table walk that Munmap,
// Protect, and PagesWithKey are built on, over a sparse address space
// (three widely separated regions, forcing multi-node traversal).
func BenchmarkRadixWalk(b *testing.B) {
	as := NewAddressSpace(0)
	const regionPages = 512
	for r := 0; r < 3; r++ {
		a := mustMmap(b, as, regionPages, uint8(r))
		// Spread the regions across distinct leaves.
		as.nextPage += Page(3 * radixFan)
		_ = a
	}
	n := 0
	count := func(p Page, pte *PTE) bool {
		n++
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		as.pages.walk(count)
		if n != 3*regionPages {
			b.Fatalf("walk visited %d pages, want %d", n, 3*regionPages)
		}
	}
}

// BenchmarkMmapAnon measures mapping throughput, the per-allocation cost
// of the unique-page allocator's substrate.
func BenchmarkMmapAnon(b *testing.B) {
	as := NewAddressSpace(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.MmapAnon(1, 0)
	}
}

// BenchmarkProtect measures pkey retagging of a mapped page.
func BenchmarkProtect(b *testing.B) {
	as := NewAddressSpace(0)
	a := mustMmap(b, as, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Protect(a, PageSize, uint8(i%16)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMmapMunmapChurn measures the unique-page allocator's
// free-then-malloc churn: each iteration maps one page of an in-memory
// file and unmaps it, so the bump pointer advances through leaf regions
// and every iteration empties the leaf it just populated. The page table
// reuses that leaf for the next region, so the loop must stay at 0
// allocs/op (a fresh leaf per region is 257 KiB).
func BenchmarkMmapMunmapChurn(b *testing.B) {
	as := NewAddressSpace(0)
	f := as.NewMemfd("churn")
	if err := f.Truncate(PageSize); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := as.MmapShared(f, 0, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := as.Munmap(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}
