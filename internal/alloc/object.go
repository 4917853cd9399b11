// Package alloc provides the two heap allocators of the reproduction:
//
//   - Native: a compact, glibc-style allocator that packs many objects
//     into each page. It is what Baseline and TSan runs use.
//   - UniquePage: Kard's consolidated unique-page allocator (§5.3, §6).
//     Every object receives unique virtual page(s) so it can be protected
//     independently with MPK, and small objects are consolidated onto
//     shared physical frames through an in-memory file to conserve RSS
//     (Figure 2). Allocations are rounded to multiples of 32 B, one mmap
//     is issued per allocation, and freed virtual pages are not recycled
//     — all three choices follow §6 verbatim, including their costs.
//
// Both allocators register object metadata (base, size, site) in an
// ObjectTable, the allocator-side record of every object Kard's fault
// handler resolves a faulting address to (§5.3).
package alloc

import (
	"fmt"

	"kard/internal/mem"
)

// ObjectID identifies an allocated object for the lifetime of a run.
// IDs are never reused, so a stale reference to a freed object is
// detectable.
type ObjectID uint64

// Object is the metadata record for one sharable object: any heap or
// global object in the program (§2.1).
type Object struct {
	ID     ObjectID
	Base   mem.Addr
	Size   uint64 // requested size in bytes
	Padded uint64 // size actually reserved (rounding + page padding)
	Global bool
	Site   string // allocation site or global name

	// Pages is the object's virtual page span. Under UniquePage the
	// span belongs to this object alone.
	FirstPage mem.Page
	NumPages  uint64

	// DetectorState is per-object scratch for the run's detector (Kard's
	// domain record, TSan's shadow ring, Eraser's candidate lockset),
	// like Thread.DetectorState. An engine runs exactly one detector, so
	// the field needs no key. It is nil until the detector first tracks
	// the object, and the detector's ObjectFreed hook clears it. Host-side
	// bookkeeping only: it never appears in a serialized race report.
	DetectorState any `json:"-"`

	freed bool
}

// Contains reports whether addr falls inside the object's payload.
func (o *Object) Contains(addr mem.Addr) bool {
	return addr >= o.Base && addr < o.Base+mem.Addr(o.Size)
}

// Freed reports whether the object has been deallocated.
func (o *Object) Freed() bool { return o.freed }

func (o *Object) String() string {
	kind := "heap"
	if o.Global {
		kind = "global"
	}
	return fmt.Sprintf("obj#%d(%s %q %dB @%s)", o.ID, kind, o.Site, o.Size, o.Base)
}

// objectMetadataBytes approximates the allocator bookkeeping per object
// (base, size, map slots) charged against simulated RSS. Kard maintains
// this metadata to locate the object for any faulting address (§5.3).
const objectMetadataBytes = 96

// ObjectTable registers every object of a run. It is a dense slice
// indexed by ObjectID: IDs are sequential and never reused, so object i
// lives at objs[i-1] until it is freed, when its slot is set to nil. The
// engine hands detectors the *Object of every access and fault directly,
// so the table needs no address index on the simulation path.
type ObjectTable struct {
	space *mem.AddressSpace
	objs  []*Object // by ID-1; nil once freed
	live  int
	peak  int
}

// NewObjectTable creates an empty table charging metadata to as.
func NewObjectTable(as *mem.AddressSpace) *ObjectTable {
	return &ObjectTable{space: as}
}

// Insert registers a new object and returns it.
func (t *ObjectTable) Insert(base mem.Addr, size, padded uint64, global bool, site string) *Object {
	first, last := mem.PageRange(base, padded)
	o := &Object{
		ID: ObjectID(len(t.objs) + 1), Base: base, Size: size, Padded: padded,
		Global: global, Site: site,
		FirstPage: first, NumPages: uint64(last-first) + 1,
	}
	t.objs = append(t.objs, o)
	t.live++
	if t.live > t.peak {
		t.peak = t.live
	}
	t.space.ChargeMetadata(objectMetadataBytes)
	return o
}

// Remove unregisters o (on free).
func (t *ObjectTable) Remove(o *Object) error {
	if o.freed {
		return fmt.Errorf("alloc: double free of %s", o)
	}
	o.freed = true
	t.objs[o.ID-1] = nil
	t.live--
	t.space.ChargeMetadata(-objectMetadataBytes)
	return nil
}

// Lookup returns the live object containing addr, or nil. The padded
// region counts as part of the object: a fault inside the padding is
// attributed to the object that owns the page, exactly as Kard's
// metadata-based resolution would.
//
// Lookup is diagnostic-only: it scans the table, O(objects ever
// created). The simulation never resolves addresses to objects — every
// access and fault already carries its *Object.
func (t *ObjectTable) Lookup(addr mem.Addr) *Object {
	for _, o := range t.objs {
		if o != nil && addr >= o.Base && addr < o.Base+mem.Addr(o.Padded) {
			return o
		}
	}
	return nil
}

// Get returns the object with the given ID, if live.
func (t *ObjectTable) Get(id ObjectID) *Object {
	if id == 0 || id > ObjectID(len(t.objs)) {
		return nil
	}
	return t.objs[id-1]
}

// Live returns the number of live objects.
func (t *ObjectTable) Live() int { return t.live }

// PeakLive returns the maximum number of simultaneously live objects.
func (t *ObjectTable) PeakLive() int { return t.peak }

// Created returns the total number of objects ever registered — the
// "sharable objects" count of Table 3.
func (t *ObjectTable) Created() uint64 { return uint64(len(t.objs)) }

// ForEach visits all live objects in ascending ObjectID order, which is
// allocation order.
func (t *ObjectTable) ForEach(f func(*Object)) {
	for _, o := range t.objs {
		if o != nil {
			f(o)
		}
	}
}
