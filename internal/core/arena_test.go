package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestObjectArenaStablePointers: the arena hands out pointers that must stay
// valid (same identity) however many objects are created after them — the
// migration protocol ships and compares *Object across nodes.
func TestObjectArenaStablePointers(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProgram()
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	n := rt.Node(0)

	total := 10 * slabLen[Object]()
	refs := make([]Ref, total)
	ptrs := make([]*Object, total)
	for i := 0; i < total; i++ {
		refs[i] = n.NewObject(&cellState{v: int64(i)})
		ptrs[i] = n.Object(refs[i])
	}
	for i := 0; i < total; i++ {
		obj := n.Object(refs[i])
		if obj != ptrs[i] {
			t.Fatalf("object %d moved: %p -> %p", i, ptrs[i], obj)
		}
		if got := obj.State.(*cellState).v; got != int64(i) {
			t.Fatalf("object %d state = %d", i, got)
		}
		if obj.Ref != refs[i] {
			t.Fatalf("object %d ref = %v, want %v", i, obj.Ref, refs[i])
		}
	}
	// Slab-adjacent objects must be distinct storage.
	ptrs[3].fwdTo = 99
	if ptrs[2].fwdTo == 99 || ptrs[4].fwdTo == 99 {
		t.Fatal("adjacent arena objects share storage")
	}
}

// TestObjectLayout pins the compact object: at most 160 bytes, with the
// fields every invocation reads (localObject/entry, the lock check, stub
// forwarding) packed into the first 32 bytes.
func TestObjectLayout(t *testing.T) {
	var o Object
	if size := unsafe.Sizeof(o); size > 160 {
		t.Errorf("Object is %d bytes, want <= 160", size)
	}
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"Ref", unsafe.Offsetof(o.Ref), unsafe.Sizeof(o.Ref)},
		{"State", unsafe.Offsetof(o.State), unsafe.Sizeof(o.State)},
		{"locked", unsafe.Offsetof(o.locked), unsafe.Sizeof(o.locked)},
		{"away", unsafe.Offsetof(o.away), unsafe.Sizeof(o.away)},
		{"lost", unsafe.Offsetof(o.lost), unsafe.Sizeof(o.lost)},
		{"fwdTo", unsafe.Offsetof(o.fwdTo), unsafe.Sizeof(o.fwdTo)},
	}
	for _, f := range hot {
		if end := f.off + f.size; end > 32 {
			t.Errorf("hot field %s spans bytes [%d, %d), want within the first 32", f.name, f.off, end)
		}
	}
}

// TestObjectFootprint: an object costs its compact struct plus its table
// slot, nothing more — no checkpoint record unless checkpointing runs, and
// no per-node slab waste beyond the last slab's tail. 65,536 objects
// sharing one state value must allocate at most 192 bytes each.
func TestObjectFootprint(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewProgram()
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	n := rt.Node(0)
	shared := &cellState{}

	const total = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < total; i++ {
		n.NewObject(shared)
	}
	runtime.ReadMemStats(&after)
	perObject := float64(after.TotalAlloc-before.TotalAlloc) / total
	if perObject > 192 {
		t.Fatalf("%.1f bytes allocated per object, want <= 192", perObject)
	}
	if got := n.Resident(); got != total {
		t.Fatalf("resident = %d, want %d", got, total)
	}
}

// TestObjectArenaSlabSize: a slab costs its byte budget and no more — the
// object count leaves room for the allocator's header, so the slab lands on
// its size class instead of rounding up to the next one. The 1/64 slack
// absorbs the runtime's own occasional allocations inside the window (GC
// worker set-up); rounding up a class costs over a kilobyte per slab.
func TestObjectArenaSlabSize(t *testing.T) {
	const slabs = 256
	var a slab[Object]
	per := slabLen[Object]()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < slabs*per; i++ {
		a.alloc()
	}
	runtime.ReadMemStats(&after)
	if perSlab := (after.TotalAlloc - before.TotalAlloc) / slabs; perSlab > slabBytes+slabBytes/64 {
		t.Fatalf("a slab of %d objects allocates %d bytes, want about %d", per, perSlab, slabBytes)
	}
}
