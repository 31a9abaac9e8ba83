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

// TestObjectLayout pins the compact object: at most 88 bytes, with the
// fields every invocation reads (localObject/entry, the lock check, stub
// forwarding) packed into the first 32. The migration policy's access
// record lives behind one pointer.
func TestObjectLayout(t *testing.T) {
	var o Object
	if size := unsafe.Sizeof(o); size > 88 {
		t.Errorf("Object is %d bytes, want at most 88", size)
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

// TestFrameLayout holds the activation frame to at most 128 bytes: two
// cache lines and an allocator size class. 8 bytes more and every frame
// rounds up to the 144-byte class.
func TestFrameLayout(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 128 {
		t.Errorf("Frame is %d bytes, want at most 128", size)
	}
}

// TestMsgLayout holds the active message to at most 144 bytes, an
// allocator size class: 8 bytes more and every message rounds up to the
// 160-byte class.
func TestMsgLayout(t *testing.T) {
	if size := unsafe.Sizeof(Msg{}); size > 144 {
		t.Errorf("Msg is %d bytes, want at most 144", size)
	}
}

// TestObjectFootprint: an object costs its compact struct plus its table
// slot, nothing more — no checkpoint record unless checkpointing runs, no
// access record unless a migration policy notes an invocation, and no
// per-node slab waste beyond the last slab's tail. 65,536 objects sharing
// one state value must allocate at most 112 bytes each (88 for the object,
// 16 for the doubling table).
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
	if perObject > 112 {
		t.Fatalf("%.1f bytes allocated per object, want <= 112", perObject)
	}
	if got := n.Resident(); got != total {
		t.Fatalf("resident = %d, want %d", got, total)
	}
}

// TestAccessRecordNil: an object without an access record reads as one
// with no history — no hits, no remote source, nothing to decay or reset.
func TestAccessRecordNil(t *testing.T) {
	o := &Object{wantMove: 3}
	if l, r := o.Hits(); l != 0 || r != 0 {
		t.Fatalf("Hits = (%d, %d), want (0, 0)", l, r)
	}
	o.ForEachRemoteSource(func(node, count int32) {
		t.Fatalf("ForEachRemoteSource visited node %d (count %d) of an empty sketch", node, count)
	})
	o.Decay()
	o.resetEpoch()
	if o.acc != nil {
		t.Fatal("Decay or resetEpoch allocated an access record")
	}
	if o.wantMove != -1 {
		t.Fatalf("resetEpoch left wantMove = %d, want -1", o.wantMove)
	}
}

// TestAccessRecordSlab: under a migration policy an object gets its access
// record on its first noted invocation, from the node's record slab, so
// noting 4096 objects allocates one slab chunk per slabLen records and
// nothing per object. The record then holds the object's history until
// the object settles elsewhere.
func TestAccessRecordSlab(t *testing.T) {
	p := NewProgram()
	cfg := DefaultHybrid()
	cfg.Migration = stillPolicy{}
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(1), machine.CM5(), p, cfg)
	n := rt.Node(0)
	const total = 1 << 12
	objs := make([]*Object, total)
	for i := range objs {
		objs[i] = n.Object(n.NewObject(&cellState{}))
		if objs[i].acc != nil {
			t.Fatalf("object %d has an access record before any invocation", i)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range objs {
		rt.noteAccess(n, o, 5, false)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.Mallocs-before.Mallocs, uint64(total/slabLen[access]()+4); got > limit {
		t.Fatalf("noting %d objects allocates %d times, want at most %d", total, got, limit)
	}

	o := objs[0]
	rt.noteAccess(n, o, 5, false)
	rt.noteAccess(n, o, n.ID, false)
	if l, r := o.Hits(); l != 1 || r != 2 {
		t.Fatalf("Hits after three notes = (%d, %d), want (1, 2)", l, r)
	}
	var srcs [][2]int32
	o.ForEachRemoteSource(func(node, count int32) { srcs = append(srcs, [2]int32{node, count}) })
	if len(srcs) != 1 || srcs[0] != [2]int32{5, 2} {
		t.Fatalf("sketch after notes = %v, want [[5 2]]", srcs)
	}
	o.resetEpoch()
	if l, r := o.Hits(); l != 0 || r != 0 {
		t.Fatalf("Hits after resetEpoch = (%d, %d), want (0, 0)", l, r)
	}
	o.ForEachRemoteSource(func(node, count int32) {
		t.Fatalf("sketch after resetEpoch holds node %d (count %d), want it empty", node, count)
	})
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
