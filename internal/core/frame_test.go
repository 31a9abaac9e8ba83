package core

import (
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestRecycledFrameArgsZeroed: one pooled frame is checked out in turn for
// methods of different shapes, with fewer, as many or more args than the
// method declares. Every activation dirties its whole slab and fill mask
// before release, and after every checkout the slab holds exactly the
// method's words, each zero except the supplied args, and no future is
// determined. The shapes shrink and then grow again inside the slab's
// capacity, so words a larger activation left past a smaller one's end must
// be cleared too.
func TestRecycledFrameArgsZeroed(t *testing.T) {
	shapes := []struct {
		nargs, nlocals, nfut int
		args                 []Word
	}{
		{3, 0, 0, []Word{7, 8, 9}},
		{3, 0, 0, []Word{1}},
		{3, 0, 0, nil},
		{1, 1, 4, []Word{5}},
		{0, 0, 0, nil},
		{2, 3, 64, []Word{4, 4, 4}},
		{0, 2, 1, nil},
		{4, 0, 2, []Word{1, 2}},
		{1, 5, 0, []Word{6}},
	}
	var p framePool
	var prev *Frame
	for i, s := range shapes {
		m := &Method{Name: "shape", NArgs: s.nargs, NLocals: s.nlocals, NFutures: s.nfut}
		fr := p.checkout(m, nil, NilRef, s.args)
		if prev != nil && fr != prev {
			t.Fatalf("shape %d: pool did not recycle the released frame", i)
		}
		prev = fr
		if got, want := len(fr.words), s.nargs+s.nlocals+s.nfut; got != want {
			t.Fatalf("shape %d: slab holds %d words, want %d", i, got, want)
		}
		for j, w := range fr.words {
			var want Word
			if j < s.nargs && j < len(s.args) {
				want = s.args[j]
			}
			if w != want {
				t.Fatalf("shape %d: slab word %d = %#x after checkout, want %#x (slab %v)", i, j, w, want, fr.words)
			}
		}
		if fr.full != 0 {
			t.Fatalf("shape %d: fill mask %#x after checkout, want 0", i, fr.full)
		}
		all := fr.words[:cap(fr.words)]
		for j := range all {
			all[j] = 0xdead
		}
		fr.full = ^uint64(0)
		p.release(fr)
	}
	if p.Allocs != 1 || p.Live != 0 {
		t.Fatalf("pool: %d allocations, %d live; want 1 and 0", p.Allocs, p.Live)
	}
}

// TestFrameRegionBounds: each accessor checks its index against its own
// region of the slab, so one past the end of a region panics instead of
// reading or writing the next region's first word, or the spare capacity a
// recycled slab keeps past the last one. Reading an empty future and
// determining a slot twice panic too, and none of the refused accesses
// changes the frame.
func TestFrameRegionBounds(t *testing.T) {
	m := &Method{Name: "bounds", NArgs: 2, NLocals: 2, NFutures: 2}
	var p framePool
	p.release(p.checkout(&Method{Name: "wide", NFutures: 16}, nil, NilRef, nil))
	fr := p.checkout(m, nil, NilRef, []Word{1, 2})
	fr.SetLocal(0, 3)
	fr.SetLocal(1, 4)
	fr.fill(0, 5)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Arg(NArgs)", func() { fr.Arg(2) }},
		{"Arg(-1)", func() { fr.Arg(-1) }},
		{"Local(NLocals)", func() { fr.Local(2) }},
		{"SetLocal(NLocals)", func() { fr.SetLocal(2, 9) }},
		{"Fut(NFutures)", func() { fr.Fut(2) }},
		{"FutFull(NFutures)", func() { fr.FutFull(2) }},
		{"ClearFut(NFutures)", func() { fr.ClearFut(2) }},
		{"landed(NFutures)", func() { fr.landed(2) }},
		{"fill(NFutures)", func() { fr.fill(2, 9) }},
		{"Fut of an empty slot", func() { fr.Fut(1) }},
		{"a second fill", func() { fr.fill(0, 9) }},
	} {
		if !panics(c.f) {
			t.Errorf("%s did not panic", c.name)
		}
	}
	want := []Word{1, 2, 3, 4, 5, 0}
	for j, w := range fr.words {
		if w != want[j] {
			t.Fatalf("slab after the refused accesses = %v, want %v", fr.words, want)
		}
	}
	if fr.full != 1 || !fr.landed(0) || fr.landed(1) {
		t.Fatalf("fill mask after the refused accesses = %#b, want 1", fr.full)
	}

	fr.waiting, fr.touch = true, Mask(1)
	if !panics(func() { fr.ClearFut(1) }) {
		t.Error("ClearFut of a slot the frame waits on did not panic")
	}
	fr.waiting, fr.touch = false, 0
	p.release(fr)
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestFrameFootprint: a heap context costs its 128-byte frame plus one slab
// of its method's words, nothing more. Contexts shaped like sor.compute
// (1 local and 4 futures, a 40-byte slab in the 48-byte size class)
// allocate at most 176 bytes each, and contexts of a method with no words
// at most 128: the frame alone. As in TestObjectArenaSlabSize, a 1/64 slack
// absorbs the runtime's own allocations inside the window; rounding either
// allocation up a size class costs at least 16 bytes per context.
func TestFrameFootprint(t *testing.T) {
	for _, c := range []struct {
		m     *Method
		limit float64
	}{
		{&Method{Name: "compute", NLocals: 1, NFutures: 4}, 176},
		{&Method{Name: "get"}, 128},
	} {
		p := NewProgram()
		p.Add(c.m)
		if err := p.Resolve(Interfaces3); err != nil {
			t.Fatal(err)
		}
		rt := NewRT(sim.NewEngine(1), machine.CM5(), p, ParallelOnly())
		n := rt.Node(0)
		self := n.NewObject(nil)

		const total = 1 << 12
		frames := make([]*Frame, 0, total)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < total; i++ {
			frames = append(frames, rt.newHeapFrame(n, c.m, self, nil, Cont{}))
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / total; per > c.limit+c.limit/64 {
			t.Errorf("%s: %.1f bytes allocated per heap context, want about %.0f", c.m.Name, per, c.limit)
		}
		runtime.KeepAlive(frames)
	}
}

// TestWakeRuleMatchesCounter: the fill-mask wake rule agrees with the join
// counter it replaced. The counter model: TouchAll sets join to the number
// of touched slots still empty, and each fill of a touched slot decrements
// it, waking the frame at zero; TouchJoin waits for the outstanding
// JoinDiscard replies alone. Random rounds on a 64-future frame pre-fill
// random slots, touch a random mask and then fill it in random order,
// interleaving fills and ClearFut of untouched slots, and join replies,
// while the frame waits; other rounds park in TouchJoin and interleave
// stray slot fills and clears with the join replies. After every step the
// frame is waiting exactly when the model says, and once it wakes every
// determined slot reads the value the model holds.
func TestWakeRuleMatchesCounter(t *testing.T) {
	p := NewProgram()
	m := p.Add(&Method{Name: "wake", NFutures: 64, MayBlockLocal: true})
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(1), machine.CM5(), p, ParallelOnly())
	n := rt.Node(0)
	self := n.NewObject(nil)
	rng := rand.New(rand.NewSource(1995))

	var vals [64]Word
	var full uint64
	fill := func(fr *Frame, s int) {
		vals[s] = Word(rng.Uint64())
		full |= 1 << uint(s)
		rt.deliverLocal(n, Cont{Fr: fr, Slot: int32(s), Node: int32(n.ID)}, vals[s], false)
	}
	clearSlot := func(fr *Frame, s int) {
		full &^= 1 << uint(s)
		fr.ClearFut(s)
	}
	// pick returns a random slot of set, which must not be empty.
	pick := func(set uint64) int {
		k := rng.Intn(bits.OnesCount64(set))
		for ; k > 0; k-- {
			set &= set - 1
		}
		return bits.TrailingZeros64(set)
	}
	const rounds = 3000
	woken := 0
	for round := 0; round < rounds; round++ {
		fr := n.pool.checkout(m, n, self, nil)
		full = 0
		for pre := rng.Uint64() & rng.Uint64(); pre != 0; pre &= pre - 1 {
			fill(fr, bits.TrailingZeros64(pre))
		}
		var touch uint64
		join := 0
		if round%4 == 3 {
			join = 1 + rng.Intn(6)
			fr.joinOut = int32(join)
			if rt.TouchJoin(fr) {
				t.Fatalf("round %d: TouchJoin with %d replies outstanding did not wait", round, join)
			}
		} else {
			fr.joinOut = int32(rng.Intn(3))
			touch = rng.Uint64() & rng.Uint64()
			join = bits.OnesCount64(touch &^ full)
			if ready := rt.TouchAll(fr, touch); ready != (join == 0) {
				t.Fatalf("round %d: TouchAll(%#x) with %d touched slots empty returned %v", round, touch, join, ready)
			}
		}
		for step := 0; join > 0; step++ {
			if !fr.waiting || n.runq.len() != 0 {
				t.Fatalf("round %d step %d: frame woke (waiting %v, %d runnable) with %d fills still due",
					round, step, fr.waiting, n.runq.len(), join)
			}
			joinReply := Cont{Fr: fr, Slot: JoinDiscard, Node: int32(n.ID)}
			switch r := rng.Intn(4); {
			case r == 0 && touch == 0:
				rt.deliverLocal(n, joinReply, 0, false)
				join--
			case r == 0:
				fill(fr, pick(touch&^full))
				join--
			case r == 1 && ^touch&^full != 0:
				fill(fr, pick(^touch&^full))
			case r == 2 && full&^touch != 0:
				clearSlot(fr, pick(full&^touch))
			case r == 3 && touch != 0 && fr.joinOut > 0:
				rt.deliverLocal(n, joinReply, 0, false)
			}
		}
		if fr.waiting {
			t.Fatalf("round %d: frame still waiting after its last due fill (touch %#x, full %#x)", round, touch, fr.full)
		}
		if got := n.runq.pop(); got != nil {
			if got != fr || n.runq.len() != 0 {
				t.Fatalf("round %d: run queue holds the wrong frames after the wake", round)
			}
			woken++
		}
		if fr.full != full {
			t.Fatalf("round %d: fill mask %#x, model %#x", round, fr.full, full)
		}
		for s := 0; s < 64; s++ {
			if full&(1<<uint(s)) != 0 && fr.Fut(s) != vals[s] {
				t.Fatalf("round %d: future %d = %#x, model %#x", round, s, fr.Fut(s), vals[s])
			}
		}
		n.pool.release(fr)
	}
	if woken < rounds/2 {
		t.Fatalf("only %d of %d rounds suspended and woke", woken, rounds)
	}
}

// TestResolveFrameShape: Resolve refuses a method whose frame shape the
// slab and its 64-bit fill mask cannot hold, naming the method: a negative
// NArgs, NLocals or NFutures, or more than 64 futures.
func TestResolveFrameShape(t *testing.T) {
	for _, c := range []struct {
		nargs, nlocals, nfut int
		ok                   bool
	}{
		{0, 0, 0, true},
		{3, 2, 64, true},
		{-1, 0, 0, false},
		{0, -1, 0, false},
		{0, 0, -1, false},
		{0, 0, 65, false},
	} {
		p := NewProgram()
		p.Add(&Method{Name: "leaf"})
		p.Add(&Method{Name: "shaped", NArgs: c.nargs, NLocals: c.nlocals, NFutures: c.nfut})
		err := p.Resolve(Interfaces3)
		if c.ok && err != nil {
			t.Errorf("NArgs=%d NLocals=%d NFutures=%d: %v", c.nargs, c.nlocals, c.nfut, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), `"shaped"`)) {
			t.Errorf("NArgs=%d NLocals=%d NFutures=%d: Resolve returned %v, want an error naming the method",
				c.nargs, c.nlocals, c.nfut, err)
		}
	}
}
