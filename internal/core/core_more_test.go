package core

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// mkEcho registers a trivial NB method replying its argument plus one.
func mkEcho(p *Program, name string) *Method {
	m := &Method{Name: name, NArgs: 1}
	m.Body = func(rt *RT, fr *Frame) Status {
		rt.Reply(fr, IntW(fr.Arg(0).Int()+1))
		return Done
	}
	p.Add(m)
	return m
}

// mkCaller registers a method invoking callee once and replying the result.
func mkCaller(p *Program, name string, callee *Method) *Method {
	m := &Method{Name: name, NArgs: 2, NFutures: 1, MayBlockLocal: true, Calls: []*Method{callee}}
	m.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, callee, fr.Arg(0).Ref(), 0, fr.Arg(1))
			fr.PC = 1
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			rt.Reply(fr, fr.Fut(0))
			return Done
		}
		panic(name + ": bad pc")
	}
	p.Add(m)
	return m
}

// TestWrapperPerSchema: a remote request to each schema class must execute
// through the wrapper with no heap context when it completes on the stack.
func TestWrapperPerSchema(t *testing.T) {
	p := NewProgram()
	nb := mkEcho(p, "w.nb")

	mb := &Method{Name: "w.mb", NArgs: 1, NFutures: 1, MayBlockLocal: true, Calls: []*Method{nb}}
	mb.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, nb, fr.Self, 0, fr.Arg(0))
			fr.PC = 1
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			rt.Reply(fr, fr.Fut(0))
			return Done
		}
		panic("bad pc")
	}
	p.Add(mb)

	cp := &Method{Name: "w.cp", NArgs: 1, Captures: true, Forwards: []*Method{nb}}
	cp.Body = func(rt *RT, fr *Frame) Status {
		return rt.ForwardTail(fr, nb, fr.Self, fr.Arg(0))
	}
	p.Add(cp)

	driver := &Method{Name: "w.driver", NArgs: 4, NFutures: 3, MayBlockLocal: true,
		Calls: []*Method{nb, mb, cp}}
	driver.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			target := fr.Arg(0).Ref()
			if st := rt.Invoke(fr, nb, target, 0, fr.Arg(1)); st == NeedUnwind {
				fr.PC = 1
				return rt.Unwind(fr)
			}
			fr.PC = 1
			fallthrough
		case 1:
			target := fr.Arg(0).Ref()
			if st := rt.Invoke(fr, mb, target, 1, fr.Arg(2)); st == NeedUnwind {
				fr.PC = 2
				return rt.Unwind(fr)
			}
			fr.PC = 2
			fallthrough
		case 2:
			target := fr.Arg(0).Ref()
			if st := rt.Invoke(fr, cp, target, 2, fr.Arg(3)); st == NeedUnwind {
				fr.PC = 3
				return rt.Unwind(fr)
			}
			fr.PC = 3
			fallthrough
		case 3:
			if !rt.TouchAll(fr, Mask(0, 1, 2)) {
				return Unwound
			}
			rt.Reply(fr, IntW(fr.Fut(0).Int()*10000+fr.Fut(1).Int()*100+fr.Fut(2).Int()))
			return Done
		}
		panic("bad pc")
	}
	p.Add(driver)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	if nb.Emitted != SchemaNB || mb.Emitted != SchemaMB || cp.Emitted != SchemaCP {
		t.Fatalf("schemas: nb=%v mb=%v cp=%v", nb.Emitted, mb.Emitted, cp.Emitted)
	}

	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	d := rt.Node(0).NewObject(nil)
	remote := rt.Node(1).NewObject(nil)
	var res Result
	rt.StartOn(0, driver, d, &res, RefW(remote), IntW(1), IntW(2), IntW(3))
	rt.Run()
	if !res.Done {
		t.Fatal("driver did not complete")
	}
	if got := res.Val.Int(); got != 2*10000+3*100+4 {
		t.Fatalf("result = %d, want 20304", got)
	}
	s := rt.TotalStats()
	// Three remote requests (nb, mb, cp) plus the mb wrapper's inner nb call
	// runs locally; all three arrive as wrapper runs.
	if s.WrapperRuns != 3 {
		t.Fatalf("WrapperRuns = %d, want 3", s.WrapperRuns)
	}
	// Node 1 should have created no heap contexts: everything completed on
	// the stack out of the message buffer.
	if n1 := rt.Node(1).Stats.HeapInvokes; n1 != 0 {
		t.Fatalf("remote node created %d heap contexts, want 0", n1)
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestWrappersDisabled: with wrappers off, every arriving request costs a
// heap context even under the hybrid model.
func TestWrappersDisabled(t *testing.T) {
	p := NewProgram()
	nb := mkEcho(p, "wd.nb")
	caller := mkCaller(p, "wd.caller", nb)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHybrid()
	cfg.Wrappers = false
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	d := rt.Node(0).NewObject(nil)
	remote := rt.Node(1).NewObject(nil)
	var res Result
	rt.StartOn(0, caller, d, &res, RefW(remote), IntW(41))
	rt.Run()
	if !res.Done || res.Val.Int() != 42 {
		t.Fatalf("result = %v done=%v", res.Val.Int(), res.Done)
	}
	if got := rt.Node(1).Stats.HeapInvokes; got != 1 {
		t.Fatalf("remote node heap contexts = %d, want 1 (wrappers off)", got)
	}
	if rt.TotalStats().WrapperRuns != 0 {
		t.Fatal("wrappers ran despite being disabled")
	}
}

// TestMaxStackDepthForcesHeap: with depth 0 no speculation happens at all.
func TestMaxStackDepthForcesHeap(t *testing.T) {
	p := NewProgram()
	fib := buildFib(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHybrid()
	cfg.MaxStackDepth = -1 // clamped to default? no: <=0 becomes 1024 in NewRT
	rt, v := runSingle(t, p, cfg, fib, IntW(10))
	if v.Int() != nativeFib(10) {
		t.Fatalf("fib = %d", v.Int())
	}
	_ = rt

	cfg.MaxStackDepth = 1
	rt2, v2 := runSingle(t, p, cfg, fib, IntW(10))
	if v2.Int() != nativeFib(10) {
		t.Fatalf("fib = %d", v2.Int())
	}
	s := rt2.TotalStats()
	if s.HeapInvokes < 10 {
		t.Fatalf("depth-1 run should create many heap contexts, got %d", s.HeapInvokes)
	}
	if s.StackCalls == 0 {
		t.Fatal("depth-1 run should still make first-level stack calls")
	}
}

// TestFutureDoubleFillPanics: determining a future twice is a programming
// error the runtime must catch.
func TestFutureDoubleFillPanics(t *testing.T) {
	p := NewProgram()
	bad := &Method{Name: "bad", NFutures: 1}
	bad.Body = func(rt *RT, fr *Frame) Status {
		caught := int64(0)
		func() {
			defer func() {
				if r := recover(); r != nil && strings.Contains(r.(string), "determined twice") {
					caught = 1
				}
			}()
			c := Cont{Fr: fr, Slot: 0, Node: int32(fr.Node.ID)}
			rt.DeliverCont(fr.Node, c, IntW(1), false)
			rt.DeliverCont(fr.Node, c, IntW(2), false)
		}()
		rt.Reply(fr, IntW(caught))
		return Done
	}
	p.Add(bad)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	_, v := runSingle(t, p, DefaultHybrid(), bad)
	if v.Int() != 1 {
		t.Fatal("double fill was not caught")
	}
}

// TestClearFutAllowsSlotReuse: clearing a consumed future slot lets a loop
// reuse it across iterations.
func TestClearFutAllowsSlotReuse(t *testing.T) {
	p := NewProgram()
	leaf := mkEcho(p, "r.leaf")
	loop := &Method{Name: "r.loop", NArgs: 1, NFutures: 1, NLocals: 2,
		MayBlockLocal: true, Calls: []*Method{leaf}}
	loop.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := fr.Local(0).Int()
				if i >= fr.Arg(0).Int() {
					break
				}
				fr.SetLocal(0, IntW(i+1))
				fr.ClearFut(0)
				st := rt.Invoke(fr, leaf, fr.Self, 0, fr.Local(1))
				if st == NeedUnwind {
					return rt.Unwind(fr)
				}
				if fr.FutFull(0) {
					fr.SetLocal(1, fr.Fut(0))
				} else {
					// Async issue: wait, then continue the loop.
					fr.PC = 2
					if !rt.TouchAll(fr, Mask(0)) {
						return Unwound
					}
					fr.SetLocal(1, fr.Fut(0))
					fr.PC = 1
				}
			}
			rt.Reply(fr, fr.Local(1))
			return Done
		case 2:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			fr.SetLocal(1, fr.Fut(0))
			fr.PC = 1
			return loop.Body(rt, fr)
		}
		panic("bad pc")
	}
	p.Add(loop)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultHybrid(), ParallelOnly()} {
		_, v := runSingle(t, p, cfg, loop, IntW(5))
		if v.Int() != 5 {
			t.Fatalf("hybrid=%v: loop result = %d, want 5", cfg.Hybrid, v.Int())
		}
	}
}

// TestDeadlockDetection: a program that waits on a future nobody determines
// leaves live frames; CheckQuiescence must report it.
func TestDeadlockDetection(t *testing.T) {
	p := NewProgram()
	stuck := &Method{Name: "stuck", NFutures: 1, MayBlockLocal: true}
	stuck.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			rt.Reply(fr, 0)
			return Done
		}
		panic("bad pc")
	}
	p.Add(stuck)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	rt := NewRT(eng, machine.SPARCStation(), p, DefaultHybrid())
	self := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, stuck, self, &res)
	rt.Run()
	if res.Done {
		t.Fatal("deadlocked program completed?!")
	}
	err := rt.CheckQuiescence()
	if err == nil {
		t.Fatal("CheckQuiescence missed the stuck frame")
	}
	if !strings.Contains(err.Error(), "live frames") {
		t.Fatalf("unexpected diagnostic: %v", err)
	}
	if rt.LiveFrames() != 1 {
		t.Fatalf("LiveFrames = %d, want 1", rt.LiveFrames())
	}
}

// TestMultipleRoots: several root invocations run to completion and the
// frame pool drains.
func TestMultipleRoots(t *testing.T) {
	p := NewProgram()
	fib := buildFib(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(4)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	var results [4]Result
	for i := 0; i < 4; i++ {
		self := rt.Node(i).NewObject(nil)
		rt.StartOn(i, fib, self, &results[i], IntW(int64(8+i)))
	}
	rt.Run()
	for i := range results {
		if !results[i].Done || results[i].Val.Int() != nativeFib(int64(8+i)) {
			t.Fatalf("root %d: %+v", i, results[i])
		}
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestInterfaceRestrictionCosts: the same program costs strictly more under
// more general emitted schemas.
func TestInterfaceRestrictionCosts(t *testing.T) {
	run := func(set SchemaSet) sim.Time {
		p := NewProgram()
		fib := buildFib(p)
		if err := p.Resolve(set); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultHybrid()
		cfg.Interfaces = set
		rt, v := runSingle(t, p, cfg, fib, IntW(14))
		if v.Int() != nativeFib(14) {
			t.Fatalf("fib wrong under %v", set)
		}
		return rt.Eng.MaxClock()
	}
	t1, t2, t3 := run(Interfaces1), run(Interfaces2), run(Interfaces3)
	if !(t1 > t2 && t2 >= t3) {
		t.Fatalf("interface restriction costs not ordered: 1if=%d 2if=%d 3if=%d", t1, t2, t3)
	}
}

// TestLockTransferFIFO: three lockers serialize in arrival order.
func TestLockTransferFIFO(t *testing.T) {
	p := NewProgram()
	type logState struct {
		order []int64
		cell  Ref
	}
	get := mkEcho(p, "lt.get")
	locker := &Method{Name: "lt.locker", NArgs: 1, NFutures: 1, Locks: true,
		MayBlockLocal: true, Calls: []*Method{get}}
	locker.Body = func(rt *RT, fr *Frame) Status {
		st := fr.Node.State(fr.Self).(*logState)
		switch fr.PC {
		case 0:
			// Suspend while holding the lock (remote call).
			s := rt.Invoke(fr, get, st.cell, 0, fr.Arg(0))
			fr.PC = 1
			if s == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			st.order = append(st.order, fr.Arg(0).Int())
			rt.Reply(fr, 0)
			return Done
		}
		panic("bad pc")
	}
	p.Add(locker)
	driver := &Method{Name: "lt.driver", NArgs: 1, NLocals: 1, MayBlockLocal: true, Calls: []*Method{locker}}
	driver.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := fr.Local(0).Int()
				if i >= 3 {
					break
				}
				fr.SetLocal(0, IntW(i+1))
				if st := rt.Invoke(fr, locker, fr.Arg(0).Ref(), JoinDiscard, IntW(i)); st == NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return Unwound
			}
			rt.Reply(fr, 0)
			return Done
		}
		panic("bad pc")
	}
	p.Add(driver)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	st := &logState{}
	target := rt.Node(0).NewObject(st)
	st.cell = rt.Node(1).NewObject(nil)
	d := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, driver, d, &res, RefW(target))
	rt.Run()
	if !res.Done {
		t.Fatal("driver incomplete")
	}
	if len(st.order) != 3 || st.order[0] != 0 || st.order[1] != 1 || st.order[2] != 2 {
		t.Fatalf("lock order = %v, want [0 1 2]", st.order)
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestReplyToNilContinuationIsDiscarded: purely reactive computations reply
// into a discarded continuation without error (the NB-wrapper check of
// Figure 8).
func TestReplyToNilContinuationIsDiscarded(t *testing.T) {
	p := NewProgram()
	var ran bool
	leaf := &Method{Name: "n.leaf"}
	leaf.Body = func(rt *RT, fr *Frame) Status {
		ran = true
		rt.Reply(fr, IntW(99))
		return Done
	}
	p.Add(leaf)
	fire := &Method{Name: "n.fire", NArgs: 1, Calls: []*Method{leaf}, MayBlockLocal: true}
	fire.Body = func(rt *RT, fr *Frame) Status {
		// Invoke with a discarded continuation: a one-way send.
		dest := fr.Arg(0).Ref()
		rt.sendRequest(fr.Node, leaf, dest, nil, Cont{}, int(dest.Node))
		rt.Reply(fr, 0)
		return Done
	}
	p.Add(fire)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	d := rt.Node(0).NewObject(nil)
	remote := rt.Node(1).NewObject(nil)
	var res Result
	rt.StartOn(0, fire, d, &res, RefW(remote))
	rt.Run()
	if !res.Done || !ran {
		t.Fatal("reactive send did not execute")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestFramePoolReuse: pool recycling keeps allocations bounded while live
// counts return to zero.
func TestFramePoolReuse(t *testing.T) {
	p := NewProgram()
	fib := buildFib(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	rt := NewRT(eng, machine.SPARCStation(), p, DefaultHybrid())
	self := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, fib, self, &res, IntW(18))
	rt.Run()
	n := rt.Node(0)
	if n.pool.Live != 0 {
		t.Fatalf("live frames = %d, want 0", n.pool.Live)
	}
	// fib(18) performs thousands of invocations; the pool must have
	// recycled, keeping true allocations near the peak stack depth.
	if n.pool.Allocs > 100 {
		t.Fatalf("pool allocated %d frames; recycling broken", n.pool.Allocs)
	}
}

// TestEmitMapping: interface sets emit the cheapest allowed schema.
func TestEmitMapping(t *testing.T) {
	cases := []struct {
		set      SchemaSet
		required Schema
		want     Schema
	}{
		{Interfaces3, SchemaNB, SchemaNB},
		{Interfaces3, SchemaMB, SchemaMB},
		{Interfaces3, SchemaCP, SchemaCP},
		{Interfaces2, SchemaNB, SchemaMB},
		{Interfaces2, SchemaMB, SchemaMB},
		{Interfaces1, SchemaNB, SchemaCP},
		{Interfaces1, SchemaMB, SchemaCP},
	}
	for _, c := range cases {
		if got := c.set.Emit(c.required); got != c.want {
			t.Errorf("Emit(%v under %b) = %v, want %v", c.required, c.set, got, c.want)
		}
	}
}
