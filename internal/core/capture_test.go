package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// buildCaptureProgram: `cap` captures its continuation, stashes it in the
// target object, and a later `kick` determines it — the user-defined
// synchronization pattern of Section 3.3, exercising all three lazy
// continuation-creation cases of Section 3.2.3.
type mailbox struct {
	conts []Cont
}

func buildCaptureProgram(p *Program) (caller, cap, kick *Method) {
	cap = &Method{Name: "cap.cap", Captures: true}
	cap.Body = func(rt *RT, fr *Frame) Status {
		mb := fr.Node.State(fr.Self).(*mailbox)
		mb.conts = append(mb.conts, rt.CaptureCont(fr))
		return Forwarded
	}
	p.Add(cap)

	kick = &Method{Name: "cap.kick", NArgs: 1}
	kick.Body = func(rt *RT, fr *Frame) Status {
		mb := fr.Node.State(fr.Self).(*mailbox)
		for _, c := range mb.conts {
			rt.DeliverCont(fr.Node, c, fr.Arg(0), false)
		}
		mb.conts = nil
		rt.Reply(fr, IntW(int64(len(mb.conts))))
		return Done
	}
	p.Add(kick)

	caller = &Method{Name: "cap.caller", NArgs: 2, NFutures: 2,
		MayBlockLocal: true, Calls: []*Method{cap, kick}}
	caller.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			// The capture target may be local (stack CP call: our context
			// does not exist yet — case 3) or remote (wrapper proxy context
			// — case 1).
			st := rt.Invoke(fr, cap, fr.Arg(0).Ref(), 0)
			fr.PC = 1
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			st := rt.Invoke(fr, kick, fr.Arg(0).Ref(), 1, fr.Arg(1))
			fr.PC = 2
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 2:
			if !rt.TouchAll(fr, Mask(0, 1)) {
				return Unwound
			}
			rt.Reply(fr, fr.Fut(0))
			return Done
		}
		panic("bad pc")
	}
	p.Add(caller)
	return caller, cap, kick
}

// TestCaptureLocalStackCaller: case 3 of Section 3.2.3 — neither the
// caller's context nor the continuation exists; capture must materialize
// both (promoting the caller), and delivery later must wake it.
func TestCaptureLocalStackCaller(t *testing.T) {
	p := NewProgram()
	caller, cap, _ := buildCaptureProgram(p)
	// outer stack-invokes caller, so when cap captures, the frame holding
	// the future (caller) is an unpromoted stack frame — case 3.
	outer := &Method{Name: "cap.outer", NArgs: 2, NFutures: 1,
		MayBlockLocal: true, Calls: []*Method{caller}}
	outer.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, caller, fr.Self, 0, fr.Arg(0), fr.Arg(1))
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
	p.Add(outer)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	if cap.Required != SchemaCP {
		t.Fatalf("cap schema = %v, want CP", cap.Required)
	}
	eng := sim.NewEngine(1)
	rt := NewRT(eng, machine.SPARCStation(), p, DefaultHybrid())
	box := rt.Node(0).NewObject(&mailbox{})
	driver := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, outer, driver, &res, RefW(box), IntW(99))
	rt.Run()
	if !res.Done || res.Val.Int() != 99 {
		t.Fatalf("captured continuation delivered %v done=%v, want 99", res.Val.Int(), res.Done)
	}
	// The stack caller had to be promoted when its continuation was
	// materialized.
	if rt.TotalStats().Fallbacks == 0 {
		t.Fatal("expected the capture to promote the stack caller")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureViaWrapperProxy: case 1 — the invocation arrived in a message,
// so the continuation already exists in the proxy context and capture just
// extracts it.
func TestCaptureViaWrapperProxy(t *testing.T) {
	p := NewProgram()
	caller, _, _ := buildCaptureProgram(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	box := rt.Node(1).NewObject(&mailbox{}) // remote: cap runs via wrapper
	driver := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, caller, driver, &res, RefW(box), IntW(7))
	rt.Run()
	if !res.Done || res.Val.Int() != 7 {
		t.Fatalf("wrapper-proxy capture delivered %v done=%v, want 7", res.Val.Int(), res.Done)
	}
	if rt.TotalStats().WrapperRuns == 0 {
		t.Fatal("cap should have run from the message buffer")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureHeapCaller: case 2 — the caller's context exists (parallel
// mode); only the continuation itself is created.
func TestCaptureHeapCaller(t *testing.T) {
	p := NewProgram()
	caller, _, _ := buildCaptureProgram(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	rt := NewRT(eng, machine.SPARCStation(), p, ParallelOnly())
	box := rt.Node(0).NewObject(&mailbox{})
	driver := rt.Node(0).NewObject(nil)
	var res Result
	rt.StartOn(0, caller, driver, &res, RefW(box), IntW(13))
	rt.Run()
	if !res.Done || res.Val.Int() != 13 {
		t.Fatalf("heap-caller capture delivered %v done=%v, want 13", res.Val.Int(), res.Done)
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessors covers the small read-only API surface.
func TestAccessors(t *testing.T) {
	p := NewProgram()
	fib := buildFib(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	if len(p.Methods()) != 1 {
		t.Fatal("Methods broken")
	}
	if !fib.MayBlock() {
		t.Fatal("fib must be transitively may-block")
	}
	for s, want := range map[Schema]string{SchemaNB: "NB", SchemaMB: "MB", SchemaCP: "CP"} {
		if s.String() != want {
			t.Fatalf("Schema.String(%d) = %q", s, s.String())
		}
	}
	if (Cont{}).IsNil() == false {
		t.Fatal("zero Cont must be nil")
	}
	if FloatW(2.25).Float() != 2.25 || !BoolW(true).Bool() || BoolW(false).Bool() {
		t.Fatal("word helpers broken")
	}
	eng := sim.NewEngine(1)
	rt := NewRT(eng, machine.SPARCStation(), p, DefaultHybrid())
	if rt.Node(0).LiveFrames() != 0 {
		t.Fatal("fresh node has live frames")
	}
	ref := rt.Node(0).NewObject("s")
	if rt.Node(0).Object(ref).State != "s" {
		t.Fatal("Object lookup broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("remote Object access must panic")
		}
	}()
	rt.Node(0).Object(Ref{Node: 1, Index: 0})
}

// TestFramePromotedAccessor: Promoted flips exactly at fallback.
func TestFramePromotedAccessor(t *testing.T) {
	p := NewProgram()
	probe := &Method{Name: "probe", NArgs: 1, NFutures: 1, MayBlockLocal: true}
	var sawBefore, sawAfter bool
	get := &Method{Name: "probe.get"}
	get.Body = func(rt *RT, fr *Frame) Status {
		rt.Reply(fr, 1)
		return Done
	}
	p.Add(get)
	probe.Calls = []*Method{get}
	probe.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			sawBefore = fr.Promoted()
			st := rt.Invoke(fr, get, fr.Arg(0).Ref(), 0)
			fr.PC = 1
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, Mask(0)) {
				return Unwound
			}
			sawAfter = fr.Promoted()
			rt.Reply(fr, fr.Fut(0))
			return Done
		}
		panic("bad pc")
	}
	p.Add(probe)
	driver := mkCaller(p, "probe.driver", probe)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	d := rt.Node(0).NewObject(nil)
	target := rt.Node(0).NewObject(nil)
	cell := rt.Node(1).NewObject(nil)
	var res Result
	// driver(targetObj, cellRef): probe runs as a speculative stack call on
	// target, then is promoted by the remote get.
	rt.StartOn(0, driver, d, &res, RefW(target), RefW(cell))
	rt.Run()
	if !res.Done || res.Val.Int() != 1 {
		t.Fatalf("incomplete or wrong: %+v", res)
	}
	if sawBefore {
		t.Error("stack frame reported promoted before any fallback")
	}
	if !sawAfter {
		t.Error("frame should report promoted after its fallback")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}
