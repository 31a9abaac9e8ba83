package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTraceCapturesExecutionShape: the trace of a two-node run must show
// the hybrid model's signature events in the quantities NodeStats counts.
// The forward case tail-forwards once to a local object and once to a
// remote one: a forward is an invocation, traced like one.
func TestTraceCapturesExecutionShape(t *testing.T) {
	t.Run("fib", func(t *testing.T) {
		p := NewProgram()
		fib := buildFib(p)
		rt, buf := tracedRun(t, p)
		self := rt.Node(0).NewObject(nil)
		var res Result
		rt.StartOn(0, fib, self, &res, IntW(12))
		rt.Run()
		if !res.Done {
			t.Fatal("incomplete")
		}
		checkTraceShape(t, rt, buf)
	})
	t.Run("forward", func(t *testing.T) {
		p := NewProgram()
		root, _, _ := buildForwardChain(p)
		rt, buf := tracedRun(t, p)
		driver := rt.Node(0).NewObject(nil)
		var local, remote Result
		rt.StartOn(0, root, driver, &local, IntW(20), RefW(rt.Node(0).NewObject(nil)))
		rt.StartOn(0, root, driver, &remote, IntW(20), RefW(rt.Node(1).NewObject(nil)))
		rt.Run()
		if !local.Done || local.Val.Int() != 42 || !remote.Done || remote.Val.Int() != 42 {
			t.Fatalf("results %+v %+v, want 42 twice", local, remote)
		}
		checkTraceShape(t, rt, buf)
	})
}

// tracedRun makes a two-node hybrid runtime for p with a trace buffer.
func tracedRun(t *testing.T, p *Program) (*RT, *trace.Buffer) {
	t.Helper()
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(1 << 18)
	cfg := DefaultHybrid()
	cfg.Tracer = buf
	return NewRT(sim.NewEngine(2), machine.CM5(), p, cfg), buf
}

// checkTraceShape asserts that every counted invocation, stack call,
// fallback, context allocation and suspend was traced, and that each
// node's events are stamped with monotone times.
func checkTraceShape(t *testing.T, rt *RT, buf *trace.Buffer) {
	t.Helper()
	s := rt.TotalStats()
	for _, c := range []struct {
		kind trace.Kind
		want int64
	}{
		{trace.KInvoke, s.Invokes},
		{trace.KStackCall, s.StackCalls},
		{trace.KFallback, s.Fallbacks},
		{trace.KCtxAlloc, s.HeapInvokes},
		{trace.KSuspend, s.Suspends},
	} {
		if got := buf.Count(c.kind); got != c.want {
			t.Errorf("traced %s %d != stats %d", c.kind, got, c.want)
		}
	}
	last := map[int32]Instr{}
	for _, e := range buf.Events() {
		if e.At < last[e.Node] {
			t.Fatalf("node %d trace time went backwards: %d after %d", e.Node, e.At, last[e.Node])
		}
		last[e.Node] = e.At
	}
}

// TestTraceRemoteRun: messages and wrappers appear for a distributed run.
func TestTraceRemoteRun(t *testing.T) {
	p := NewProgram()
	sum, _ := buildRemoteSum(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(0)
	cfg := DefaultHybrid()
	cfg.Tracer = buf
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	driver := rt.Node(0).NewObject(nil)
	a := rt.Node(0).NewObject(&cellState{10})
	b := rt.Node(1).NewObject(&cellState{32})
	var res Result
	rt.StartOn(0, sum, driver, &res, RefW(a), RefW(b))
	rt.Run()
	if !res.Done || res.Val.Int() != 42 {
		t.Fatal("wrong result")
	}
	if buf.Count(trace.KMsgSend) != 2 { // request + reply
		t.Errorf("traced sends = %d, want 2", buf.Count(trace.KMsgSend))
	}
	if buf.Count(trace.KWrapper) != 1 {
		t.Errorf("traced wrappers = %d, want 1", buf.Count(trace.KWrapper))
	}
	per := buf.PerNode(trace.KWrapper)
	if per[1] != 1 {
		t.Errorf("wrapper should have run on node 1: %v", per)
	}
}
