package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestMalformedRequestPanics: a request message with no method is a protocol
// violation, not something to limp past — the handler must fail loudly.
func TestMalformedRequestPanics(t *testing.T) {
	p := NewProgram()
	buildFib(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	rt.Node(0).NewObject(nil)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("handleMsg accepted a request with a nil method")
		}
		if !strings.Contains(r.(string), "malformed request") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	rt.handleMsg(rt.Node(0), &Msg{kind: msgRequest, target: Ref{}, from: 0})
}

// TestOversizedMessagePanics: the model does not fragment requests; one
// exceeding DefaultMaxMsgWords is a programming error caught at the sender,
// and one at the limit is sent.
func TestOversizedMessagePanics(t *testing.T) {
	p := NewProgram()
	// The header is 4 words, so this many args fill the limit exactly.
	const fit = DefaultMaxMsgWords - 4
	leaf := &Method{Name: "wideleaf", NArgs: fit + 1}
	leaf.Body = func(rt *RT, fr *Frame) Status {
		rt.Reply(fr, 0)
		return Done
	}
	p.Add(leaf)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	rt.Node(0).NewObject(nil)
	target := rt.Node(1).NewObject(nil)
	rt.sendRequest(rt.Node(0), leaf, target, make([]Word, fit), Cont{}, 1)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sendRequest accepted a message over the size limit")
		}
		if !strings.Contains(r.(string), "oversized message") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	rt.sendRequest(rt.Node(0), leaf, target, make([]Word, fit+1), Cont{}, 1)
}

// TestRemoteRequestParksOnLockedObject drives the wrapper lock path end to
// end: two remote requests race for a locking method; the first runs from
// the message buffer, suspends while holding the lock (the MB wrapper
// fallback), and the second must park as a heap context on the lock and run
// only after the transfer — their effects serialize.
func TestRemoteRequestParksOnLockedObject(t *testing.T) {
	p := NewProgram()
	type counter struct{ v, active, maxActive int64 }

	get := &Method{Name: "mget", NArgs: 0}
	get.Body = func(rt *RT, fr *Frame) Status {
		rt.Reply(fr, IntW(fr.Node.State(fr.Self).(*cellState).v))
		return Done
	}
	p.Add(get)

	slowInc := &Method{Name: "mslowinc", NArgs: 1, NFutures: 1, Locks: true, MayBlockLocal: true,
		Calls: []*Method{get}}
	slowInc.Body = func(rt *RT, fr *Frame) Status {
		c := fr.Node.State(fr.Self).(*counter)
		switch fr.PC {
		case 0:
			c.active++
			if c.active > c.maxActive {
				c.maxActive = c.active
			}
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
			c.v += fr.Fut(0).Int()
			c.active--
			rt.Reply(fr, IntW(c.v))
			return Done
		}
		panic("mslowinc: bad pc")
	}
	p.Add(slowInc)

	driver := &Method{Name: "mlockdriver", NArgs: 2, NFutures: 2, MayBlockLocal: true,
		Calls: []*Method{slowInc}}
	driver.Body = func(rt *RT, fr *Frame) Status {
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, slowInc, fr.Arg(0).Ref(), 0, fr.Arg(1))
			fr.PC = 1
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			st := rt.Invoke(fr, slowInc, fr.Arg(0).Ref(), 1, fr.Arg(1))
			fr.PC = 2
			if st == NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 2:
			if !rt.TouchAll(fr, Mask(0, 1)) {
				return Unwound
			}
			rt.Reply(fr, IntW(fr.Fut(0).Int()+fr.Fut(1).Int()))
			return Done
		}
		panic("mlockdriver: bad pc")
	}
	p.Add(driver)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, DefaultHybrid())
	d := rt.Node(0).NewObject(nil)
	cell := rt.Node(0).NewObject(&cellState{v: 7})
	// The locked counter lives remotely, so both slowInc requests arrive as
	// messages and go through the wrapper's lock check.
	cnt := rt.Node(1).NewObject(&counter{})
	var res Result
	rt.StartOn(0, driver, d, &res, RefW(cnt), RefW(cell))
	rt.Run()
	if !res.Done {
		t.Fatal("driver did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	c := rt.Node(1).State(cnt).(*counter)
	if c.maxActive != 1 {
		t.Fatalf("maxActive = %d: remote lock failed to serialize", c.maxActive)
	}
	if c.v != 14 {
		t.Fatalf("counter = %d, want 14", c.v)
	}
	if res.Val.Int() != 7+14 {
		t.Fatalf("driver result = %d, want 21", res.Val.Int())
	}
	s := rt.TotalStats()
	if s.WrapperRuns == 0 {
		t.Fatal("expected the first remote slowInc to run as a wrapper")
	}
	if s.LockBlocks != 1 {
		t.Fatalf("LockBlocks = %d, want 1 (second request parks on the lock)", s.LockBlocks)
	}
	if s.Suspends == 0 {
		t.Fatal("expected the wrapper to suspend at its touch while holding the lock")
	}
}

// TestWrapperDisabledUsesHeapPath: the same remote traffic with wrappers off
// must allocate heap contexts instead of running from the buffer — the
// counters are how the schema tables tell the two paths apart.
func TestWrapperDisabledUsesHeapPath(t *testing.T) {
	cfg := DefaultHybrid()
	cfg.Wrappers = false
	rt, v := runRemoteSum(t, cfg, false)
	if v.Int() != 42 {
		t.Fatalf("sum = %d, want 42", v.Int())
	}
	s := rt.TotalStats()
	if s.WrapperRuns != 0 {
		t.Fatalf("WrapperRuns = %d, want 0 with wrappers disabled", s.WrapperRuns)
	}
	if s.HeapInvokes == 0 {
		t.Fatal("expected the remote request to allocate a heap context")
	}
}

// warmRemoteSum builds buildRemoteSum on a two-node runtime, with the driver
// on node 0 and both cells on node 1, and returns a function that runs one
// sum (StartOn + Run): two requests from node 0 and two replies back. It
// runs the sum once before returning, so the frame pool, the message free
// lists and the event queue are warm.
func warmRemoteSum(tb testing.TB, cfg Config) func() {
	tb.Helper()
	p := NewProgram()
	sum, _ := buildRemoteSum(p)
	if err := p.Resolve(cfg.Interfaces); err != nil {
		tb.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(2), machine.CM5(), p, cfg)
	driver := rt.Node(0).NewObject(nil)
	a := rt.Node(1).NewObject(&cellState{1})
	c := rt.Node(1).NewObject(&cellState{2})
	var res Result
	run := func() {
		res = Result{}
		rt.StartOn(0, sum, driver, &res, RefW(a), RefW(c))
		rt.Run()
		if !res.Done || res.Val.Int() != 3 {
			tb.Fatalf("sum = %d (done %v), want 3", res.Val.Int(), res.Done)
		}
	}
	run()
	return run
}

// TestRemoteMessagesAllocateNothing: on a warm runtime a request or reply
// costs no host allocation, on the wrapper path and on the heap path. The
// messages come off the nodes' free lists and their deliveries are typed
// events, not closures.
func TestRemoteMessagesAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"hybrid", DefaultHybrid()}, {"parallel-only", ParallelOnly()}} {
		t.Run(tc.name, func(t *testing.T) {
			run := warmRemoteSum(t, tc.cfg)
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("a warm remote sum (4 messages) allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// TestReliableRemoteSumAllocs: a warm reliable remote sum allocates its
// four messages and nothing else. A reliable runtime does not recycle
// messages; everything the reliable layer adds — frames, acks, their
// delivery payloads and the link timers — comes from the nodes' slabs or
// is embedded in the links.
func TestReliableRemoteSumAllocs(t *testing.T) {
	cfg := DefaultHybrid()
	cfg.Reliable = true
	run := warmRemoteSum(t, cfg)
	if allocs := testing.AllocsPerRun(100, run); allocs > 4 {
		t.Fatalf("a warm reliable remote sum (4 messages) allocates %.0f times, want at most 4", allocs)
	}
}

// TestMessageFreeList pins the free list's contract: a consumed message
// comes back from newMsg blank but for its argument capacity, a node keeps
// at most maxFreeMsgs, and a reliable runtime recycles nothing.
func TestMessageFreeList(t *testing.T) {
	p := NewProgram()
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(1), machine.CM5(), p, DefaultHybrid())
	n := rt.Node(0)
	for i := 0; i < maxFreeMsgs+10; i++ {
		rt.consumed(n, &Msg{kind: msgReply, val: 7, from: 3, hops: 2, args: make([]Word, 2, 5)})
	}
	if n.freeLen != maxFreeMsgs {
		t.Fatalf("free list holds %d messages, want the cap %d", n.freeLen, maxFreeMsgs)
	}
	for i := 0; i < maxFreeMsgs; i++ {
		msg := n.newMsg()
		if cap(msg.args) != 5 {
			t.Fatalf("reused message %d has args capacity %d, want 5", i, cap(msg.args))
		}
		msg.args = nil
		if !reflect.DeepEqual(*msg, Msg{}) {
			t.Fatalf("reused message %d is not blank: %+v", i, *msg)
		}
	}
	if n.freeLen != 0 || n.freeMsgs != nil {
		t.Fatalf("free list holds %d messages after draining", n.freeLen)
	}
	if msg := n.newMsg(); msg.args != nil {
		t.Fatal("an empty free list did not hand out a fresh message")
	}

	cfg := DefaultHybrid()
	cfg.Reliable = true
	rel := NewRT(sim.NewEngine(1), machine.CM5(), p, cfg)
	rel.consumed(rel.Node(0), &Msg{kind: msgReply})
	if rel.Node(0).freeLen != 0 {
		t.Fatal("a reliable runtime recycled a consumed message")
	}
}
