package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// chaosPolicy migrates objects on a deterministic pseudo-random schedule —
// no affinity logic, no balance guard, unbounded moves. It exists to hammer
// the protocol itself: freezes, forwarding chains, parked requests and hint
// races under the worst decision-maker imaginable.
type chaosPolicy struct {
	lcg   uint64
	every uint64 // consider a move every Nth consultation
	calls uint64
}

func (c *chaosPolicy) OnAccess(rt *RT, n *NodeRT, o *Object, from int) (int, bool) {
	c.calls++
	if c.calls%c.every != 0 {
		return 0, false
	}
	c.lcg = c.lcg*6364136223846793005 + 1442695040888963407
	dest := int(c.lcg>>33) % len(rt.Nodes)
	return dest, dest != n.ID
}

func (c *chaosPolicy) Tick(rt *RT, now Instr) {}

// buildChurn returns a driver that fires rounds*len(targets) asynchronous
// bump invocations across the target objects (round-robin with a stride so
// consecutive requests hit different objects) and joins them all.
func buildChurn(p *Program) (driver, bump *Method) {
	bump = &Method{Name: "chbump", NArgs: 0}
	bump.Body = func(rt *RT, fr *Frame) Status {
		fr.Node.State(fr.Self).(*cellState).v++
		rt.Work(fr, 20)
		rt.Reply(fr, 0)
		return Done
	}
	p.Add(bump)

	driver = &Method{Name: "chdriver", NArgs: 1, NLocals: 1, MayBlockLocal: true,
		Calls: []*Method{bump}}
	driver.Body = func(rt *RT, fr *Frame) Status {
		st := fr.Node.State(fr.Self).(*churnState)
		total := int(fr.Arg(0).Int()) * len(st.targets)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= total {
					break
				}
				fr.SetLocal(0, IntW(int64(i+1)))
				target := st.targets[(i*7+3)%len(st.targets)]
				s := rt.Invoke(fr, bump, target, JoinDiscard)
				if s == NeedUnwind {
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
		panic("chdriver: bad pc")
	}
	p.Add(driver)
	return driver, bump
}

type churnState struct{ targets []Ref }

// runChurn executes the churn workload under pol and returns the runtime
// plus the object refs, after asserting completion and quiescence.
func runChurn(t *testing.T, nodes, objects int, rounds int64, pol MigrationPolicy, period Instr) (*RT, []Ref) {
	t.Helper()
	p := NewProgram()
	driver, _ := buildChurn(p)
	cfg := DefaultHybrid()
	cfg.Migration = pol
	cfg.MigrationPeriod = period
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(nodes)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = rt.Node(i % nodes).NewObject(&cellState{})
	}
	d := rt.Node(0).NewObject(&churnState{targets: refs})
	var res Result
	rt.StartOn(0, driver, d, &res, IntW(rounds))
	rt.Run()
	if !res.Done {
		t.Fatal("churn driver did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	return rt, refs
}

// checkMigrationInvariants asserts the protocol's safety properties at
// quiescence: every object resolves on exactly one node, every forwarding
// chain terminates at that node, every shipped object arrived, and every
// activation frame was retired (no context runs twice or leaks).
func checkMigrationInvariants(t *testing.T, rt *RT, refs []Ref) {
	t.Helper()
	for _, ref := range refs {
		owners := 0
		for _, n := range rt.Nodes {
			if n.localObject(ref) != nil {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("object %v has %d owners, want exactly 1", ref, owners)
		}
		loc := rt.Locate(ref)
		if loc < 0 {
			t.Fatalf("object %v: forwarding chain did not terminate", ref)
		}
		if rt.Nodes[loc].localObject(ref) == nil {
			t.Fatalf("object %v: Locate says node %d but it does not live there", ref, loc)
		}
	}
	s := rt.TotalStats()
	if s.MigratesOut != s.MigratesIn {
		t.Fatalf("MigratesOut=%d != MigratesIn=%d: an object is still in flight", s.MigratesOut, s.MigratesIn)
	}
	for _, n := range rt.Nodes {
		if live := n.LiveFrames(); live != 0 {
			t.Fatalf("node %d has %d live frames at quiescence", n.ID, live)
		}
	}
}

// TestMigrationPropertyChaos: arbitrary migration sequences must preserve
// single ownership, terminating forwarding chains, exactly-once execution
// and a clean shutdown — under several chaos schedules and cluster shapes.
func TestMigrationPropertyChaos(t *testing.T) {
	cases := []struct {
		nodes, objects int
		rounds         int64
		every          uint64
		seed           uint64
	}{
		{nodes: 2, objects: 3, rounds: 40, every: 3, seed: 1},
		{nodes: 4, objects: 8, rounds: 30, every: 5, seed: 2},
		{nodes: 8, objects: 13, rounds: 20, every: 2, seed: 3},
		{nodes: 5, objects: 5, rounds: 25, every: 7, seed: 4},
	}
	for _, tc := range cases {
		pol := &chaosPolicy{lcg: tc.seed, every: tc.every}
		rt, refs := runChurn(t, tc.nodes, tc.objects, tc.rounds, pol, 0)
		checkMigrationInvariants(t, rt, refs)
		s := rt.TotalStats()
		if s.MigratesOut == 0 {
			t.Fatalf("nodes=%d: chaos policy produced no migrations — the property run is vacuous", tc.nodes)
		}
		// Every bump must have executed exactly once.
		var sum int64
		for _, ref := range refs {
			loc := rt.Locate(ref)
			sum += rt.Nodes[loc].State(ref).(*cellState).v
		}
		if want := tc.rounds * int64(len(refs)); sum != want {
			t.Fatalf("nodes=%d: total bumps = %d, want %d", tc.nodes, sum, want)
		}
	}
}

// TestMigrationChaosDeterministic: the same chaos schedule twice must give
// bit-identical virtual time and statistics.
func TestMigrationChaosDeterministic(t *testing.T) {
	run := func() (Instr, NodeStats) {
		pol := &chaosPolicy{lcg: 99, every: 4}
		rt, refs := runChurn(t, 6, 9, 25, pol, 0)
		checkMigrationInvariants(t, rt, refs)
		return rt.Eng.MaxClock(), rt.TotalStats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Fatalf("virtual time differs across identical runs: %d vs %d", c1, c2)
	}
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// ringPolicy pushes every object one node to the right on each heartbeat —
// it exercises the periodic path (startHeartbeat, Tick, RequestMigration)
// and long forwarding chains (an object's address changes every period).
type ringPolicy struct{ maxMoves int }

func (r *ringPolicy) OnAccess(rt *RT, n *NodeRT, o *Object, from int) (int, bool) {
	return 0, false
}

func (r *ringPolicy) Tick(rt *RT, now Instr) {
	for _, n := range rt.Nodes {
		n.ForEachLocalObject(func(o *Object) {
			if o.Moves() < r.maxMoves {
				rt.RequestMigration(n, o, (n.ID+1)%len(rt.Nodes))
			}
		})
	}
}

// TestMigrationHeartbeatRing: periodic ring migration keeps all invariants
// and actually moves objects several hops from their birth nodes.
func TestMigrationHeartbeatRing(t *testing.T) {
	pol := &ringPolicy{maxMoves: 5}
	rt, refs := runChurn(t, 4, 6, 60, pol, 50_000)
	checkMigrationInvariants(t, rt, refs)
	s := rt.TotalStats()
	if s.MigratesOut == 0 {
		t.Fatal("heartbeat produced no migrations")
	}
	moved := false
	for _, ref := range refs {
		if rt.Locate(ref) != int(ref.Node) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no object ended away from its birth node")
	}
}

// heavyState is a migratable object whose payload takes several request
// round trips to cross the network.
type heavyState struct{ v int64 }

func (*heavyState) MigrateWords() int { return 4000 }

// stillPolicy never decides a move; the test moves objects explicitly.
type stillPolicy struct{}

func (stillPolicy) OnAccess(rt *RT, n *NodeRT, o *Object, from int) (int, bool) { return 0, false }
func (stillPolicy) Tick(rt *RT, now Instr)                                      {}

// TestReturnToFormerHomeParks: an object moves 0->1 and back 1->0. Node 0
// still holds the stub from the first move, pointing at node 1, until the
// object lands. A request forwarded by node 1's newer stub must park at
// node 0's older one, not bounce between the two stubs until the object
// arrives.
func TestReturnToFormerHomeParks(t *testing.T) {
	p := NewProgram()
	move := &Method{Name: "move", NArgs: 1}
	move.Body = func(rt *RT, fr *Frame) Status {
		rt.RequestMigration(fr.Node, fr.Node.localObject(fr.Self), int(fr.Arg(0).Int()))
		rt.Reply(fr, 0)
		return Done
	}
	p.Add(move)
	bump := &Method{Name: "bump"}
	bump.Body = func(rt *RT, fr *Frame) Status {
		fr.Node.State(fr.Self).(*heavyState).v++
		rt.Reply(fr, 0)
		return Done
	}
	p.Add(bump)
	// client: move(1), move(0), bump, each awaited before the next is sent.
	client := &Method{Name: "client", NLocals: 1, MayBlockLocal: true,
		Calls: []*Method{move, bump}}
	client.Body = func(rt *RT, fr *Frame) Status {
		target := fr.Node.State(fr.Self).(*churnState).targets[0]
		for {
			step := fr.Local(0).Int()
			if fr.PC == 0 {
				var st CallStatus
				switch step {
				case 0:
					st = rt.Invoke(fr, move, target, JoinDiscard, IntW(1))
				case 1:
					st = rt.Invoke(fr, move, target, JoinDiscard, IntW(0))
				case 2:
					st = rt.Invoke(fr, bump, target, JoinDiscard)
				default:
					rt.Reply(fr, 0)
					return Done
				}
				fr.PC = 1
				if st == NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			if !rt.TouchJoin(fr) {
				return Unwound
			}
			fr.PC = 0
			fr.SetLocal(0, IntW(step+1))
		}
	}
	p.Add(client)

	cfg := DefaultHybrid()
	cfg.Migration = stillPolicy{}
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(3), machine.CM5(), p, cfg)
	obj := rt.Node(0).NewObject(&heavyState{})
	c := rt.Node(2).NewObject(&churnState{targets: []Ref{obj}})
	var res Result
	rt.StartOn(2, client, c, &res)
	rt.Run()
	if !res.Done {
		t.Fatal("client did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	checkMigrationInvariants(t, rt, []Ref{obj})
	if loc := rt.Locate(obj); loc != 0 {
		t.Fatalf("object ended on node %d, want 0", loc)
	}
	if v := rt.StateOf(obj).(*heavyState).v; v != 1 {
		t.Fatalf("bump ran %d times, want 1", v)
	}
	// One hop per request that reached a stub: move(0) at node 0, bump at
	// node 1. Each then parks where the object is in flight to.
	s := rt.TotalStats()
	if s.MigratesOut != 2 || s.ForwardHops != 2 || s.MigrateParks != 2 {
		t.Fatalf("moves=%d hops=%d parks=%d, want 2, 2, 2",
			s.MigratesOut, s.ForwardHops, s.MigrateParks)
	}
}
