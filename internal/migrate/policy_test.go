package migrate_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/sim"
)

type counterState struct{ v int64 }

// buildHammer returns a driver that invokes bump on its argument object
// `rounds` times, awaiting each reply, so every request carries the
// driver's node as the requester.
func buildHammer(p *core.Program) *core.Method {
	bump := &core.Method{Name: "hbump", NArgs: 0}
	bump.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		fr.Node.State(fr.Self).(*counterState).v++
		rt.Work(fr, 20)
		rt.Reply(fr, core.IntW(fr.Node.State(fr.Self).(*counterState).v))
		return core.Done
	}
	p.Add(bump)

	driver := &core.Method{Name: "hdriver", NArgs: 2, NFutures: 1, NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{bump}}
	driver.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		for {
			switch fr.PC {
			case 0:
				if fr.Local(0).Int() >= fr.Arg(1).Int() {
					rt.Reply(fr, 0)
					return core.Done
				}
				fr.SetLocal(0, core.IntW(fr.Local(0).Int()+1))
				fr.ClearFut(0)
				st := rt.Invoke(fr, bump, fr.Arg(0).Ref(), 0)
				fr.PC = 1
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
				fallthrough
			case 1:
				if !rt.TouchAll(fr, core.Mask(0)) {
					return core.Unwound
				}
				fr.PC = 0
			}
		}
	}
	p.Add(driver)
	return driver
}

// hammer runs `rounds` sequential invocations from node 0 against an object
// born on node 1, under pol, and returns the runtime and the object's ref.
func hammer(t *testing.T, pol core.MigrationPolicy, period core.Instr, rounds int64) (*core.RT, core.Ref) {
	t.Helper()
	p := core.NewProgram()
	driver := buildHammer(p)
	cfg := core.DefaultHybrid()
	cfg.Migration = pol
	cfg.MigrationPeriod = period
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := core.NewRT(eng, machine.CM5(), p, cfg)
	d := rt.Node(0).NewObject(nil)
	obj := rt.Node(1).NewObject(&counterState{})
	var res core.Result
	rt.StartOn(0, driver, d, &res, core.RefW(obj), core.IntW(rounds))
	rt.Run()
	if !res.Done {
		t.Fatal("hammer driver did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Nodes[rt.Locate(obj)].State(obj).(*counterState).v; got != rounds {
		t.Fatalf("bumps = %d, want %d", got, rounds)
	}
	return rt, obj
}

// TestThresholdMovesHammeredObject: an object invoked exclusively from one
// remote node must migrate to that node once the evidence threshold is met,
// and the run must get cheaper than leaving it put.
func TestThresholdMovesHammeredObject(t *testing.T) {
	pol := &migrate.Threshold{MinTop: 20, Alpha: 1.0, MaxSkew: 8, MaxMoves: 1}
	rt, obj := hammer(t, pol, 0, 200)
	if loc := rt.Locate(obj); loc != 0 {
		t.Fatalf("object ended on node %d, want 0 (the requester)", loc)
	}
	if rt.TotalStats().MigratesOut != 1 {
		t.Fatalf("MigratesOut = %d, want 1", rt.TotalStats().MigratesOut)
	}
	adaptive := rt.Eng.MaxClock()

	still, objStill := hammer(t, migrate.Never{}, 0, 200)
	if loc := still.Locate(objStill); loc != 1 {
		t.Fatalf("Never moved the object to node %d", loc)
	}
	if static := still.Eng.MaxClock(); adaptive >= static {
		t.Fatalf("adaptive run (%d) not faster than static (%d)", adaptive, static)
	}
}

// TestRebalanceMovesHammeredObject: the periodic policy reaches the same
// placement through the heartbeat path.
func TestRebalanceMovesHammeredObject(t *testing.T) {
	pol := &migrate.Rebalance{MinTop: 20, Alpha: 1.0, MaxSkew: 8, MaxMovesPerTick: 1, MaxMoves: 1}
	rt, obj := hammer(t, pol, 100_000, 200)
	if loc := rt.Locate(obj); loc != 0 {
		t.Fatalf("object ended on node %d, want 0 (the requester)", loc)
	}
	if rt.TotalStats().MigratesOut != 1 {
		t.Fatalf("MigratesOut = %d, want 1", rt.TotalStats().MigratesOut)
	}
}

// TestDecayAgesEvidence: with DecayEvery set, the periodic heartbeat halves
// the access counters, so a long run's counters reflect recent traffic
// rather than accumulating forever. Move thresholds are set unreachably
// high so only the aging is observable.
func TestDecayAgesEvidence(t *testing.T) {
	frozen := func(decayEvery int) *migrate.Rebalance {
		return &migrate.Rebalance{MinTop: 1 << 30, Alpha: 1e12, MaxSkew: 0,
			MaxMovesPerTick: 0, MaxMoves: 0, DecayEvery: decayEvery}
	}
	const rounds = 300
	rtA, objA := hammer(t, frozen(0), 20_000, rounds)
	_, remoteA := rtA.Nodes[1].Object(objA).Hits()
	if remoteA != rounds {
		t.Fatalf("without decay remoteHits = %d, want %d (every bump counted)", remoteA, rounds)
	}
	rtB, objB := hammer(t, frozen(1), 20_000, rounds)
	_, remoteB := rtB.Nodes[1].Object(objB).Hits()
	if remoteB >= remoteA {
		t.Fatalf("decay did not age evidence: remoteHits %d (decay) vs %d (none)", remoteB, remoteA)
	}
	if remoteB == 0 {
		t.Fatal("decay zeroed the counters entirely; recent traffic should survive a halving cadence")
	}
	// Decay must not change what the run computes or when it finishes:
	// halving counters is bookkeeping, not simulation behavior (moves are
	// disabled here, so the clocks must match exactly).
	if a, b := rtA.Eng.MaxClock(), rtB.Eng.MaxClock(); a != b {
		t.Fatalf("decay changed run timing with migration frozen: %d vs %d", a, b)
	}
}

// TestThresholdDecayTick: the reactive policy also ages counters on the
// heartbeat when configured.
func TestThresholdDecayTick(t *testing.T) {
	pol := &migrate.Threshold{MinTop: 1 << 30, Alpha: 1e12, MaxSkew: 0, MaxMoves: 0, DecayEvery: 1}
	rt, obj := hammer(t, pol, 20_000, 300)
	if _, remote := rt.Nodes[1].Object(obj).Hits(); remote >= 300 {
		t.Fatalf("Threshold.Tick did not decay: remoteHits = %d", remote)
	}
}

// TestNeverPolicyIsFree: installing Never must not change the virtual time
// of a run compared to no policy at all beyond the counter upkeep charges,
// and must never migrate.
func TestNeverPolicyIsFree(t *testing.T) {
	rt, _ := hammer(t, migrate.Never{}, 0, 50)
	s := rt.TotalStats()
	if s.MigratesOut != 0 || s.ForwardHops != 0 || s.MigrateParks != 0 {
		t.Fatalf("Never policy produced migration traffic: %+v", s)
	}
}

// TestThresholdOnAccessAllocatesNothing: the reactive policy is consulted on
// every access, so its decision — the sketch scan and the admissibility
// test — must not allocate.
func TestThresholdOnAccessAllocatesNothing(t *testing.T) {
	rt, ref := hammer(t, migrate.Never{}, 0, 200)
	n := rt.Nodes[1]
	obj := n.Object(ref)
	var srcs []int32
	obj.ForEachRemoteSource(func(node, count int32) { srcs = append(srcs, node) })
	if len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("sketch requesters = %v, want node 0 alone", srcs)
	}
	pol := &migrate.Threshold{MinTop: 1 << 30, Alpha: 1e12, MaxSkew: 8, MaxMoves: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, move := pol.OnAccess(rt, n, obj, 0); move {
			t.Fatal("unreachable thresholds requested a move")
		}
	})
	if allocs != 0 {
		t.Fatalf("Threshold.OnAccess allocates %.1f times, want 0", allocs)
	}
}
