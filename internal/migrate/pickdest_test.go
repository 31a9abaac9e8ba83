package migrate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// pickDestSorted is the oracle for pickDest: the decision as a
// heaviest-first scan makes it. The mean sums Resident() over every node;
// the sketch is collected into a candidate buffer, insertion-sorted by
// count (ties on the lower node id), and the first admissible candidate
// wins.
func pickDestSorted(rt *core.RT, n *core.NodeRT, o *core.Object, minTop int32, alpha float64, maxSkew int) (int, bool) {
	local, _ := o.Hits()
	total := 0
	for _, nd := range rt.Nodes {
		total += nd.Resident()
	}
	mean := float64(total) / float64(len(rt.Nodes))
	sourceLoaded := float64(n.Resident()) > mean+float64(maxSkew)
	type cand struct {
		node  int32
		count int32
	}
	var cands []cand
	o.ForEachRemoteSource(func(node, count int32) {
		cands = append(cands, cand{node, count})
	})
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && (cands[j].count < c.count ||
			(cands[j].count == c.count && cands[j].node > c.node)) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
	for _, c := range cands {
		if int(c.node) == n.ID {
			continue
		}
		after := float64(rt.Nodes[c.node].Resident() + 1)
		if c.count >= minTop && float64(c.count) >= alpha*float64(local) &&
			after <= mean+float64(maxSkew) {
			return int(c.node), true
		}
		if sourceLoaded && after <= mean {
			return int(c.node), true
		}
	}
	return 0, false
}

// oracleCheck wraps a Threshold or a Rebalance and, on every policy call,
// evaluates pickDest and the oracle with the wrapped policy's parameters:
// for the accessed object on OnAccess, and for every resident object
// before and after the wrapped Tick. Any difference fails the test. It
// also counts the decisions that were drain moves and those that broke a
// tie, so a test can show that its traffic reached both.
type oracleCheck struct {
	t      *testing.T
	inner  core.MigrationPolicy
	minTop int32
	alpha  float64
	skew   int

	calls, moves, drains, ties int
}

func newOracleCheck(t *testing.T, inner core.MigrationPolicy) *oracleCheck {
	c := &oracleCheck{t: t, inner: inner}
	switch p := inner.(type) {
	case *Threshold:
		c.minTop, c.alpha, c.skew = p.MinTop, p.Alpha, p.MaxSkew
	case *Rebalance:
		c.minTop, c.alpha, c.skew = p.MinTop, p.Alpha, p.MaxSkew
	default:
		t.Fatalf("oracleCheck wraps %T", inner)
	}
	return c
}

func (c *oracleCheck) check(rt *core.RT, n *core.NodeRT, o *core.Object) {
	got, gotOK := pickDest(rt, n, o, c.minTop, c.alpha, c.skew)
	want, wantOK := pickDestSorted(rt, n, o, c.minTop, c.alpha, c.skew)
	if got != want || gotOK != wantOK {
		var srcs [][2]int32
		o.ForEachRemoteSource(func(node, count int32) { srcs = append(srcs, [2]int32{node, count}) })
		local, _ := o.Hits()
		c.t.Fatalf("node %d object %v (local %d, sources %v): pickDest = (%d, %v), oracle (%d, %v)",
			n.ID, o.Ref, local, srcs, got, gotOK, want, wantOK)
	}
	c.calls++
	if !wantOK {
		return
	}
	c.moves++
	// Classify the decision the way the oracle's scan reached it.
	local, _ := o.Hits()
	mean := float64(rt.ObjectCount()) / float64(len(rt.Nodes))
	winner := int32(0)
	admissible := map[int32]int{} // count -> admissible sources with it
	o.ForEachRemoteSource(func(node, count int32) {
		if int(node) == n.ID {
			return
		}
		after := float64(rt.Nodes[node].Resident() + 1)
		locality := count >= c.minTop && float64(count) >= c.alpha*float64(local) && after <= mean+float64(c.skew)
		drain := float64(n.Resident()) > mean+float64(c.skew) && after <= mean
		if locality || drain {
			admissible[count]++
		}
		if int(node) == want {
			winner = count
			if !locality {
				c.drains++
			}
		}
	})
	if admissible[winner] > 1 {
		c.ties++
	}
}

func (c *oracleCheck) OnAccess(rt *core.RT, n *core.NodeRT, o *core.Object, from int) (int, bool) {
	c.check(rt, n, o)
	return c.inner.OnAccess(rt, n, o, from)
}

func (c *oracleCheck) Tick(rt *core.RT, now core.Instr) {
	c.checkAll(rt)
	c.inner.Tick(rt, now)
	c.checkAll(rt)
}

func (c *oracleCheck) checkAll(rt *core.RT) {
	for _, n := range rt.Nodes {
		n.ForEachLocalObject(func(o *core.Object) { c.check(rt, n, o) })
	}
}

type hits struct{ v int64 }

// clientState is one traffic source: the targets it may invoke and the
// generator that picks among them.
type clientState struct {
	targets []core.Ref
	rng     *rand.Rand
}

// buildTraffic returns a driver that invokes bump `rounds` (its one
// argument) times on targets its client picks at random, awaiting each
// reply.
func buildTraffic(p *core.Program) *core.Method {
	bump := &core.Method{Name: "tbump"}
	bump.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		fr.Node.State(fr.Self).(*hits).v++
		rt.Work(fr, 20)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(bump)
	driver := &core.Method{Name: "tdriver", NArgs: 1, NFutures: 1, NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{bump}}
	driver.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		for {
			switch fr.PC {
			case 0:
				if fr.Local(0).Int() >= fr.Arg(0).Int() {
					rt.Reply(fr, 0)
					return core.Done
				}
				fr.SetLocal(0, core.IntW(fr.Local(0).Int()+1))
				fr.ClearFut(0)
				cs := fr.Node.State(fr.Self).(*clientState)
				st := rt.Invoke(fr, bump, cs.targets[cs.rng.Intn(len(cs.targets))], 0)
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

// runTraffic drives random traffic under pol on a machine of 3 to 16 nodes
// chosen by seed. Half the targets are born on one hot node, so drain moves
// have a loaded source; the rest are spread at random. Every node runs one
// client that invokes a random handful of targets.
func runTraffic(t *testing.T, seed int64, pol core.MigrationPolicy, period core.Instr) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := 3 + rng.Intn(14)
	p := core.NewProgram()
	driver := buildTraffic(p)
	cfg := core.DefaultHybrid()
	cfg.Migration = pol
	cfg.MigrationPeriod = period
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRT(sim.NewEngine(nodes), machine.CM5(), p, cfg)
	hot := rng.Intn(nodes)
	targets := make([]core.Ref, 4*nodes)
	for i := range targets {
		home := hot
		if i%2 == 1 {
			home = rng.Intn(nodes)
		}
		targets[i] = rt.Node(home).NewObject(&hits{})
	}
	const rounds = 40
	results := make([]core.Result, nodes)
	for i := range results {
		cs := &clientState{rng: rand.New(rand.NewSource(rng.Int63()))}
		for k := 0; k < 3+rng.Intn(4); k++ {
			cs.targets = append(cs.targets, targets[rng.Intn(len(targets))])
		}
		rt.StartOn(i, driver, rt.Node(i).NewObject(cs), &results[i], core.IntW(rounds))
	}
	rt.Run()
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ref := range targets {
		total += rt.StateOf(ref).(*hits).v
	}
	if total != int64(nodes*rounds) {
		t.Fatalf("targets counted %d invocations, want %d", total, nodes*rounds)
	}
	var resident int
	for _, n := range rt.Nodes {
		resident += n.Resident()
	}
	if resident != rt.ObjectCount() {
		t.Fatalf("ObjectCount = %d, resident counts sum to %d", rt.ObjectCount(), resident)
	}
}

// TestPickDestMatchesSortedScan: over random traffic on 3 to 16 nodes and a
// grid of MinTop, Alpha and MaxSkew, the one-pass pickDest decides exactly
// as the heaviest-first scan over sorted candidates, for both policies. The
// traffic reaches locality moves, drain moves and ties between equally
// heavy admissible sources.
func TestPickDestMatchesSortedScan(t *testing.T) {
	policies := []struct {
		name string
		make func(minTop int32, alpha float64, skew int) core.MigrationPolicy
	}{
		{"threshold", func(minTop int32, alpha float64, skew int) core.MigrationPolicy {
			return &Threshold{MinTop: minTop, Alpha: alpha, MaxSkew: skew, MaxMoves: 3, DecayEvery: 3}
		}},
		{"rebalance", func(minTop int32, alpha float64, skew int) core.MigrationPolicy {
			return &Rebalance{MinTop: minTop, Alpha: alpha, MaxSkew: skew, MaxMovesPerTick: 2, MaxMoves: 3, DecayEvery: 2}
		}},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			var calls, moves, drains, ties int
			for seed := int64(1); seed <= 4; seed++ {
				for _, minTop := range []int32{1, 3, 1 << 30} {
					for _, alpha := range []float64{0, 1, 2} {
						for _, skew := range []int{0, 2} {
							c := newOracleCheck(t, pol.make(minTop, alpha, skew))
							t.Run(fmt.Sprintf("seed=%d/minTop=%d/alpha=%g/skew=%d", seed, minTop, alpha, skew), func(t *testing.T) {
								c.t = t
								runTraffic(t, seed, c, 5_000)
							})
							calls += c.calls
							moves += c.moves
							drains += c.drains
							ties += c.ties
						}
					}
				}
			}
			t.Logf("%d decisions checked: %d moves, %d drain moves, %d ties", calls, moves, drains, ties)
			if moves == 0 || drains == moves || drains == 0 || ties == 0 {
				t.Fatalf("traffic reached %d moves, %d of them drains, and %d ties; want locality moves, drain moves and ties",
					moves, drains, ties)
			}
		})
	}
}
