// Package migrate provides migration policies for the core runtime's
// dynamic object migration protocol (internal/core/migrate.go).
//
// The paper lists "dynamic data migration" as future work (Section 6); this
// package supplies the decision layer the protocol needs: when should an
// object leave its node, and where should it go. Policies see the
// per-object access counters the runtime maintains — co-resident versus
// remote hit counts and a Misra-Gries sketch of the heaviest remote
// requester nodes — so their state is O(1) per object, and the decision
// they return is applied by the runtime at the object's next
// activation-free instant.
//
// Both active policies use the same three-part test:
//
//   - evidence: the heaviest remote requester must have sent at least
//     MinTop invocations this residence (the sketch count is a lower
//     bound), so decisions rest on real traffic, not noise;
//   - hysteresis: that requester's traffic must exceed Alpha times the
//     co-resident traffic — the move must win more locality than it loses,
//     by a margin, or the object oscillates;
//   - balance: after the move the destination must not exceed the
//     machine-wide mean resident count by more than MaxSkew, or affinity
//     chasing piles the working set onto a few nodes — and in a
//     barrier-synchronized program the most loaded node sets the pace, so
//     any locality win is erased by the skew.
//
// A lifetime MaxMoves bound caps per-object churn on top of all three.
package migrate

import "repro/internal/core"

// pickDest returns the best admissible destination in the object's
// remote-requester sketch: the admissible source with the highest count,
// ties broken on the lower node id so runs are deterministic. A source is
// admissible as a locality move (count reaches the MinTop evidence floor,
// beats Alpha times the co-resident traffic, and the destination stays
// within MaxSkew of the mean after the move) or, when the source node is
// itself more than MaxSkew above the mean, as a drain move (the destination
// must be below the mean). Whether one source is admissible never depends
// on another, so one pass finds what a heaviest-first scan would. The mean
// is the machine-wide object count over the node count: moves shift
// objects between nodes but never change their total.
func pickDest(rt *core.RT, n *core.NodeRT, o *core.Object, minTop int32, alpha float64, maxSkew int) (int, bool) {
	local, _ := o.Hits()
	mean := float64(rt.ObjectCount()) / float64(len(rt.Nodes))
	sourceLoaded := float64(n.Resident()) > mean+float64(maxSkew)
	best, bestCount := int32(-1), int32(0)
	o.ForEachRemoteSource(func(node, count int32) {
		if int(node) == n.ID || count < bestCount || count == bestCount && node > best {
			return
		}
		after := float64(rt.Nodes[node].Resident() + 1)
		// Drain moves need no evidence floor: the win comes from evening
		// load, and the heaviest admissible source is still the underloaded
		// node the object talks to most.
		if count >= minTop && float64(count) >= alpha*float64(local) && after <= mean+float64(maxSkew) ||
			sourceLoaded && after <= mean {
			best, bestCount = node, count
		}
	})
	if best < 0 {
		return 0, false
	}
	return int(best), true
}

// decayAll halves every resident object's access counters, machine-wide.
// Iteration uses the runtime's deterministic per-node object order, and
// halving is a pure function of the counters, so decay never perturbs
// determinism.
func decayAll(rt *core.RT) {
	for _, n := range rt.Nodes {
		n.ForEachLocalObject(func(o *core.Object) { o.Decay() })
	}
}

// decayTick advances a policy's heartbeat counter and applies one halving
// every `every` ticks (0 disables decay). Returns the advanced counter.
func decayTick(rt *core.RT, ticks, every int) int {
	if every <= 0 {
		return ticks
	}
	ticks++
	if ticks%every == 0 {
		decayAll(rt)
	}
	return ticks
}

// Never is the null policy: counters are maintained, nothing moves. It is
// the control for measuring the overhead of the migration machinery alone.
type Never struct{}

// OnAccess never requests a move.
func (Never) OnAccess(rt *core.RT, n *core.NodeRT, o *core.Object, from int) (int, bool) {
	return 0, false
}

// Tick does nothing.
func (Never) Tick(rt *core.RT, now core.Instr) {}

// Threshold is the reactive policy: it is consulted on every invocation
// reaching an object and moves the object to its heaviest remote requester
// once the evidence/hysteresis/balance test passes.
type Threshold struct {
	MinTop   int32   // required sketch count for the top requester
	Alpha    float64 // required advantage over co-resident traffic
	MaxSkew  int     // allowed destination excess in resident objects
	MaxMoves int     // lifetime per-object move bound
	// DecayEvery halves every object's access counters each time this many
	// heartbeats (Config.MigrationPeriod) elapse, so evidence ages instead
	// of fossilizing the placement earned by early-run traffic. 0 disables
	// decay (and with no MigrationPeriod there is no heartbeat to decay on).
	DecayEvery int

	ticks int
}

// DefaultThreshold returns a Threshold tuned for iterative kernels: an
// object chases a clearly dominant requester after roughly an iteration of
// evidence, and settles once co-resident traffic wins. Counters are halved
// every other heartbeat, keeping roughly the last four periods of traffic
// decisive.
func DefaultThreshold() *Threshold {
	return &Threshold{MinTop: 96, Alpha: 1.5, MaxSkew: 1, MaxMoves: 2, DecayEvery: 2}
}

// OnAccess implements core.MigrationPolicy.
func (t *Threshold) OnAccess(rt *core.RT, n *core.NodeRT, o *core.Object, from int) (int, bool) {
	if o.Moves() >= t.MaxMoves {
		return 0, false
	}
	return pickDest(rt, n, o, t.MinTop, t.Alpha, t.MaxSkew)
}

// Tick ages the access counters; move decisions stay purely reactive.
func (t *Threshold) Tick(rt *core.RT, now core.Instr) {
	t.ticks = decayTick(rt, t.ticks, t.DecayEvery)
}

// Rebalance is the periodic policy: it acts only on the runtime's
// virtual-time heartbeat (Config.MigrationPeriod), scanning each node's
// resident objects in the runtime's deterministic order and requesting
// moves for those that pass the same test as Threshold, at most
// MaxMovesPerTick per node per tick.
type Rebalance struct {
	MinTop          int32   // required sketch count for the top requester
	Alpha           float64 // required advantage over co-resident traffic
	MaxSkew         int     // allowed destination excess in resident objects
	MaxMovesPerTick int     // per-node churn bound per heartbeat
	MaxMoves        int     // lifetime per-object move bound
	// DecayEvery halves every object's access counters each time this many
	// heartbeats elapse (see Threshold.DecayEvery). 0 disables decay.
	DecayEvery int

	ticks int
}

// DefaultRebalance returns a Rebalance with moderate churn bounds and the
// same every-other-heartbeat counter decay as DefaultThreshold.
func DefaultRebalance() *Rebalance {
	return &Rebalance{MinTop: 96, Alpha: 1.5, MaxSkew: 1, MaxMovesPerTick: 2, MaxMoves: 2, DecayEvery: 2}
}

// OnAccess never moves; Rebalance acts only on the heartbeat.
func (r *Rebalance) OnAccess(rt *core.RT, n *core.NodeRT, o *core.Object, from int) (int, bool) {
	return 0, false
}

// Tick implements core.MigrationPolicy: age the counters, then scan and
// request moves — this tick's decisions already use the aged evidence.
func (r *Rebalance) Tick(rt *core.RT, now core.Instr) {
	r.ticks = decayTick(rt, r.ticks, r.DecayEvery)
	for _, n := range rt.Nodes {
		moved := 0
		n.ForEachLocalObject(func(o *core.Object) {
			if moved >= r.MaxMovesPerTick || o.Moves() >= r.MaxMoves {
				return
			}
			dest, ok := pickDest(rt, n, o, r.MinTop, r.Alpha, r.MaxSkew)
			if !ok {
				return
			}
			rt.RequestMigration(n, o, dest)
			moved++
		})
	}
}
