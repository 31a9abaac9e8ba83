package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/sim"
)

// RT is the runtime for one simulated machine: it owns the per-node runtime
// state and implements sim.Runner, executing message handlers and ready
// contexts as the engine pumps nodes.
type RT struct {
	Eng   *sim.Engine
	Model *machine.Model
	Cfg   Config
	Prog  *Program
	Nodes []*NodeRT

	// heartbeat is set once the periodic migration tick has been scheduled.
	heartbeat bool
	// objects counts NewObject calls machine-wide, while a migration policy
	// is installed (see ObjectCount).
	objects int

	// net is this runtime's topology model instance (nil: flat latencies).
	net machine.Network

	// Crash-recovery state (see recover.go). incs holds per-node incarnation
	// numbers (bumped at each rejoin); ckptStarted latches the checkpoint
	// tick; recov aggregates the machine-wide recovery accounting mutated
	// only in global (single-threaded) phases — per-node recovery counters
	// live on NodeRT.recov and are summed by Recov().
	incs        []int32
	ckptStarted bool
	recov       RecoveryStats

	// parEng is set when the engine actually runs sharded (parallel PDES):
	// observer callbacks then defer their sink calls through sim.Node.Ordered
	// so shared buffers see the serial engine's exact sequence. Kept as a
	// flag (rather than asking the engine each time) to keep the serial hot
	// path free of closure allocations.
	parEng bool
}

// NewRT builds a runtime over eng with the given machine model, resolved
// program, and execution-model configuration, and installs itself as the
// engine's runner. The configuration is validated up front — a bad one
// (nil model, out-of-range fault probabilities, lossy faults without the
// reliable layer) fails fast here with a descriptive error instead of
// panicking deep in the run; callers that prefer an error value should
// check ValidateConfig first (the concert facade's NewSystemChecked does).
func NewRT(eng *sim.Engine, mdl *machine.Model, prog *Program, cfg Config) *RT {
	if err := ValidateConfig(mdl, cfg); err != nil {
		panic(err)
	}
	if cfg.MaxStackDepth <= 0 {
		cfg.MaxStackDepth = 1024
	}
	rt := &RT{Eng: eng, Model: mdl, Cfg: cfg, Prog: prog}
	if cfg.Network != nil {
		rt.net = cfg.Network(eng.NumNodes())
	}
	rt.incs = make([]int32, eng.NumNodes())
	rt.Nodes = make([]*NodeRT, eng.NumNodes())
	for i := range rt.Nodes {
		n := &NodeRT{ID: i, Sim: eng.Node(i), rt: rt}
		if cfg.CheckpointPeriod > 0 {
			n.flush.Init(n.Sim, func() { rt.flushNode(n) })
		}
		rt.Nodes[i] = n
	}
	eng.SetRunner(rt)
	rt.installEngine()
	rt.installFaults()
	rt.installMetrics()
	return rt
}

// installEngine wires the topology-latency hook and, when the configuration
// is eligible, switches a parallel-kind engine into sharded execution.
//
// The lookahead is the minimum latency of any transmission: the topology's
// static MinDelay when a Network is installed, else the flat model's
// MinNetDelay. Two configurations fall back to serial dispatch (results are
// byte-identical either way; Eng.Workers() reports the truth):
//
//   - Migration: owners update residence counters on every access, across
//     nodes, which cannot run concurrently per shard.
//   - Reliable + Network: the reliable layer needs each frame's contended
//     latency at send time (for the retransmit deadline and the link
//     high-water mark), but contended latencies can only be computed at the
//     ordered commit point. The flat model's latencies are pure functions,
//     so Reliable alone stays eligible.
func (rt *RT) installEngine() {
	if rt.net != nil {
		net := rt.net
		rt.Eng.SetNetDelay(func(from, to, words int, depart, flat sim.Time) sim.Time {
			return net.Delay(from, to, words, depart)
		})
	}
	if rt.Cfg.Migration != nil || (rt.Cfg.Reliable && rt.net != nil) {
		return
	}
	la := rt.Model.MinNetDelay()
	if rt.net != nil {
		la = rt.net.MinDelay()
	}
	rt.parEng = rt.Eng.EnableParallel(la)
}

// installMetrics wires the configured metrics sink into the engine's charge
// observer, attaching the name of the method body executing on the charged
// node. Every clock advance — including idle — is reported, so per node the
// attributed costs sum exactly to the final clock.
func (rt *RT) installMetrics() {
	ms := rt.Cfg.Metrics
	if ms == nil {
		return
	}
	rt.Eng.SetChargeObserver(func(node int, op instr.Op, start, cost sim.Time) {
		n := rt.Nodes[node]
		// The executing method is resolved here, at the charge, where curM
		// is still current; only the sink call defers under the parallel
		// engine (the sink is shared across nodes and must observe charges
		// in total event order).
		name := ""
		if m := n.curM; m != nil {
			name = m.Name
		}
		if rt.parEng {
			n.Sim.Ordered(func() { ms.ObserveCharge(node, start, name, uint8(op), int64(cost)) })
			return
		}
		ms.ObserveCharge(node, start, name, uint8(op), int64(cost))
	})
}

// Node returns the runtime state of node i.
func (rt *RT) Node(i int) *NodeRT { return rt.Nodes[i] }

// Network returns the runtime's topology model instance, nil when the flat
// model is in use. Drivers use it to report contention statistics.
func (rt *RT) Network() machine.Network { return rt.net }

// netDelay returns the transport latency of one physical transmission
// departing at depart: the topology model's when one is installed, else the
// flat latency the caller computed from the model.
func (rt *RT) netDelay(from, to *NodeRT, words int, depart sim.Time, flat instr.Instr) instr.Instr {
	if rt.net == nil {
		return flat
	}
	return rt.net.Delay(from.ID, to.ID, words, depart)
}

// StartOn seeds a root invocation of m on target (which must live on node
// `node`), directing the result to res. Call before Run; multiple roots may
// be started.
func (rt *RT) StartOn(node int, m *Method, target Ref, res *Result, args ...Word) {
	if int(target.Node) != node {
		panic("core: StartOn node does not own target")
	}
	n := rt.Nodes[node]
	rt.schedule(n, rt.newHeapFrame(n, m, target, args, Cont{Root: res}))
	rt.Eng.Wake(n.Sim)
}

// Run drives the simulation to quiescence and returns the parallel
// completion time (the maximum node clock).
func (rt *RT) Run() sim.Time {
	rt.startHeartbeat()
	rt.startCheckpoints()
	rt.Eng.Run()
	return rt.Eng.MaxClock()
}

// RunUntil drives the simulation until virtual time t (or quiescence,
// whichever comes first) and returns the maximum node clock, for stopping a
// run at a chosen instant. Crash injection does not need it: a crash's dead
// frames hold no events, so a run that lost work still quiesces under Run.
func (rt *RT) RunUntil(t sim.Time) sim.Time {
	rt.startHeartbeat()
	rt.startCheckpoints()
	rt.Eng.RunUntil(t)
	return rt.Eng.MaxClock()
}

// RunOne implements sim.Runner: messages are drained before ready contexts,
// so message handlers (and wrappers) interleave with computation, which is
// what masks latency.
func (rt *RT) RunOne(sn *sim.Node) bool {
	n := rt.Nodes[sn.ID]
	if msg := n.inbox.pop(); msg != nil {
		rt.handleMsg(n, msg)
		return true
	}
	if fr := n.runq.pop(); fr != nil {
		if n.pool.dead(fr) {
			panic(fmt.Sprintf("core: node %d ran a frame of %s that a crash killed; a crash empties the run queue, and nothing else queues a dead frame",
				n.ID, fr.M.Name))
		}
		rt.runContext(n, fr)
		return true
	}
	return false
}

// Deliver implements sim.Runner: it routes one arrived payload by its type.
// A *Msg (unreliable mode) goes straight to the inbox; a reliable data frame
// or ack goes to the link layer, which releases data to the inbox in order.
func (rt *RT) Deliver(sn *sim.Node, from int, payload any) {
	n := rt.Nodes[sn.ID]
	switch p := payload.(type) {
	case *Msg:
		rt.deliverInbox(n, p)
	case *relFrame:
		rt.recvFrame(n, from, p.epoch, p.seq, p.msg)
	case *relAck:
		rt.recvAck(n, from, p.epoch, p.cursor)
	default:
		panic(fmt.Sprintf("core: node %d received an unknown payload %T", sn.ID, payload))
	}
}

// ObjectCount returns how many objects NewObject has made machine-wide,
// which migration policies divide by the node count for the mean resident
// count. It is kept only while a migration policy is installed, and reads 0
// otherwise: migration pins the serial engine, so the count is never
// written from two shards at once.
func (rt *RT) ObjectCount() int { return rt.objects }

// LiveFrames returns the machine-wide count of live activation frames; at
// quiescence it must be zero (the context-leak invariant).
func (rt *RT) LiveFrames() int64 {
	var total int64
	for _, n := range rt.Nodes {
		total += n.pool.Live
	}
	return total
}

// CheckQuiescence verifies that the machine reached a clean stop: no live
// frames, no queued work. It returns a diagnostic error otherwise (a
// deadlocked program: contexts waiting on futures that will never fill).
func (rt *RT) CheckQuiescence() error {
	for _, n := range rt.Nodes {
		if n.pool.Live != 0 || !n.runq.empty() || n.inbox.n != 0 {
			return fmt.Errorf("core: node %d not quiescent: %d live frames, %d runnable, %d messages",
				n.ID, n.pool.Live, n.runq.len(), n.inbox.n)
		}
		for ref, q := range n.parked {
			if q.n != 0 {
				return fmt.Errorf("core: node %d not quiescent: %d requests parked for in-flight object %v",
					n.ID, q.n, ref)
			}
		}
	}
	return rt.checkLinksQuiescent()
}

// traceEvent reports one event to the configured tracer, if any, stamped
// with the node's current clock.
func (rt *RT) traceEvent(n *NodeRT, kind uint8, m *Method, aux int64) {
	rt.traceEventAt(n, n.Sim.Clock, kind, m, aux)
}

// traceEventAt is traceEvent with an explicit timestamp; delivery-side
// events use it because a message lands at the network's event time, which
// the destination's clock need not have reached yet.
func (rt *RT) traceEventAt(n *NodeRT, at sim.Time, kind uint8, m *Method, aux int64) {
	if rt.Cfg.Tracer == nil {
		return
	}
	name := ""
	if m != nil {
		name = m.Name
	}
	if rt.parEng {
		// The trace buffer is shared across nodes: defer the append to the
		// ordered commit point so records land in total event order (the
		// fields are resolved here; only the Record call moves).
		n.Sim.Ordered(func() { rt.Cfg.Tracer.Record(n.ID, at, kind, name, aux) })
		return
	}
	rt.Cfg.Tracer.Record(n.ID, at, kind, name, aux)
}

// TotalStats aggregates the per-node execution statistics.
func (rt *RT) TotalStats() NodeStats {
	var s NodeStats
	for _, n := range rt.Nodes {
		s.add(&n.Stats)
	}
	return s
}
