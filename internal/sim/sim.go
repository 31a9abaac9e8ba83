// Package sim implements a deterministic discrete-event simulator of a
// distributed-memory multicomputer. It stands in for the paper's CM-5 and
// T3D: each node is a sequential processor with its own virtual clock
// (measured in instructions, see package instr), and nodes exchange messages
// over a network with configurable latency.
//
// The engine is fully deterministic: events are totally ordered by
// (time, context, per-context sequence), so identical inputs always produce
// identical virtual executions regardless of the host machine. Two execution
// engines dispatch that identical order: the serial engine (the oracle — one
// event queue, one loop) and a conservative parallel engine (see parallel.go)
// that shards the nodes across goroutines and synchronizes on windows derived
// from the minimum network latency. Results are byte-identical either way;
// the choice is host-side performance only (the -engine flag).
//
// The division of labor with the runtime (internal/core) is: sim owns
// virtual time, event dispatch, and message transport; the runtime owns what
// a node *does* when it has work (scheduling contexts, running message
// handlers) and what a message means. A delivery is a typed event that
// carries its destination node and an opaque payload: at arrival the engine
// does the transport's share (crash-window loss, receive statistics, waking
// the node) and hands the payload to the runtime, which plugs in as a
// Runner. A timer event carries the *Timer its owner embeds, whose callback
// was bound once when the owner was built; only host-scheduled events carry
// a callback of their own.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/instr"
)

// Time is virtual time, in instructions (single-issue processors).
type Time = instr.Instr

// Runner is the per-node work source supplied by the runtime layer.
type Runner interface {
	// RunOne executes the next pending task on node n — a message handler
	// or a ready context — advancing n.Clock and charging n.Counters.
	// It returns false if the node has no pending work.
	RunOne(n *Node) bool
	// Deliver hands node n the payload of one message that node `from`
	// sent (SendAt, SendRouted) and that has just arrived. The engine has
	// already counted it in n.MsgsRecv and wakes n after Deliver returns; a
	// message arriving while n is crashed is lost before it gets here.
	Deliver(n *Node, from int, payload any)
}

// Node is one simulated processor.
type Node struct {
	ID    int
	Clock Time // this processor's virtual time
	// Counters records where this node's instructions went.
	Counters instr.Counters

	// Message statistics.
	MsgsSent  int64
	MsgsRecv  int64
	WordsSent int64

	eng         *Engine
	sh          *shard // the shard owning this node's events
	pumpPending bool
	// pumpFn is this node's pump callback, built once so scheduling a pump
	// allocates nothing.
	pumpFn func()

	// ctxSeq numbers events scheduled in this node's context (pumps, wakes,
	// timer armings); xmitSeq numbers message deliveries originated by this
	// node. Separate per-context counters — instead of one engine-global
	// insertion sequence — make the total event order (at, src, seq)
	// computable identically by the serial and the parallel engine: a
	// context's events are numbered by that context's own progress, which
	// both engines advance at the same points of the total order.
	ctxSeq  uint64
	xmitSeq uint64

	// Fault-injection windows (see faults.go). stallUntil freezes the node
	// until that time; slowUntil/slowFactor multiply every charged
	// instruction during a brown-out; downUntil marks a fail-stop crash
	// window during which every arriving message is lost.
	stallUntil Time
	slowUntil  Time
	slowFactor int
	downUntil  Time
}

// Down reports whether the node is inside a fail-stop crash window at the
// current event time.
func (n *Node) Down() bool { return n.downUntil > n.Now() }

// Now returns the current event time in this node's context: the owning
// shard's clock while a parallel window executes, the engine's global event
// time otherwise. On the serial engine both are the same quantity.
func (n *Node) Now() Time {
	if n.eng.phase == phaseWindow {
		return n.sh.now
	}
	return n.eng.gsh.now
}

// shard owns a partition of the nodes: their pending events, their portion
// of the event-time clock, and the bookkeeping the engine used to keep
// globally. The serial engine is the degenerate case of exactly one shard
// holding every node and the global context.
type shard struct {
	eng *Engine
	q   *radixQueue
	now Time

	// Key of the event currently dispatching, stamped onto ordered-commit
	// log entries so cross-shard side effects replay in total order.
	curAt  Time
	curSrc int32
	curSeq uint64

	servicePending   int
	cancelledPending int
	eventCount       int64
	crashDrops       int64

	// log accumulates this shard's deferred side effects during a parallel
	// window (message transmissions, observer sinks); the barrier merges the
	// shards' logs by event key and replays them single-threaded. Unused by
	// the serial engine, which executes the same effects inline at the same
	// points of the total order.
	log []logEntry

	// start releases this shard's worker for one window: the value is the
	// dispatch horizon (exclusive). Closed to stop the worker.
	start chan Time
}

// logEntry is one deferred side effect, stamped with the key of the event
// that generated it.
type logEntry struct {
	at  Time
	src int32
	seq uint64
	fn  func()
}

// Execution phases. The serial engine stays in phaseOrdered forever: every
// event dispatch is already in total order, so side effects run inline. The
// parallel engine alternates phaseWindow (shards dispatching concurrently —
// side effects must defer to the log) with phaseOrdered (global events,
// barrier replay — single-threaded in total order).
const (
	phaseOrdered = iota
	phaseWindow
)

// NetDelayFunc computes the transport latency of one physical transmission:
// the runtime installs its topology model here (SetNetDelay) so the engine
// can evaluate contention-dependent latencies inside the ordered commit
// phase, where shared link state is safe to touch.
type NetDelayFunc func(from, to, words int, depart, flat Time) Time

// Engine is the discrete-event core.
type Engine struct {
	nodes []*Node

	// gsh holds the global context: host-scheduled events (Schedule,
	// ScheduleService) stamped src = srcGlobal. On the serial engine it is
	// also shards[0] — the single queue holding everything.
	gsh    *shard
	shards []*shard
	gseq   uint64

	runner Runner

	// kind is the requested engine (see SetDefaultEngine); par reports that
	// parallel execution is actually enabled (EnableParallel succeeded).
	kind        EngineKind
	shardTarget int
	par         bool
	phase       uint8
	lookahead   Time
	netHook     NetDelayFunc

	// Worker pool for parallel windows (see parallel.go).
	wg        sync.WaitGroup
	workersUp bool

	// Fault injection (nil when fault-free; see faults.go).
	faults     *faultState
	faultStats FaultStats

	// chargeObs, if set, observes every clock advance (see SetChargeObserver).
	chargeObs ChargeObserver

	// merged is the barrier's reusable log-merge buffer.
	merged []logEntry
}

// NewEngine creates an engine with n nodes, all clocks at zero. The engine
// kind comes from SetDefaultEngine; a parallel-kind engine still dispatches
// serially until the runtime calls EnableParallel with a positive lookahead.
func NewEngine(n int) *Engine {
	e := &Engine{
		nodes:       make([]*Node, n),
		kind:        defaultEngine,
		shardTarget: defaultShards,
	}
	sh := &shard{eng: e, q: new(radixQueue)}
	e.gsh = sh
	e.shards = []*shard{sh}
	for i := range e.nodes {
		n := &Node{ID: i, eng: e, sh: sh}
		n.pumpFn = func() { e.pump(n) }
		e.nodes[i] = n
	}
	return e
}

// SetRunner installs the work source shared by all nodes. It must be set
// before Run.
func (e *Engine) SetRunner(r Runner) { e.runner = r }

// SetNetDelay installs the topology-latency hook applied to every routed
// transmission (SendRouted). The engine calls it in ordered-commit context —
// serially, in total event order — so implementations may mutate shared
// contention state (link busy times) without synchronization.
func (e *Engine) SetNetDelay(hook NetDelayFunc) { e.netHook = hook }

// ChargeObserver observes one virtual-clock advance on one node: the clock
// value before the advance, the accounting category, and the cost applied
// (post any brown-out multiplier). Every clock mutation — Charge and the
// pump's idle accounting — is reported, so per node the observed costs are
// contiguous and sum exactly to the final clock. Observers must not charge
// or schedule; they exist so an observability layer can attribute cycles
// without perturbing the simulation. Under the parallel engine the observer
// is called from shard goroutines inside windows: implementations that
// record into shared state must defer the recording through Node.Ordered
// (the runtime's metrics installer does).
type ChargeObserver func(node int, op instr.Op, start Time, cost Time)

// SetChargeObserver installs obs (nil removes it). Install before Run.
func (e *Engine) SetChargeObserver(obs ChargeObserver) { e.chargeObs = obs }

// Nodes returns the simulated nodes.
func (e *Engine) Nodes() []*Node { return e.nodes }

// Node returns node i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// NumNodes returns the machine size.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Now returns the engine's current global event time. Individual node clocks
// may be ahead of it (a node executes a whole task within one event); during
// a parallel window individual shard clocks advance past it — node-context
// code must use Node.Now.
func (e *Engine) Now() Time { return e.gsh.now }

// EventCount returns the total number of events dispatched.
func (e *Engine) EventCount() int64 {
	c := e.gsh.eventCount
	for _, sh := range e.shards {
		if sh != e.gsh {
			c += sh.eventCount
		}
	}
	return c
}

// push inserts one event into the shard's queue.
func (sh *shard) push(ev event) {
	if ev.dst == kindService {
		sh.servicePending++
	}
	sh.q.push(ev)
}

// dispatch runs one event: advances the shard clock and, with the event's
// key current (for ordered-log stamping), runs its callback, fires its
// timer, or performs its delivery.
func (sh *shard) dispatch(ev event) {
	sh.now = ev.at
	sh.curAt, sh.curSrc, sh.curSeq = ev.at, ev.src, ev.seq
	sh.eventCount++
	switch ev.dst {
	case kindCall:
		ev.p.(func())()
	case kindService:
		sh.servicePending--
		ev.p.(func())()
	case kindTimer:
		t := ev.p.(*Timer)
		if t.seq != ev.seq {
			// A stopped or re-armed timer's old arming that escaped
			// compaction: its slot pops here, advancing event time but
			// running nothing.
			sh.cancelledPending--
			return
		}
		t.seq = 0
		t.fn()
	default:
		sh.arrive(sh.eng.nodes[ev.dst], xmitNode(ev.src), ev.p)
	}
}

// arrive performs one physical delivery at node `to`: a message arriving
// inside the destination's crash window is lost — the node's NIC is down
// with the rest of it. Otherwise it is counted, handed to the runner, and
// the node woken to handle it.
func (sh *shard) arrive(to *Node, from int, payload any) {
	if to.downUntil > sh.now {
		sh.crashDrops++
		return
	}
	to.MsgsRecv++
	e := sh.eng
	e.runner.Deliver(to, from, payload)
	e.Wake(to)
}

// Schedule registers fn to run at virtual time at, in the global context
// (host setup, workload injection, service generators). Scheduling in the
// past is a programming error and panics: it would break determinism. Under
// the parallel engine the global context must not be touched from inside a
// window — node-context code schedules through a node Timer and Wake.
func (e *Engine) Schedule(at Time, fn func()) {
	e.pushGlobal(at, fn, kindCall)
}

// ScheduleService registers a service event: a periodic tick (migration
// heartbeat, fault-window generator) that must not keep the machine alive on
// its own. PendingWork excludes service events, so services that reschedule
// only while PendingWork() > 0 cannot sustain each other indefinitely.
func (e *Engine) ScheduleService(at Time, fn func()) {
	e.pushGlobal(at, fn, kindService)
}

// pushGlobal queues a call or service event (kind) with payload p in the
// global context.
func (e *Engine) pushGlobal(at Time, p any, kind int32) {
	if e.phase == phaseWindow {
		panic("sim: global-context schedule from inside a parallel window")
	}
	if at < e.gsh.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.gsh.now))
	}
	e.gseq++
	e.gsh.push(event{at: at, src: srcGlobal, seq: e.gseq, p: p, dst: kind})
}

// schedule queues a call, service or timer event (kind) with payload p in
// node n's context: the event is stamped with n's identity and n's own
// sequence counter, which both engines advance at the same points of the
// total order.
func (n *Node) schedule(at Time, p any, kind int32) {
	if at < n.Now() {
		panic(fmt.Sprintf("sim: node %d schedule at %d before now %d", n.ID, at, n.Now()))
	}
	n.ctxSeq++
	n.sh.push(event{at: at, src: int32(n.ID), seq: n.ctxSeq, p: p, dst: kind})
}

// Timer is a cancellable callback in one node's context that its owner
// embeds and re-arms in place: the runtime's retransmit, delayed-ack and
// group-commit flush timers. Init binds the node and the callback once,
// when the owner is built, so arming allocates nothing: each Reset pushes
// one event carrying the *Timer, stamped in the node's context exactly as
// any other event the node schedules.
//
// That event's seq doubles as the generation stamp. The timer remembers the
// seq of its current arming (0 while unarmed), so dispatch and compaction
// recognise an event the timer has since been stopped or re-armed past, and
// skip it. A stale event usually stays queued until its time comes
// (running nothing, advancing no node clock, and not counting as pending
// work — PendingWork excludes stale armings, so a stopped retransmit timer
// cannot spuriously sustain a periodic service past quiescence). Once stale
// armings exceed half their shard's queue the queue is compacted in place,
// so at scale dead retransmit armings are bounded dead weight, not
// unbounded.
//
// Compaction is shard-local: the trigger counter, the sweep, and the queue
// all belong to the shard that owns the timer's node, so one shard
// compacting cannot reorder (or even observe) another shard's pending
// events. A timer must be armed and stopped from its node's context — the
// node's events or the global phase — which is where every runtime call
// site already lives; a cross-shard call inside a window would be a data
// race by construction and is caught by the race detector.
type Timer struct {
	n   *Node
	fn  func()
	seq uint64 // seq of the current arming's event; 0 while unarmed
	at  Time   // deadline of the current arming
}

// Init binds t to node n's context and to the callback fn it runs when it
// fires. Call it once, before the first Reset.
func (t *Timer) Init(n *Node, fn func()) { t.n, t.fn = n, fn }

// Reset arms t to fire after delay (from the current event time), replacing
// its current arming if it has one.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	if delay < 0 {
		delay = 0
	}
	n := t.n
	t.at = n.Now() + delay
	n.schedule(t.at, t, kindTimer)
	t.seq = n.ctxSeq
}

// Stop cancels t's current arming. Stopping an unarmed timer — one that
// fired, was stopped, or was never armed — is a no-op.
func (t *Timer) Stop() {
	if t.seq == 0 {
		return
	}
	t.seq = 0
	sh := t.n.sh
	sh.cancelledPending++
	sh.maybeCompact()
}

// Armed reports whether t has an arming that has not fired or been stopped.
// A timer is disarmed before its callback runs, so the callback may re-arm
// it.
func (t *Timer) Armed() bool { return t.seq != 0 }

// When returns the deadline of t's current arming; it is meaningful only
// while t is armed.
func (t *Timer) When() Time { return t.at }

// Ordered defers fn to the engine's next ordered-commit point when called
// from inside a parallel window, and runs it inline otherwise. Deferred
// functions replay single-threaded in total event order, keyed by the event
// that called Ordered — so sinks shared across nodes (trace buffers, metrics
// registries, application-level accounting) observe the identical sequence
// under both engines. On the serial engine this is always an inline call:
// the serial path pays no closure or log cost beyond this method.
func (n *Node) Ordered(fn func()) {
	if n.eng.phase == phaseWindow {
		sh := n.sh
		sh.log = append(sh.log, logEntry{sh.curAt, sh.curSrc, sh.curSeq, fn})
		return
	}
	fn()
}

// compactMinQueue: below this queue length compaction is not worth the
// sweep; the dead slots pop out soon enough on their own.
const compactMinQueue = 64

// maybeCompact removes stale timer events from the shard's queue in place
// when they outnumber the live events. The trigger and the removal are
// functions of (queue contents, cancel order) only, never of the queue's
// layout, so determinism is unaffected.
func (sh *shard) maybeCompact() {
	n := sh.q.len()
	if n < compactMinQueue || sh.cancelledPending <= n/2 {
		return
	}
	sh.cancelledPending -= sh.q.compact(staleTimer)
}

// staleTimer reports whether ev is a timer arming that its timer has since
// been stopped or re-armed past.
func staleTimer(ev *event) bool {
	return ev.dst == kindTimer && ev.p.(*Timer).seq != ev.seq
}

// Wake ensures node n will get a chance to run pending work. If a pump is
// already scheduled for n this is a no-op; otherwise a pump event is
// scheduled at the node's current clock (or now, whichever is later), in n's
// own context.
func (e *Engine) Wake(n *Node) {
	if n.pumpPending {
		return
	}
	n.pumpPending = true
	at := n.Now()
	if n.Clock > at {
		at = n.Clock
	}
	n.schedule(at, n.pumpFn, kindCall)
}

// pump runs exactly one task on n, then reschedules itself while work
// remains. Idle time (clock behind event time) is charged to OpIdle.
// A node inside a full-stall window executes nothing until the window ends:
// its pump is deferred to the window edge and arrived work queues up.
func (e *Engine) pump(n *Node) {
	n.pumpPending = false
	now := n.sh.now
	if n.stallUntil > now {
		// Deferred as a service event: the stalled pump will still run at
		// the window edge, but must not count as pending real work (the
		// window generator would see it and keep opening windows forever).
		n.pumpPending = true
		n.schedule(n.stallUntil, n.pumpFn, kindService)
		return
	}
	if n.Clock < now {
		if e.chargeObs != nil {
			e.chargeObs(n.ID, instr.OpIdle, n.Clock, now-n.Clock)
		}
		n.Counters.Add(instr.OpIdle, now-n.Clock)
		n.Clock = now
	}
	if e.runner.RunOne(n) {
		n.pumpPending = true
		at := n.Clock
		if at < now {
			at = now
		}
		n.schedule(at, n.pumpFn, kindCall)
	}
}

// SendAt transports a message from node `from` to node `to`, departing at
// depart and arriving after `latency` virtual time units, where the engine
// hands payload to the runner's Deliver on `to` (see Runner). The payload is
// opaque to the engine; the runtime chooses what it carries. Payload words
// are counted for statistics only; serialization costs are charged by the
// runtime layer. A node-side send departs at the sender's clock; timer-driven
// NIC-level traffic (acks, retransmissions) departs at the current event
// time: such frames leave when their timer fires, not serialized behind
// whatever the node's CPU is executing (its clock may be far ahead of the
// event driving the timer).
func (e *Engine) SendAt(from, to *Node, depart, latency Time, words int, payload any) {
	e.sendCommon(from, to, depart, latency, words, false, payload)
}

// SendRouted is SendAt routed through the installed topology hook (see
// SetNetDelay): the final latency is computed at the engine's ordered-commit
// point — in total event order, where shared link-contention state is safe —
// from the departure time and the flat fallback latency. With no hook
// installed the flat latency is used as-is.
func (e *Engine) SendRouted(from, to *Node, depart, flat Time, words int, payload any) {
	e.sendCommon(from, to, depart, flat, words, true, payload)
}

// sendCommon charges sender statistics immediately (they are sender-local)
// and routes the transmission itself — fault draws, topology latency, the
// delivery push — through the ordered-commit point: inline on the serial
// engine, deferred to the barrier under a parallel window. The sender's
// clock and the event time are captured here, at the send instruction, so
// deferred processing observes the values the serial engine would have.
func (e *Engine) sendCommon(from, to *Node, depart, lat Time, words int, routed bool, payload any) {
	from.MsgsSent++
	from.WordsSent += int64(words)
	if e.phase == phaseWindow {
		sh := from.sh
		base, clk := sh.now, from.Clock
		sh.log = append(sh.log, logEntry{sh.curAt, sh.curSrc, sh.curSeq, func() {
			e.xmit(from, to, depart, lat, words, routed, base, clk, payload)
		}})
		return
	}
	e.xmit(from, to, depart, lat, words, routed, e.gsh.now, from.Clock, payload)
}

// xmit performs the ordered half of one transmission: topology latency,
// fault draws (in total event order, off the single seeded source), and the
// delivery-event push. base is the event time of the send instruction (the
// arrival clamp floor); clk is the sender's clock then (the trace timestamp
// of any injected fault).
func (e *Engine) xmit(from, to *Node, depart, lat Time, words int, routed bool, base, clk Time, payload any) {
	if routed && e.netHook != nil {
		lat = e.netHook(from.ID, to.ID, words, depart, lat)
	}
	if e.par && lat < e.lookahead {
		panic(fmt.Sprintf("sim: transmission latency %d below the %d-instruction lookahead; the conservative window is unsound", lat, e.lookahead))
	}
	arrive := depart + lat
	if arrive < base {
		arrive = base
	}
	if f := e.faults; f != nil {
		cfg := f.cfg
		if f.hit(cfg.Drop) {
			e.observeFault(FaultDrop, from, to, words, 0, clk)
			return
		}
		if f.hit(cfg.Reorder) {
			j := f.jitter(cfg.JitterMax)
			e.observeFault(FaultJitter, from, to, words, j, clk)
			arrive += j
		}
		if f.hit(cfg.Dup) {
			e.observeFault(FaultDup, from, to, words, 0, clk)
			dup := arrive + f.jitter(cfg.JitterMax+1)
			e.deliverAt(from, to, dup, payload)
		}
	}
	e.deliverAt(from, to, arrive, payload)
}

// deliverAt schedules one physical delivery of payload at node `to`. The
// event is stamped in the sender's transmission context — srcXmit(from),
// sequenced by the sender's xmitSeq at processing time — which both engines
// reach in the same total order, so delivery events sort identically under
// either.
func (e *Engine) deliverAt(from, to *Node, arrive Time, payload any) {
	from.xmitSeq++
	to.sh.push(event{at: arrive, src: srcXmit(from.ID), seq: from.xmitSeq, p: payload, dst: int32(to.ID)})
}

// Run dispatches events until none remain. The runtime layer keeps nodes
// pumping while they have work, so an empty event queue means global
// quiescence: every node idle with empty queues.
func (e *Engine) Run() {
	e.startFaultClock()
	if e.par {
		e.runParallel(maxTime)
		return
	}
	sh := e.gsh
	for sh.q.len() > 0 {
		sh.dispatch(sh.q.pop())
	}
}

// maxTime is the no-limit sentinel for RunUntil-style bounds.
const maxTime = Time(1)<<62 - 1

// RunUntil dispatches events with time <= t, then stops. It returns true if
// events remain.
func (e *Engine) RunUntil(t Time) bool {
	e.startFaultClock()
	if e.par {
		return e.runParallel(t)
	}
	sh := e.gsh
	for sh.q.len() > 0 && sh.q.peekAt() <= t {
		sh.dispatch(sh.q.pop())
	}
	return sh.q.len() > 0
}

// Pending returns the number of undispatched events.
func (e *Engine) Pending() int {
	p := e.gsh.q.len()
	for _, sh := range e.shards {
		if sh != e.gsh {
			p += sh.q.len()
		}
	}
	return p
}

// PendingWork returns the number of undispatched events that represent real
// work: service events and cancelled timers are excluded. Periodic services
// use it to stop rescheduling themselves once the machine is otherwise idle
// (counting each other — or a dead retransmit timer's heap slot — would
// sustain them forever).
func (e *Engine) PendingWork() int {
	w := e.gsh.q.len() - e.gsh.servicePending - e.gsh.cancelledPending
	for _, sh := range e.shards {
		if sh != e.gsh {
			w += sh.q.len() - sh.servicePending - sh.cancelledPending
		}
	}
	return w
}

// Step dispatches a single event, returning false if none remain. Under the
// parallel engine one "step" is one synchronization round: a single global
// event, or one full window plus its barrier.
func (e *Engine) Step() bool {
	if e.par {
		return e.stepParallel()
	}
	sh := e.gsh
	if sh.q.len() == 0 {
		return false
	}
	sh.dispatch(sh.q.pop())
	return true
}

// MaxClock returns the maximum node clock — the parallel completion time.
func (e *Engine) MaxClock() Time {
	var m Time
	for _, n := range e.nodes {
		if n.Clock > m {
			m = n.Clock
		}
	}
	return m
}

// TotalCounters sums the per-node counters.
func (e *Engine) TotalCounters() instr.Counters {
	var c instr.Counters
	for _, n := range e.nodes {
		c.AddAll(&n.Counters)
	}
	return c
}

// TotalMessages returns the total number of messages sent.
func (e *Engine) TotalMessages() int64 {
	var m int64
	for _, n := range e.nodes {
		m += n.MsgsSent
	}
	return m
}

// Charge advances node n's clock by cost instructions, accounted under op.
// During a brown-out window (see Faults) every instruction costs SlowFactor.
func Charge(n *Node, op instr.Op, cost instr.Instr) {
	if n.slowFactor > 1 && n.Clock < n.slowUntil {
		cost *= instr.Instr(n.slowFactor)
	}
	if n.eng.chargeObs != nil && cost != 0 {
		n.eng.chargeObs(n.ID, op, n.Clock, cost)
	}
	n.Clock += cost
	n.Counters.Add(op, cost)
}

// event is one scheduled occurrence: a callback, a timer, or a delivery.
// The (at, src, seq) triple is the engine's total order: src identifies the
// scheduling context (srcGlobal the global context, srcXmit(n) deliveries
// transmitted by node n, [0, N) node n's own events) and seq is that
// context's own counter — so any two events compare identically whether they
// were queued by the serial loop or by different shards of the parallel
// engine.
//
// The class ordering (global < transmission < node) is load-bearing for the
// parallel engine: every same-instant child is scheduled in a context that
// sorts at or after its parent's (global events spawn anything; deliveries
// wake node pumps; node events reschedule only their own context at higher
// seq), so dispatch order never inverts key order, and the barrier's
// key-sorted replay of deferred side effects reproduces the serial engine's
// dispatch order exactly.
//
// What happens at dispatch is folded into one payload p and one int32, dst,
// to keep the event at 40 bytes (TestEventLayout): dst >= 0 makes the event
// a delivery of payload p to node dst, from the node its src names; a
// negative dst is a kind, and p a func() (kindCall, kindService) or the
// *Timer (kindTimer), whose current arming is the event with its seq.
type event struct {
	at  Time
	seq uint64
	p   any
	src int32
	dst int32
}

// Non-delivery event kinds, stored in event.dst.
const (
	// kindCall runs the func() payload: a host-scheduled callback or a pump.
	kindCall int32 = -1 - iota
	// kindService runs the func() payload as a service event, which
	// PendingWork does not count (see ScheduleService).
	kindService
	// kindTimer fires the *Timer payload unless the timer was stopped or
	// re-armed since this event was pushed.
	kindTimer
)

// srcGlobal is the global context's src: the minimum, so at any instant
// host-scheduled events dispatch before deliveries and node events (the
// parallel round relies on this when it runs a global event due at the same
// time as the earliest node event).
const srcGlobal int32 = math.MinInt32

// srcXmit is the transmission context of sender node id: below every node
// context (so a delivery's same-instant children — pump wakes — sort after
// it) and above srcGlobal.
func srcXmit(id int) int32 { return int32(-2 - id) }

// xmitNode inverts srcXmit: the sender of a delivery stamped src.
func xmitNode(src int32) int { return int(-2 - src) }
