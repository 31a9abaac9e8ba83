// Conservative parallel execution (PDES) for the discrete-event engine.
//
// The parallel engine partitions the simulated nodes into shards — each shard
// owning its nodes' pending events and a private portion of the clock — and
// alternates two phases:
//
//	window:  every shard concurrently dispatches its events with time below a
//	         horizon that no cross-shard message can land under. Side effects
//	         that cross shards (message transmissions, shared observer sinks)
//	         are not performed; they are appended to a per-shard commit log,
//	         stamped with the key of the generating event.
//	barrier: the shard logs are merged, sorted by event key, and replayed
//	         single-threaded — fault draws, topology latencies, and delivery
//	         pushes happen here, in exactly the total order the serial engine
//	         would have used. Global-context events (workload injection,
//	         service generators) also dispatch here, one at a time, whenever
//	         the next global event is not later than the earliest node event.
//
// The horizon for a window starting when the earliest pending node event is
// at p is min(p + L, g), where L is the lookahead — the minimum latency of
// any transmission, supplied by the runtime from the machine cost tables —
// and g is the next global event. Soundness: any event a window dispatches
// has time >= p, so any message it transmits arrives at >= p + L >= horizon;
// deferred to the barrier, the delivery lands outside the window that
// created it, never inside. The engine asserts lat >= L on every replayed
// transmission. Intra-shard scheduling (timers, pumps, wakes) is exempt from
// the lookahead: it stays inside the owning shard's queue and may land below
// the horizon.
//
// Determinism is not statistical but exact: because every event carries the
// total-order key (at, src, seq) computed from per-context counters, and all
// cross-shard effects commit in key order, the parallel engine dispatches
// the identical event sequence as the serial engine — byte-identical traces
// and tables, checked by golden tests against the serial oracle.
package sim

import (
	"runtime"
	"sort"
	"strings"
)

// EngineKind selects the execution engine.
type EngineKind int

const (
	// EngineSerial is the oracle: one queue, one loop.
	EngineSerial EngineKind = iota
	// EngineParallel shards nodes across goroutines under conservative
	// window synchronization. Requires the runtime to supply a positive
	// lookahead (EnableParallel); configurations without one fall back to
	// serial dispatch (Workers() reports the truth).
	EngineParallel
)

func (k EngineKind) String() string {
	if k == EngineParallel {
		return "parallel"
	}
	return "serial"
}

var (
	defaultEngine = EngineSerial
	defaultShards = 0 // 0 = GOMAXPROCS, capped by maxShards
)

// maxShards bounds the shard count: windows at our scales hold far too few
// events to feed more workers, and the barrier cost grows with each.
const maxShards = 16

// SetDefaultEngine sets the engine kind used by subsequently constructed
// engines and returns the previous default. It is for process startup (flag
// wiring) and test scoping, not concurrent use.
func SetDefaultEngine(k EngineKind) EngineKind {
	prev := defaultEngine
	defaultEngine = k
	return prev
}

// SetDefaultShards sets the shard count used by subsequently constructed
// parallel engines (0 = one per available CPU, capped at maxShards) and
// returns the previous default.
func SetDefaultShards(n int) int {
	prev := defaultShards
	defaultShards = n
	return prev
}

// EngineByName maps flag spellings to engine kinds.
func EngineByName(name string) (EngineKind, bool) {
	switch strings.ToLower(name) {
	case "serial", "":
		return EngineSerial, true
	case "parallel", "pdes":
		return EngineParallel, true
	}
	return EngineSerial, false
}

// ParallelActive reports whether parallel dispatch is actually enabled —
// the engine is parallel-kind and the runtime supplied a usable lookahead.
func (e *Engine) ParallelActive() bool { return e.par }

// Workers returns the number of goroutines that will dispatch events: the
// shard count when parallel execution is active, 1 otherwise. Benchmarks
// record this so a serial fallback can never masquerade as a parallel win.
func (e *Engine) Workers() int {
	if e.par {
		return len(e.shards)
	}
	return 1
}

// EnableParallel switches a parallel-kind engine into sharded execution.
// lookahead must be a lower bound on the latency of every transmission the
// run will perform — the runtime derives it from the machine cost tables
// (min of the network and reply latencies, or the topology's minimum hop
// cost). Returns false — leaving the engine serial — when the engine is not
// parallel-kind, the lookahead is not positive, or the machine is too small
// to shard. Must be called before any events are scheduled.
func (e *Engine) EnableParallel(lookahead Time) bool {
	if e.kind != EngineParallel || e.par || lookahead <= 0 || len(e.nodes) < 2 {
		return false
	}
	if e.Pending() != 0 {
		panic("sim: EnableParallel after events were scheduled")
	}
	target := e.shardTarget
	if target <= 0 {
		target = runtime.GOMAXPROCS(0)
	}
	// Even on one CPU an explicitly requested parallel engine gets real
	// shards: the point of -engine parallel is the execution model (and
	// exercising it under the race detector), not only the host speedup.
	if target < 2 {
		target = 2
	}
	if target > maxShards {
		target = maxShards
	}
	if target > len(e.nodes) {
		target = len(e.nodes)
	}
	shards := make([]*shard, target)
	for i := range shards {
		shards[i] = &shard{eng: e, q: new(radixQueue)}
	}
	// Block partition: shard s owns nodes [s*N/S, (s+1)*N/S) — neighbors in
	// ID space share a shard, which for grid apps keeps most traffic
	// shard-local. The global context keeps its own queue (e.gsh).
	n := len(e.nodes)
	for i, nd := range e.nodes {
		nd.sh = shards[i*target/n]
	}
	e.shards = shards
	e.par = true
	e.lookahead = lookahead
	return true
}

// runWindow dispatches this shard's events strictly below horizon. Called
// from the shard's worker goroutine during windows (and directly by Step's
// single-threaded round).
func (sh *shard) runWindow(horizon Time) {
	for sh.q.len() > 0 && sh.q.peekAt() < horizon {
		sh.dispatch(sh.q.pop())
	}
}

// work is the per-shard worker loop: each value received on start is one
// window's horizon; the channel closing stops the worker.
func (sh *shard) work() {
	for horizon := range sh.start {
		sh.runWindow(horizon)
		sh.eng.wg.Done()
	}
}

func (e *Engine) startWorkers() {
	if e.workersUp {
		return
	}
	e.workersUp = true
	for _, sh := range e.shards {
		sh.start = make(chan Time, 1)
		go sh.work()
	}
}

func (e *Engine) stopWorkers() {
	if !e.workersUp {
		return
	}
	e.workersUp = false
	for _, sh := range e.shards {
		close(sh.start)
	}
}

// nextTimes returns the time of the earliest pending node event (p) and of
// the earliest global event (g), maxTime when none.
func (e *Engine) nextTimes() (p, g Time) {
	p, g = maxTime, maxTime
	for _, sh := range e.shards {
		if sh.q.len() > 0 {
			if at := sh.q.peekAt(); at < p {
				p = at
			}
		}
	}
	if e.gsh.q.len() > 0 {
		g = e.gsh.q.peekAt()
	}
	return p, g
}

// round performs one synchronization round: a single global event when it is
// due (g <= p: at equal times the global context sorts first, src -1), or
// one parallel window otherwise. seq=true runs the window on the calling
// goroutine (Step); otherwise the worker pool is used. Returns false when no
// events at or below limit remain.
func (e *Engine) round(limit Time, seq bool) bool {
	p, g := e.nextTimes()
	if p == maxTime && g == maxTime {
		return false // both queues empty (limit can itself be maxTime)
	}
	if p > limit && g > limit {
		return false
	}
	if g <= p {
		e.gsh.dispatch(e.gsh.q.pop())
		return true
	}
	horizon := p + e.lookahead
	if g < horizon {
		horizon = g
	}
	if limit != maxTime && limit+1 < horizon {
		horizon = limit + 1
	}
	e.phase = phaseWindow
	if seq {
		for _, sh := range e.shards {
			sh.runWindow(horizon)
		}
	} else {
		e.wg.Add(len(e.shards))
		for _, sh := range e.shards {
			sh.start <- horizon
		}
		e.wg.Wait()
	}
	e.phase = phaseOrdered
	e.replay()
	return true
}

// replay is the barrier's commit step: merge the shards' deferred side
// effects, sort by the generating event's total-order key, and run them
// single-threaded. Each shard's log is already key-sorted (a shard dispatches
// in key order), and entries from the same event are contiguous in one
// shard's log, so the stable sort preserves within-event program order.
func (e *Engine) replay() {
	m := e.merged[:0]
	for _, sh := range e.shards {
		m = append(m, sh.log...)
		sh.log = sh.log[:0]
	}
	sort.SliceStable(m, func(i, j int) bool {
		a, b := &m[i], &m[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range m {
		m[i].fn()
		m[i].fn = nil
	}
	e.merged = m[:0]
}

// runParallel drives rounds until no events at or below limit remain,
// returning true if later events are still pending.
func (e *Engine) runParallel(limit Time) bool {
	e.startWorkers()
	defer e.stopWorkers()
	for e.round(limit, false) {
	}
	return e.Pending() > 0
}

// stepParallel runs one synchronization round on the calling goroutine.
func (e *Engine) stepParallel() bool {
	return e.round(maxTime, true)
}
