package sim

import (
	"fmt"
	"math/rand/v2"
)

// Fault injection. The paper's CM-5 and T3D active-message networks deliver
// every message exactly once; real transports do not. Faults makes the
// simulated network misbehave on purpose — dropping, duplicating and
// reordering messages, and subjecting nodes to brown-outs (clock-slowdown
// windows) and full stalls — all driven by a single seeded PCG source, so
// identical seeds reproduce identical virtual executions. The runtime layer
// (internal/core) is expected to recover with its reliable-delivery
// protocol; the engine only injects.
//
// All probabilities are evaluated per message at injection time, in event
// order, so the rng consumption order is deterministic.

// Faults configures the injected misbehavior. The zero value injects
// nothing; a nil *Faults on the engine disables the layer entirely (the
// fault-free fast path is branch-identical to the pre-fault engine).
type Faults struct {
	// Seed drives the PCG source. Runs with equal seeds and equal fault
	// configurations are byte-identical.
	Seed uint64

	// Drop is the per-message probability that a message vanishes on the
	// wire (applies to every message, including acks and retransmits).
	Drop float64
	// Dup is the per-message probability that a message is delivered twice.
	Dup float64
	// Reorder is the per-message probability that a message is delayed by
	// extra jitter, letting later messages overtake it on the same link.
	Reorder float64
	// JitterMax bounds the extra latency of a reordered message; the delay
	// is drawn uniformly from [1, JitterMax]. Required if Reorder > 0.
	JitterMax Time

	// StallEvery, if positive, freezes each node for StallLen every
	// ~StallEvery of virtual time (intervals are drawn from
	// [0.5,1.5)*StallEvery). A stalled node receives messages but executes
	// nothing until the window ends.
	StallEvery Time
	// StallLen is the length of one full-stall window.
	StallLen Time

	// SlowEvery, if positive, puts each node in a brown-out for SlowLen
	// every ~SlowEvery of virtual time: its clock runs SlowFactor times
	// slower (every charged instruction costs SlowFactor).
	SlowEvery Time
	// SlowLen is the length of one brown-out window.
	SlowLen Time
	// SlowFactor is the clock multiplier during a brown-out (>= 2).
	SlowFactor int

	// CrashEvery, if positive, fail-stop crashes one node for CrashLen
	// every ~CrashEvery of virtual time (intervals drawn from
	// [0.5,1.5)*CrashEvery, measured from the previous victim's rejoin, so
	// at most one node is down at any moment). A crashed node loses every
	// message addressed to it during the window; the runtime layer's crash
	// observer is expected to discard the node's volatile state and, on
	// rejoin, bump its incarnation. Requires CrashLen < CrashEvery.
	CrashEvery Time
	// CrashLen is the downtime of one crash window.
	CrashLen Time
}

// Validate rejects out-of-range fault parameters with a descriptive error.
func (f *Faults) Validate() error {
	if f == nil {
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", f.Drop}, {"Dup", f.Dup}, {"Reorder", f.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("sim: Faults.%s = %g out of range [0,1]", p.name, p.v)
		}
	}
	if f.Reorder > 0 && f.JitterMax <= 0 {
		return fmt.Errorf("sim: Faults.Reorder = %g needs JitterMax > 0 (got %d)", f.Reorder, f.JitterMax)
	}
	if f.JitterMax < 0 {
		return fmt.Errorf("sim: Faults.JitterMax = %d is negative", f.JitterMax)
	}
	if f.StallEvery < 0 || f.StallLen < 0 || f.SlowEvery < 0 || f.SlowLen < 0 {
		return fmt.Errorf("sim: Faults stall/slow windows must be non-negative")
	}
	if f.StallEvery > 0 && f.StallLen <= 0 {
		return fmt.Errorf("sim: Faults.StallEvery = %d needs StallLen > 0", f.StallEvery)
	}
	if f.SlowEvery > 0 {
		if f.SlowLen <= 0 {
			return fmt.Errorf("sim: Faults.SlowEvery = %d needs SlowLen > 0", f.SlowEvery)
		}
		if f.SlowFactor < 2 {
			return fmt.Errorf("sim: Faults.SlowFactor = %d must be >= 2 during brown-outs", f.SlowFactor)
		}
	}
	if f.CrashEvery < 0 || f.CrashLen < 0 {
		return fmt.Errorf("sim: Faults crash windows must be non-negative")
	}
	if f.CrashEvery > 0 && f.CrashLen <= 0 {
		return fmt.Errorf("sim: Faults.CrashEvery = %d needs CrashLen > 0", f.CrashEvery)
	}
	if f.CrashEvery > 0 && f.CrashLen >= f.CrashEvery {
		return fmt.Errorf("sim: Faults.CrashLen = %d must be < CrashEvery = %d (a node must be up longer than it is down)", f.CrashLen, f.CrashEvery)
	}
	return nil
}

// active reports whether any fault is configured.
func (f *Faults) active() bool {
	if f == nil {
		return false
	}
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.StallEvery > 0 || f.SlowEvery > 0 || f.CrashEvery > 0
}

// Lossy reports whether the configuration can lose or duplicate messages —
// in which case the runtime above must provide reliable delivery.
func (f *Faults) Lossy() bool { return f != nil && (f.Drop > 0 || f.Dup > 0) }

// Crashy reports whether the configuration fail-stop crashes nodes — in
// which case the runtime above must provide reliable delivery and (for any
// state to survive) a checkpoint/restore protocol.
func (f *Faults) Crashy() bool { return f != nil && f.CrashEvery > 0 }

// FaultKind classifies one injected fault, for the observer hook.
type FaultKind uint8

const (
	// FaultDrop: a message was dropped on the wire.
	FaultDrop FaultKind = iota
	// FaultDup: a message was delivered a second time.
	FaultDup
	// FaultJitter: a message was delayed by extra latency (reordering).
	FaultJitter
	// FaultStall: a node entered a full-stall window.
	FaultStall
	// FaultSlow: a node entered a brown-out (clock-slowdown) window.
	FaultSlow
	// FaultCrash: a node fail-stop crashed (volatile state lost).
	FaultCrash
	// FaultRejoin: a crashed node came back up with a fresh incarnation.
	FaultRejoin
)

var faultNames = [...]string{"drop", "dup", "jitter", "stall", "slow", "crash", "rejoin"}

// String returns the fault kind name.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "fault?"
}

// FaultObserver is notified of every injected fault: kind, the nodes
// involved (from == to for stall/slow windows), the message payload in
// words (0 for windows), aux (extra jitter for FaultJitter, window length
// for FaultStall/FaultSlow), and at — the relevant node's clock at the
// injection point (the sender's clock for wire faults, the victim's for
// windows). The clock is passed explicitly because under the parallel
// engine wire faults are evaluated at the ordered commit point, by which
// time the sender's live clock may have advanced past the send; at is
// captured at the send instruction, so observers timestamp identically
// under either engine. Installed by the runtime layer to record trace
// events and per-node statistics; always called in ordered (single-
// threaded, total-order) context.
type FaultObserver func(kind FaultKind, from, to int, words int, aux Time, at Time)

// FaultStats counts injected faults engine-wide.
type FaultStats struct {
	Drops   int64
	Dups    int64
	Jitters int64
	Stalls  int64
	Slows   int64
	Crashes int64
	Rejoins int64
	// CrashDrops counts messages lost because their destination was down
	// when they arrived (distinct from wire Drops).
	CrashDrops int64
}

// faultState is the engine's live fault-injection state.
type faultState struct {
	cfg     *Faults
	rng     *rand.Rand
	obs     FaultObserver
	started bool
}

func newFaultState(cfg *Faults) *faultState {
	return &faultState{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}
}

// hit draws one probability decision.
func (f *faultState) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// jitter draws an extra latency in [1, max].
func (f *faultState) jitter(max Time) Time {
	if max <= 1 {
		return 1
	}
	return 1 + Time(f.rng.Int64N(int64(max)))
}

// interval draws a window gap from [0.5, 1.5) * every.
func (f *faultState) interval(every Time) Time {
	if every <= 1 {
		return 1
	}
	return every/2 + Time(f.rng.Int64N(int64(every)))
}

// SetFaults installs (or, with nil, removes) the fault-injection layer.
// Must be called before Run; the configuration must Validate.
func (e *Engine) SetFaults(cfg *Faults) {
	if cfg == nil || !cfg.active() {
		e.faults = nil
		return
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e.faults = newFaultState(cfg)
}

// SetFaultObserver installs the fault observer hook (may be nil).
func (e *Engine) SetFaultObserver(obs FaultObserver) {
	if e.faults != nil {
		e.faults.obs = obs
	}
}

// FaultStats returns the engine-wide injected-fault counts. CrashDrops are
// counted by the shard that owns the crashed destination (delivery events
// run inside parallel windows) and summed here.
func (e *Engine) FaultStats() FaultStats {
	s := e.faultStats
	s.CrashDrops = e.gsh.crashDrops
	for _, sh := range e.shards {
		if sh != e.gsh {
			s.CrashDrops += sh.crashDrops
		}
	}
	return s
}

func (e *Engine) observeFault(kind FaultKind, from, to *Node, words int, aux Time, at Time) {
	switch kind {
	case FaultDrop:
		e.faultStats.Drops++
	case FaultDup:
		e.faultStats.Dups++
	case FaultJitter:
		e.faultStats.Jitters++
	case FaultStall:
		e.faultStats.Stalls++
	case FaultSlow:
		e.faultStats.Slows++
	case FaultCrash:
		e.faultStats.Crashes++
	case FaultRejoin:
		e.faultStats.Rejoins++
	}
	if e.faults.obs != nil {
		e.faults.obs(kind, from.ID, to.ID, words, aux, at)
	}
}

// startFaultClock begins the per-node stall/brown-out window generators.
// Window events are service events: they keep firing only while real work
// remains, so a quiescent machine still quiesces.
func (e *Engine) startFaultClock() {
	f := e.faults
	if f == nil || f.started {
		return
	}
	f.started = true
	cfg := f.cfg
	if cfg.StallEvery > 0 {
		for _, n := range e.nodes {
			e.scheduleWindow(n, cfg.StallEvery, func(n *Node) {
				n.stallUntil = e.Now() + cfg.StallLen
				e.observeFault(FaultStall, n, n, 0, cfg.StallLen, n.Clock)
			})
		}
	}
	if cfg.SlowEvery > 0 {
		for _, n := range e.nodes {
			e.scheduleWindow(n, cfg.SlowEvery, func(n *Node) {
				n.slowUntil = e.Now() + cfg.SlowLen
				n.slowFactor = cfg.SlowFactor
				e.observeFault(FaultSlow, n, n, 0, cfg.SlowLen, n.Clock)
			})
		}
	}
	if cfg.CrashEvery > 0 {
		e.scheduleCrashes()
	}
}

// scheduleCrashes starts the global fail-stop crash generator. Unlike the
// per-node stall/slow windows, crashes are drawn from a single engine-wide
// clock with the next interval measured from the previous victim's rejoin,
// so at most one node is down at any moment — a checkpoint backup is never
// down at the same time as its primary. The victim for each window is drawn
// from the same seeded rng, keeping replays byte-identical.
func (e *Engine) scheduleCrashes() {
	f := e.faults
	cfg := f.cfg
	var fire func()
	fire = func() {
		if e.PendingWork() == 0 {
			return
		}
		n := e.nodes[f.rng.IntN(len(e.nodes))]
		n.downUntil = e.Now() + cfg.CrashLen
		// A down node is also stalled: the pump-gating machinery defers any
		// scheduled pump to the window edge, so nothing executes while down.
		if n.stallUntil < n.downUntil {
			n.stallUntil = n.downUntil
		}
		e.observeFault(FaultCrash, n, n, 0, cfg.CrashLen, n.Clock)
		e.ScheduleService(n.downUntil, func() {
			e.observeFault(FaultRejoin, n, n, 0, 0, n.Clock)
			e.Wake(n)
			// Next crash interval starts at this rejoin.
			e.ScheduleService(e.Now()+f.interval(cfg.CrashEvery), fire)
		})
	}
	e.ScheduleService(f.interval(cfg.CrashEvery), fire)
}

// scheduleWindow schedules the recurring window opener for one node.
func (e *Engine) scheduleWindow(n *Node, every Time, open func(*Node)) {
	var fire func()
	fire = func() {
		// Check for real work before opening: the Wake below schedules a
		// pump event, which must not itself count as a reason to keep
		// generating windows.
		if e.PendingWork() == 0 {
			return
		}
		open(n)
		e.Wake(n) // the window must end even on an otherwise idle node
		e.ScheduleService(e.Now()+e.faults.interval(every), fire)
	}
	e.ScheduleService(e.Now()+e.faults.interval(every), fire)
}
