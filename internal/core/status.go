package core

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Status is what a method body returns to the runtime. Bodies are resumable
// state machines (the shape of the C code the Concert compiler emitted):
// they execute from fr.PC and return one of these.
type Status uint8

const (
	// Done: the activation completed and determined its result (it called
	// Reply, or forwarded and the reply already landed). Its frame can be
	// reclaimed.
	Done Status = iota
	// Unwound: the activation could not complete synchronously. Its frame
	// has been promoted to a heap context and is either runnable (enqueued),
	// waiting on futures, or parked on a lock. A stack caller receiving this
	// must itself unwind (paper Figure 6).
	Unwound
	// Forwarded: the activation completed its execution but passed its
	// reply obligation elsewhere (tail-forward or captured continuation);
	// the result will be determined by another party.
	Forwarded
)

// CallStatus is what Invoke returns to the calling body.
type CallStatus uint8

const (
	// OK: the invocation completed synchronously; the destination future
	// slot is full.
	OK CallStatus = iota
	// Async: the invocation was issued asynchronously (remote message or
	// heap context); the destination slot will fill later. Only returned to
	// heap-mode callers — touch before using the value.
	Async
	// NeedUnwind: stack-mode speculation failed (the callee blocked, the
	// target was remote or locked, or a forwarded reply has not yet
	// landed). The calling body must save its resume PC and return
	// rt.Unwind(fr).
	NeedUnwind
)

// Schema is a sequential calling convention (paper Table 1 / Section 3.2).
type Schema uint8

const (
	// SchemaNB is the non-blocking schema: a plain C call (Section 3.2.1).
	SchemaNB Schema = iota
	// SchemaMB is the may-block schema: lazy context allocation, result
	// through return_val, callee context returned on block (Section 3.2.2).
	SchemaMB
	// SchemaCP is the continuation-passing schema: adds caller_info for
	// lazy continuation creation and forwarding (Section 3.2.3).
	SchemaCP
)

var schemaNames = [...]string{"NB", "MB", "CP"}

// String returns "NB", "MB" or "CP".
func (s Schema) String() string { return schemaNames[s] }

// SchemaSet is the set of sequential interfaces the compiler is allowed to
// emit. Table 3 compares 1-interface (CP only), 2-interface (MB+CP) and
// 3-interface (NB+MB+CP) configurations.
type SchemaSet uint8

const (
	// Interfaces1 emits only the most general, continuation-passing schema.
	Interfaces1 SchemaSet = 1 << SchemaCP
	// Interfaces2 emits may-block and continuation-passing schemas.
	Interfaces2 SchemaSet = 1<<SchemaMB | 1<<SchemaCP
	// Interfaces3 emits all three schemas (the full hybrid model).
	Interfaces3 SchemaSet = 1<<SchemaNB | 1<<SchemaMB | 1<<SchemaCP
)

// Has reports whether schema s is in the set.
func (ss SchemaSet) Has(s Schema) bool { return ss&(1<<s) != 0 }

// Emit returns the cheapest allowed schema that is at least as general as
// the required one. SchemaSet always contains SchemaCP, the fully general
// convention, so Emit always succeeds.
func (ss SchemaSet) Emit(required Schema) Schema {
	for s := required; s <= SchemaCP; s++ {
		if ss.Has(s) {
			return s
		}
	}
	return SchemaCP
}

// Config selects the execution model for a run.
type Config struct {
	// Hybrid enables the paper's hybrid model: speculative stack execution
	// with fallback. False gives the parallel-only baseline, where every
	// invocation allocates a heap context or sends a message.
	Hybrid bool
	// Interfaces restricts which sequential schemas may be emitted
	// (Table 3's 1/2/3-interface configurations). Ignored when !Hybrid.
	Interfaces SchemaSet
	// Wrappers enables executing arriving messages' stack versions directly
	// from the message buffer (Section 3.3). Ignored when !Hybrid.
	Wrappers bool
	// SeqOpt elides the parallelization checks (name translation, locality
	// and lock checks), as in Table 3's Seq-opt column. Only meaningful for
	// single-node runs.
	SeqOpt bool
	// MaxStackDepth bounds speculative inlining depth; beyond it,
	// invocations fall back to heap contexts. Guards the host stack.
	MaxStackDepth int
	// Tracer, if non-nil, receives every execution-model event (see
	// internal/trace for the standard buffer implementation).
	Tracer Tracer
	// Metrics, if non-nil, observes every virtual-clock advance on every
	// node — including idle time — with the currently-executing method
	// attached (see internal/obsv for the standard implementation, which
	// also implements Tracer). The per-node observed costs sum exactly to
	// that node's final clock. Observation adds no virtual charges: with
	// Metrics (and Tracer) nil or not, a run's simulated results are
	// identical.
	Metrics MetricsSink

	// Migration, if non-nil, enables dynamic object migration: the policy
	// is consulted on every invocation reaching an owner and may relocate
	// objects mid-run (see migrate.go and internal/migrate for policies).
	// Nil keeps the classic static-placement runtime, with no extra charges.
	Migration MigrationPolicy
	// MigrationPeriod is the virtual-time interval between policy Tick
	// calls (periodic-rebalance policies). Zero disables the heartbeat.
	MigrationPeriod Instr

	// Network, if non-nil, is a factory for a topology/contention model
	// (see machine.Network, e.g. machine.NewFatTree): it is called once
	// per runtime with the machine size, and the returned instance computes
	// the latency of every physical transmission — requests, replies,
	// retransmissions, acks — in place of the flat NetLatency/ReplyLatency
	// model. A factory (not an instance) because a Network carries mutable
	// link-contention state: per-runtime instantiation keeps that state
	// private to one run, so concurrent experiment cells never share it.
	// Nil keeps the flat model.
	Network func(nodes int) machine.Network

	// CheckpointPeriod is the virtual-time interval between checkpoint ticks
	// (see recover.go): every period, each node snapshots the durable words
	// of its dirty Checkpointable objects to a backup node, from which a
	// crash-lost object is restored when its owner rejoins. Zero disables
	// checkpointing — crashes then lose object state permanently (the
	// no-recovery baseline of Table 10). Incompatible with Migration
	// (checkpoint/restore assumes static placement).
	CheckpointPeriod Instr

	// Faults, if non-nil, makes the simulated network misbehave: message
	// drops, duplicates, reordering, per-node stalls and brown-outs (see
	// sim.Faults). A lossy configuration (Drop or Dup > 0) requires
	// Reliable, or handlers could be lost or run twice.
	Faults *sim.Faults
	// Reliable layers exactly-once delivery over the (possibly faulty)
	// network: every runtime message is sequence-numbered per (sender,
	// destination) link, cumulatively acked, retransmitted with exponential
	// backoff until acked, and duplicate-suppressed at the receiver. Off by
	// default: with a fault-free network the layer only adds overhead.
	Reliable bool

	// CheckDecls arms the runtime declaration sanitizer: the dynamic
	// backstop behind cmd/concertvet's static pass, for what static
	// analysis cannot see through indirection. When set, the runtime
	// panics with a *DeclError the moment an activation contradicts the
	// declared analysis inputs of its method: suspending on futures
	// without MayBlockLocal or Locks, capturing a continuation without
	// Captures, invoking a method absent from Calls, or tail-forwarding
	// to a method absent from Forwards. The checks charge no virtual
	// time and never alter control flow on declaration-clean programs:
	// simulated results are byte-identical with the sanitizer on or off.
	CheckDecls bool
}

// Tracer receives execution-model events from the runtime. Implementations
// must be cheap; the runtime calls Record on its hot paths.
type Tracer interface {
	Record(node int, at Instr, kind uint8, method string, aux int64)
}

// MetricsSink receives cycle-cost attribution from the runtime: one call
// per virtual-clock advance, with the clock value before the advance
// (start), the name of the method body executing on that node ("" between
// activations — dispatch, messaging and idle time), the instr.Op accounting
// category, and the cost actually applied (after any brown-out slow-down).
// Per node, the observed charges are contiguous — each call's start equals
// the previous call's start+cost — so their sum is exactly the node's final
// virtual clock. Implementations must be cheap and must not re-enter the
// runtime.
type MetricsSink interface {
	ObserveCharge(node int, start Instr, method string, op uint8, cost int64)
}

// DefaultHybrid is the full hybrid model with all three interfaces.
func DefaultHybrid() Config {
	return Config{Hybrid: true, Interfaces: Interfaces3, Wrappers: true, MaxStackDepth: 1024}
}

// ParallelOnly is the heap-based baseline the paper compares against.
func ParallelOnly() Config {
	return Config{Hybrid: false, Interfaces: Interfaces3, MaxStackDepth: 1024}
}
