package core

import (
	"unsafe"

	"repro/internal/instr"
	"repro/internal/sim"
)

// NodeRT is the per-node runtime state: the object table, the run queue of
// ready heap contexts, the inbox of arrived messages, and the frame pool.
type NodeRT struct {
	ID  int
	Sim *sim.Node
	rt  *RT

	objects []*Object
	arena   slab[Object]
	inbox   msgQueue
	runq    frameQueue
	pool    framePool
	// freeMsgs lists up to maxFreeMsgs requests and replies this node has
	// consumed, freeLen of them, for its own next sends to reuse (see newMsg
	// and consumed in msg.go).
	freeMsgs *Msg
	freeLen  int

	// Migration state (all nil/empty unless a migration policy runs).
	// imports holds objects whose birth node is elsewhere but that now (or
	// once) lived here; importRefs records first-arrival order so iteration
	// is deterministic. hints caches believed current owners learned from
	// msgMoved notices (path compression). parked queues requests that
	// arrived for an object still in flight to this node. records holds
	// the access records of the objects first noted here (see noteAccess).
	imports    map[Ref]*Object
	importRefs []Ref
	hints      map[Ref]locHint
	parked     map[Ref]*msgQueue
	records    slab[access]
	// resident counts objects living on — or already committed to move
	// to — this node. The transfer happens when a migration is *decided*,
	// not when the payload arrives, so concurrent placement decisions see
	// each other (balance signal for migration policies).
	resident int

	// stackDepth tracks current speculative-inlining depth.
	stackDepth int

	// curM is the method whose body is currently executing on this node
	// (nil between activations). Maintained only so the metrics observer
	// can attribute clock charges to methods; never consulted by the
	// execution model itself.
	curM *Method

	// msgSeq numbers this node's outgoing messages per destination (for
	// trace-level send/receive correlation); allocated on first send.
	msgSeq []uint32

	// Reliable-delivery link state, indexed by peer node; entries are
	// created on first use and both slices stay nil unless Config.Reliable
	// is set (see reliable.go). frames and acks hold the data frames and
	// acks this node sends: each is the delivery payload of its copies on
	// the wire, so a slot is never reused.
	relOut []*sendLink
	relIn  []*recvLink
	frames slab[relFrame]
	acks   slab[relAck]

	// Crash-recovery state (see recover.go). ckptStore/ckptRefs are the
	// checkpoints this node holds as a *backup* for its peers, keyed by
	// object with first-arrival order recorded for deterministic restore
	// shipping; the store models stable storage and survives this node's
	// own crashes. lostObjs counts local checkpointable objects still
	// awaiting restore; rejoinAt is when the node last rejoined (recovery
	// time runs from it); ckptMark is the node's busy-cycle count at its
	// last checkpoint tick, so a crash can account the cycles it discards.
	ckptStore map[Ref]*ckptRec
	ckptRefs  []Ref
	lostObjs  int
	rejoinAt  sim.Time
	ckptMark  int64
	// flush is the group-commit flush timer: the first durable mutation
	// after a quiet spell arms it; mutations arriving within the commit
	// delay share it (see requestFlush in recover.go). Bound only when
	// checkpointing runs.
	flush sim.Timer
	// dirty has bit i set whenever objects[i] may hold durable mutations
	// its backup has not acked (mutVer > ackVer), so a checkpoint visits
	// those objects alone. noteDurable and an object's return home set
	// bits; shipNode clears the bit of an object it finds acked, lost or
	// away.
	dirty []uint64

	// recov holds this node's share of the recovery accounting that is
	// mutated from node-context events (checkpoint shipping, restores) —
	// per-node rather than on RT so parallel shards never write one shared
	// struct. RT.Recov() sums it with the global-phase aggregate.
	recov RecoveryStats

	Stats NodeStats
}

// NodeStats counts execution-model events on one node; the experiment
// harnesses report these (e.g. the local:remote invocation ratios of
// Tables 4-6 and the context-creation counts behind Figure 9).
type NodeStats struct {
	Invokes       int64 // all method invocations issued from this node
	LocalInvokes  int64 // target object was local
	RemoteInvokes int64 // target object was remote (request sent)
	StackCalls    int64 // speculative sequential (stack) executions begun
	HeapInvokes   int64 // heap contexts created for parallel invocations
	Fallbacks     int64 // stack invocations unwound into the heap
	Suspends      int64 // touches that failed and suspended
	LockBlocks    int64 // invocations parked on an object lock
	WrapperRuns   int64 // messages executed directly from the buffer
	Replies       int64 // reply messages sent

	// Migration protocol counters (zero unless a policy is installed).
	MigratesOut  int64 // objects frozen, serialized and shipped from this node
	MigratesIn   int64 // objects installed on this node
	ForwardHops  int64 // requests re-routed through a forwarding stub here
	HintUpdates  int64 // name-table (path compression) updates applied
	MigrateParks int64 // requests parked waiting for an in-flight object

	// Reliable-delivery counters (zero unless Config.Reliable is set).
	DropsSeen     int64 // frames this node sent that the network dropped
	Retransmits   int64 // unacked frames resent by this node
	DupSuppressed int64 // duplicate frames discarded by this node's receiver
	AcksSent      int64 // cumulative ack frames sent by this node
	Stalls        int64 // stall/brown-out windows injected on this node
	MaxBackoff    int64 // peak per-frame retransmit timeout reached (instr)

	// Crash-recovery counters (zero unless crashes/checkpointing are
	// configured; see recover.go).
	Crashes       int64 // fail-stop crash windows suffered by this node
	Recoveries    int64 // rejoins (fresh incarnations) of this node
	LostFrames    int64 // live activation frames destroyed by crashes here
	LostMsgs      int64 // inbox/parked messages destroyed by crashes here
	CkptsTaken    int64 // object snapshots this node shipped to its backup
	CkptsRestored int64 // lost objects restored on this node from checkpoints
	StaleRejected int64 // frames and snapshot batches rejected (or discarded at link reset) as stale-incarnation
	ReqRetries    int64 // serving-request retries issued by this frontend
}

// add accumulates other into s.
func (s *NodeStats) add(other *NodeStats) {
	s.Invokes += other.Invokes
	s.LocalInvokes += other.LocalInvokes
	s.RemoteInvokes += other.RemoteInvokes
	s.StackCalls += other.StackCalls
	s.HeapInvokes += other.HeapInvokes
	s.Fallbacks += other.Fallbacks
	s.Suspends += other.Suspends
	s.LockBlocks += other.LockBlocks
	s.WrapperRuns += other.WrapperRuns
	s.Replies += other.Replies
	s.MigratesOut += other.MigratesOut
	s.MigratesIn += other.MigratesIn
	s.ForwardHops += other.ForwardHops
	s.HintUpdates += other.HintUpdates
	s.MigrateParks += other.MigrateParks
	s.DropsSeen += other.DropsSeen
	s.Retransmits += other.Retransmits
	s.DupSuppressed += other.DupSuppressed
	s.AcksSent += other.AcksSent
	s.Stalls += other.Stalls
	if other.MaxBackoff > s.MaxBackoff {
		s.MaxBackoff = other.MaxBackoff
	}
	s.Crashes += other.Crashes
	s.Recoveries += other.Recoveries
	s.LostFrames += other.LostFrames
	s.LostMsgs += other.LostMsgs
	s.CkptsTaken += other.CkptsTaken
	s.CkptsRestored += other.CkptsRestored
	s.StaleRejected += other.StaleRejected
	s.ReqRetries += other.ReqRetries
}

// slab allocates T values in fixed-size chunks that are never reused or
// compacted: a handed-out pointer stays valid for as long as anything holds
// it, and a retired chunk is collected with the last pointer into it.
// Objects come from one, because object identity is pointer identity
// (migration ships *Object and replaces table entries with stubs): the
// table stays []*Object, but a million-object build makes thousands of
// allocations laid out contiguously in index order, instead of a million
// individually-boxed heap objects scattered by the allocator. Reliable data
// frames and acks come from one because a pointer to them is what travels
// on the wire.
//
// Chunks are sized in bytes, not values: at 4096 nodes a node holds a few
// hundred objects, so the unused tail of its last chunk — one per node — is
// the slab's waste, and a small chunk keeps it small.
type slab[T any] struct {
	chunk []T
}

// slabBytes is the chunk budget: one 8 KiB page, which is a Go allocator
// size class. The allocator prefixes a pointerful allocation of this size
// with an 8-byte type header (mallocHeader), so the values get the rest: a
// chunk that filled the whole page would round up to the next class and
// waste most of a kilobyte.
const (
	slabBytes    = 8 << 10
	mallocHeader = 8
)

// slabLen is the number of Ts per chunk (93 Objects at 88 bytes each, 102
// access records at 80).
func slabLen[T any]() int {
	var zero T
	return (slabBytes - mallocHeader) / int(unsafe.Sizeof(zero))
}

func (s *slab[T]) alloc() *T {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, slabLen[T]())
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// NewObject installs state as a new object on this node and returns its
// global reference.
func (n *NodeRT) NewObject(state any) Ref {
	ref := Ref{Node: int32(n.ID), Index: int32(len(n.objects))}
	obj := n.arena.alloc()
	*obj = Object{Ref: ref, State: state, wantMove: -1}
	if len(n.objects) == cap(n.objects) {
		// Double the table: append grows a large slice by only 1.25x, so
		// filling a big node would copy its table about five times over.
		grown := make([]*Object, len(n.objects), max(2*cap(n.objects), 16))
		copy(grown, n.objects)
		n.objects = grown
	}
	n.objects = append(n.objects, obj)
	n.resident++
	if n.rt.Cfg.Migration != nil {
		n.rt.objects++
	}
	return ref
}

// Resident returns the number of objects living on (or committed to move
// to) this node.
func (n *NodeRT) Resident() int { return n.resident }

// Object returns the object for ref if it currently lives on this node; it
// panics otherwise — remote state is never touched directly.
func (n *NodeRT) Object(ref Ref) *Object {
	obj := n.localObject(ref)
	if obj == nil {
		panic("core: direct access to a remote object")
	}
	return obj
}

// State returns the application state of a local object.
func (n *NodeRT) State(ref Ref) any { return n.Object(ref).State }

// ObjectLost reports whether ref — which must be born on this node — has
// crash-lost state awaiting restore. Harnesses use it to avoid starting
// roots on an unavailable target (see apps/serve's retry loop).
func (n *NodeRT) ObjectLost(ref Ref) bool {
	if int(ref.Node) != n.ID {
		panic("core: ObjectLost queried off the birth node")
	}
	return n.objects[ref.Index].lost
}

// LiveFrames returns the number of checked-out frames on this node.
func (n *NodeRT) LiveFrames() int64 { return n.pool.Live }

// charge advances this node's clock by cost, accounted under op.
func (n *NodeRT) charge(op instr.Op, cost instr.Instr) {
	sim.Charge(n.Sim, op, cost)
}
