package core

import "repro/internal/sim"

// Object is one program object: application state owned by exactly one
// node, reachable machine-wide through its Ref. Method invocations execute
// on the owner (the owner-computes rule); the runtime performs the name
// translation and locality checks. With a migration policy installed
// (Config.Migration) the owner may change mid-run: the object is frozen at
// an activation boundary, shipped to its new home, and a forwarding stub is
// left behind (see migrate.go).
type Object struct {
	// The hot fields come first: localObject and entry read Ref, State and
	// the away/lost flags on every invocation, the lock check reads locked,
	// and a forwarding stub is followed through fwdTo. They fill the first
	// 32 bytes (TestObjectLayout pins it).
	Ref Ref
	// State is the application-defined node-local state. Only code running
	// on the owning node may touch it.
	State any

	// locked implements the implicit object lock: held while a locking
	// method's activation is live (including across suspension).
	locked bool
	// away marks a forwarding stub: the object migrated away and fwdTo is
	// the next hop toward its current home. fwdVer is the residence version
	// (the object's move count) that fwdTo corresponds to; pointer updates
	// only ever apply strictly newer versions, and a request parks at a stub
	// older than one it already passed (see migrate.go), so no request
	// follows a cycle.
	away bool
	// lost marks state destroyed by a fail-stop crash of the owner (see
	// recover.go): the entry stays in the table so routing still works, but
	// requests park until (and unless) the object is restored from its
	// latest checkpoint.
	lost  bool
	fwdTo int32

	// waiters are activations parked on the lock, FIFO.
	waiters frameQueue
	fwdVer  int32

	// active counts live activation frames targeting this object (running,
	// suspended, or parked on the lock). Migration only happens at
	// active == 0, so frames never outlive their object's residence.
	active int32
	// wantMove is a pending migration destination (-1 if none), executed
	// when the last active frame retires.
	wantMove int32
	// moves counts completed migrations of this object (never reset;
	// policies use it to bound per-object churn).
	moves int32

	// acc is the migration policy's access record, taken from the node's
	// slab on the object's first noted invocation (see RT.noteAccess).
	// Only a policy notes invocations, so without one no record exists.
	// Nil reads as all-zero.
	acc *access

	// dur is the object's checkpoint state, allocated on its first durable
	// mutation (or when a checkpoint restores it). Nil reads as all-zero, so
	// runs without checkpointing carry one pointer per object, not the
	// whole record.
	dur *durability
}

// durability is the crash-recovery record of one object (see recover.go).
// mutVer counts durable mutations; snapVer is the version covered by the
// last snapshot shipped to the backup; ackVer is the highest version the
// backup has acknowledged. deferred holds replies of durable mutations not
// yet covered by an acked checkpoint (group commit): they are released when
// the covering ack arrives, and dropped — for the client to retry — if a
// crash rolls the mutation back first. snapAt records when the last
// snapshot shipped; an object whose acked version lags its shipped version
// past a full checkpoint period is re-shipped (the snapshot or its ack died
// with a crashed backup).
type durability struct {
	mutVer   int64
	snapVer  int64
	ackVer   int64
	snapAt   sim.Time
	deferred []deferredReply
}

// durable returns the object's checkpoint record, allocating it on first
// use.
func (o *Object) durable() *durability {
	if o.dur == nil {
		o.dur = &durability{}
	}
	return o.dur
}

// deferredReply is one durable-mutation reply awaiting its checkpoint ack.
type deferredReply struct {
	cont Cont
	val  Word
	ver  int64
}

// Lost reports whether the object's state was destroyed by a crash and has
// not (yet) been restored from a checkpoint.
func (o *Object) Lost() bool { return o.lost }

// Locked reports whether the object's lock is currently held.
func (o *Object) Locked() bool { return o.locked }

// access is one object's access state since it last (re)settled on a node,
// maintained only when a migration policy is installed. localHits counts
// invocations from co-resident *other* objects (self-driving traffic
// carries no placement signal and is not counted); remoteHits counts
// invocations arriving from other nodes. srcs/cnts form a Misra-Gries
// frequent-sources sketch over the remote requester nodes: O(1) state per
// object (no per-node vectors), yet any node sending more than 1/(topK+1)
// of the remote traffic is retained with a count that underestimates its
// true share by at most remoteHits/(topK+1).
type access struct {
	localHits  int64
	remoteHits int64
	srcs       [topK]int32
	cnts       [topK]int32
}

// topK is the width of the per-object frequent-sources sketch.
const topK = 8

// Hits returns the local and remote invocation counts charged to this
// object since it last settled on its current node.
func (o *Object) Hits() (local, remote int64) {
	if o.acc == nil {
		return 0, 0
	}
	return o.acc.localHits, o.acc.remoteHits
}

// ForEachRemoteSource calls fn for every remote requester node currently
// tracked in the sketch with its count, in slot order (deterministic).
func (o *Object) ForEachRemoteSource(fn func(node, count int32)) {
	a := o.acc
	if a == nil {
		return
	}
	for i, c := range a.cnts {
		if c > 0 {
			fn(a.srcs[i], c)
		}
	}
}

// Moves returns how many times this object has migrated.
func (o *Object) Moves() int { return int(o.moves) }

// note records one invocation reaching the object on its owner,
// maintaining the Misra-Gries sketch for remote sources. The object must
// have an access record.
func (o *Object) note(remote bool, from int32) {
	a := o.acc
	if !remote {
		a.localHits++
		return
	}
	a.remoteHits++
	for i := range a.srcs {
		if a.cnts[i] > 0 && a.srcs[i] == from {
			a.cnts[i]++
			return
		}
	}
	for i := range a.srcs {
		if a.cnts[i] == 0 {
			a.srcs[i], a.cnts[i] = from, 1
			return
		}
	}
	for i := range a.cnts {
		a.cnts[i]--
	}
}

// Decay halves the object's access counters and sketch counts (rounding
// down). Migration policies call it periodically so evidence ages: without
// decay the counters only ever grow, and a placement earned by early-run
// traffic fossilizes — a requester that dominated the first minute outvotes
// the current traffic pattern forever. Exponential aging keeps roughly the
// last 2*period of traffic decisive. A sketch slot decayed to zero is
// freed (its source id cleared), exactly as if it had been displaced by
// Misra-Gries decrements.
func (o *Object) Decay() {
	a := o.acc
	if a == nil {
		return
	}
	a.localHits >>= 1
	a.remoteHits >>= 1
	for i := range a.cnts {
		a.cnts[i] >>= 1
		if a.cnts[i] == 0 {
			a.srcs[i] = 0
		}
	}
}

// resetEpoch clears the access history when the object settles on a new
// node, so policies judge each residence on fresh evidence.
func (o *Object) resetEpoch() {
	if o.acc != nil {
		*o.acc = access{}
	}
	o.wantMove = -1
}

// tryLock acquires the lock if free.
func (o *Object) tryLock() bool {
	if o.locked {
		return false
	}
	o.locked = true
	return true
}

// unlock releases the lock and returns the next parked activation to run,
// if any. The caller transfers the lock to it.
func (o *Object) unlock() *Frame {
	if !o.locked {
		panic("core: unlock of unlocked object")
	}
	next := o.waiters.pop()
	if next == nil {
		o.locked = false
	}
	return next
}
