package core

import (
	"fmt"
	"math/bits"

	"repro/internal/instr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Crash recovery: fail-stop crash handling, incarnation numbers, and the
// periodic checkpoint/restore protocol (DESIGN §11).
//
// The fault layer (sim.Faults.CrashEvery/CrashLen) fail-stop crashes one
// node at a time. A crash destroys everything volatile on the node: its
// inbox, every live activation frame, its parked-request queues, both halves
// of its reliable-delivery link state, and the heap words of every object it
// owns. When the node rejoins, its incarnation number is bumped; each
// directed reliable link is versioned by the sum of its endpoints'
// incarnations (the link epoch), so a retransmit or ack stamped by a dead
// incarnation is detected and rejected instead of re-executing a handler the
// crash rolled back.
//
// Recovery is layered on top, not woven in:
//
//   - The reliable layer keeps its exactly-once contract per incarnation.
//     On rejoin, every peer resets its send link toward the crashed node —
//     new epoch, sequence numbers from scratch — and DISCARDS the dead
//     incarnation's unacked frames rather than replaying them: with delayed
//     cumulative acks, unacked does not mean unprocessed, so a blind replay
//     could re-execute a handler whose effects already escaped the crash
//     (see resetSendLink). Whatever genuinely died with the node is the
//     application's to re-drive end to end — see apps/serve's deadline
//     retries and dedup ids — which is why recovery composes with the
//     reliable layer instead of duplicating it.
//   - The checkpoint protocol (Config.CheckpointPeriod) rides the same
//     service-tick machinery as the migration heartbeat: every period, each
//     node snapshots the durable words of its dirty objects to a backup
//     node ((owner+1) mod N), which models stable storage. On rejoin the
//     backup ships the latest snapshot of every object the crashed node
//     owns; restore re-installs the object and drains the requests parked
//     for it, exactly like a migration arrival.
//   - Durable methods (Method.Durable) group-commit: their replies are
//     deferred until a checkpoint covering the mutation is acked by the
//     backup, so a client never observes a state the crash can roll back.
//
// Crashes are restricted to static placement (ValidateConfig rejects
// Faults.Crashy with a Migration policy): checkpointing a mid-flight
// migration is future work, and keeping the owner == birth-node invariant
// makes the backup mapping and the restore path exact.

// Checkpointable is implemented by application state that can be
// checkpointed: CheckpointWords serializes the durable heap words into a
// fresh slice that the caller owns — the runtime ships and stores it as the
// snapshot without copying it, so it must not alias the live state —
// and RestoreWords re-installs them in place (so host-side pointers into the
// state stay valid across a crash/restore cycle). Objects whose state does
// not implement it are not checkpointed and a crash loses them forever.
type Checkpointable interface {
	CheckpointWords() []Word
	RestoreWords([]Word)
}

// ckptRec is one object's latest stored snapshot at its backup node.
type ckptRec struct {
	ver   int64
	words []Word
}

// ckptItem is one object's snapshot inside a bulk msgRestore transfer.
type ckptItem struct {
	ref   Ref
	ver   int64
	words []Word
}

// RecoveryStats aggregates machine-wide crash-recovery accounting.
type RecoveryStats struct {
	Crashes         int64    // fail-stop crash windows injected
	LostObjects     int64    // object states destroyed by crashes
	RestoredObjects int64    // objects re-installed from checkpoints
	LostWorkCycles  int64    // busy cycles discarded (since last checkpoint mark)
	RecoveryTime    sim.Time // summed rejoin -> last-object-restored intervals
	CkptWords       int64    // total snapshot payload words shipped
}

// Recov returns the machine-wide crash-recovery statistics: the global-phase
// aggregate (crash-side accounting) plus the per-node counters mutated from
// node-context events (checkpoint shipping, restores), which live on NodeRT
// so concurrent shards never write one shared struct.
func (rt *RT) Recov() RecoveryStats {
	s := rt.recov
	for _, n := range rt.Nodes {
		s.RestoredObjects += n.recov.RestoredObjects
		s.RecoveryTime += n.recov.RecoveryTime
		s.CkptWords += n.recov.CkptWords
	}
	return s
}

// backup returns the node holding checkpoints for owner's objects.
func (rt *RT) backup(owner int) int { return (owner + 1) % len(rt.Nodes) }

// linkEpoch returns the current epoch of the directed link from -> to: the
// sum of both endpoints' incarnation numbers. It is consulted only at link
// creation and reset; in between, the epoch lives on the link itself so it
// changes atomically with the re-sequencing.
func (rt *RT) linkEpoch(from, to int) int32 {
	if rt.incs == nil {
		return 0
	}
	return rt.incs[from] + rt.incs[to]
}

// checkpointing reports whether the checkpoint protocol is engaged.
func (rt *RT) checkpointing() bool { return rt.Cfg.CheckpointPeriod > 0 }

// onCrash destroys node n's volatile state at the opening of its crash
// window. It runs as the fault observer of sim.FaultCrash, between events —
// never mid-handler — so the node is at an activation boundary.
func (rt *RT) onCrash(n *NodeRT, downFor sim.Time) {
	n.Stats.Crashes++
	rt.recov.Crashes++
	rt.recov.LostWorkCycles += lostWork(n)
	rt.traceEventAt(n, rt.Eng.Now(), uint8(trace.KCrash), nil, int64(downFor))

	// The inbox: arrived-but-unprocessed messages die with the node. Their
	// senders already got (or will get) acks for them — this is the window
	// only an end-to-end retry can cover.
	for msg := n.inbox.pop(); msg != nil; msg = n.inbox.pop() {
		n.Stats.LostMsgs++
	}
	// Parked requests (waiting for a lost object's restore) die the same way.
	for _, q := range n.parked {
		for msg := q.pop(); msg != nil; msg = q.pop() {
			n.Stats.LostMsgs++
		}
	}
	n.parked = nil
	// Every live frame — suspended, queued, or parked on a lock — dies with
	// the node's frame generation. Emptying the run queue here and every
	// lock's waiters below leaves a continuation as the only way to reach a
	// dead frame, and deliverLocal drops what it carries.
	n.Stats.LostFrames += n.pool.kill()
	n.runq = frameQueue{}
	// Both halves of the reliable link state are volatile: this node's
	// unacked frames and out-of-order buffers are lost. Peers keep their own
	// send links until the rejoin notice resets them.
	for _, l := range n.relOut {
		if l == nil {
			continue
		}
		l.pending = nil
		l.rtx.Stop()
	}
	for _, l := range n.relIn {
		if l == nil {
			continue
		}
		clear(l.buf)
		l.ack.Stop()
	}
	// Object state: heap words are gone. The entries stay (lost) so routing
	// still resolves here and requests park for the restore. The deferred
	// replies die with the objects — exactly the group-commit guarantee:
	// no client ever saw those mutations, so rolling them back is safe.
	n.lostObjs = 0
	for _, o := range n.objects {
		if o.lost {
			continue // still unrestored from a previous crash
		}
		o.lost = true
		o.locked = false
		o.waiters = frameQueue{}
		if o.dur != nil {
			o.dur.deferred = nil
		}
		rt.recov.LostObjects++
		if rt.checkpointing() {
			if _, ok := o.State.(Checkpointable); ok {
				n.lostObjs++
			}
		}
	}
}

// onRejoin brings node n back up with a fresh incarnation: its own link
// state restarts at the new epoch, every peer is notified (one network
// latency later) to reset its links — dropping, not replaying, the frames
// still unacked toward the dead incarnation (see resetSendLink) — and the
// backup ships the latest checkpoint of every object the node owns.
func (rt *RT) onRejoin(n *NodeRT) {
	rt.incs[n.ID]++
	n.Stats.Recoveries++
	n.ckptMark = int64(n.Sim.Counters.Busy())
	n.rejoinAt = rt.Eng.Now()
	if n.lostObjs == 0 && rt.checkpointing() {
		// Nothing to restore (all objects were already lost, or none are
		// checkpointable): recovery is instantaneous.
		n.lostObjs = -1
	}
	for _, l := range n.relOut {
		if l != nil {
			l.nextSeq = 0
			l.arrivalHigh = 0
			l.epoch = rt.linkEpoch(n.ID, l.to)
		}
	}
	for _, l := range n.relIn {
		if l != nil {
			l.cursor, l.acked = 0, 0
			l.epoch = rt.linkEpoch(l.from, n.ID)
		}
	}
	// Rejoin notices reach peers one network latency after the node is back
	// (modeling a membership/name-service announcement), in ID order for
	// determinism. Plain Schedule, not Send: the control plane is not
	// subject to data-plane fault injection, and the peers are up (the
	// fault layer crashes one node at a time).
	crashed := n.ID
	lat := rt.Model.NetLatency
	for _, p := range rt.Nodes {
		if p.ID == crashed {
			continue
		}
		peer := p
		rt.Eng.Schedule(rt.Eng.Now()+lat, func() {
			rt.handleRejoinNotice(peer, crashed)
			rt.Eng.Wake(peer.Sim)
		})
	}
}

// handleRejoinNotice runs on peer when it learns node `crashed` rejoined:
// reset both directed links shared with it (discarding frames addressed to
// the dead incarnation) and — if this peer is the crashed node's backup —
// ship its checkpoints.
func (rt *RT) handleRejoinNotice(peer *NodeRT, crashed int) {
	target := rt.linkEpoch(peer.ID, crashed)
	if peer.relOut != nil {
		if l := peer.relOut[crashed]; l != nil && l.epoch != target {
			rt.resetSendLink(peer, l, target)
		}
	}
	if peer.relIn != nil {
		if l := peer.relIn[crashed]; l != nil && l.epoch != target {
			l.epoch = target
			l.cursor, l.acked = 0, 0
			clear(l.buf)
			l.ack.Stop()
		}
	}
	if rt.checkpointing() && rt.backup(crashed) == peer.ID {
		rt.shipRestores(peer, crashed)
	}
}

// resetSendLink moves a sender link into a new epoch, discarding the dead
// incarnation's unacked frames. Blindly replaying them would DUPLICATE, not
// compose with, the exactly-once reliable layer: with delayed (cumulative)
// acks an unacked frame may well have been delivered and executed before
// the crash, and its effects — a reply already consumed by the caller's
// join — escaped the crashed node. The receiver's fresh incarnation would
// reject the stale retransmits anyway (the epoch check in recvFrame); the
// sender computes the same staleness here and drops them at the source.
// What was genuinely lost is re-driven end to end: parked requests wait out
// the restore, deadline retries re-issue dead requests, and the dedup ids
// make the re-executions exactly-once.
func (rt *RT) resetSendLink(n *NodeRT, l *sendLink, epoch int32) {
	l.epoch = epoch
	l.arrivalHigh = 0
	l.nextSeq = 0
	n.Stats.StaleRejected += int64(len(l.pending))
	l.pending = nil
	l.rtx.Stop()
}

// shipRestores sends the backup's stored snapshot of every object owned by
// the crashed node, in first-checkpoint order (deterministic), batched into
// a single bulk message: recovery time is then bounded by the restored
// state's size rather than paying a per-message base cost per object.
// The batch rides the (just reset) reliable link like any other message.
func (rt *RT) shipRestores(backup *NodeRT, crashed int) {
	to := rt.Nodes[crashed]
	var batch []ckptItem
	for _, ref := range backup.ckptRefs {
		if int(ref.Node) != crashed {
			continue
		}
		rec := backup.ckptStore[ref]
		batch = append(batch, ckptItem{ref: ref, ver: rec.ver,
			words: append([]Word(nil), rec.words...)})
	}
	for chunk, rest := fragment(batch); len(chunk) > 0; chunk, rest = fragment(rest) {
		msg := &Msg{kind: msgRestore, target: Ref{Node: int32(crashed)},
			from: int32(backup.ID), ckptBatch: chunk}
		w := msg.words()
		backup.charge(instr.OpMsg, rt.Model.MsgSendBase+rt.Model.MsgPerWord*instr.Instr(w))
		rt.send(backup, to, msg, w, rt.Model.NetLatency+rt.Model.NetPerWord*instr.Instr(w))
	}
}

// fragment splits the first chunk off a checkpoint-protocol batch: the
// longest prefix that fits DefaultMaxMsgWords (at least one item), and the
// rest. A bulk restore of a node's whole backed-up store (and, in
// principle, a very dirty checkpoint flush) can exceed what one active
// message may carry; a real transport would fragment, so the model does
// too — each chunk pays its own injection and latency costs, and chunks
// pipeline through the (reliable) link like any other messages. The chunks
// are subslices of batch, so splitting allocates nothing.
func fragment(batch []ckptItem) (chunk, rest []ckptItem) {
	w := 1 // running words(): count word + per-item 3+len
	for i, it := range batch {
		iw := 3 + len(it.words)
		if i > 0 && w+iw > DefaultMaxMsgWords {
			return batch[:i], batch[i:]
		}
		w += iw
	}
	return batch, nil
}

// startCheckpoints schedules the periodic checkpoint tick — the same
// service-event pattern as the migration heartbeat, so an idle machine still
// quiesces — and records a host-side baseline snapshot of every
// checkpointable object, uncharged, before any virtual time passes: an
// object crash-lost before its first periodic checkpoint restores to its
// initial state instead of being unrecoverable.
func (rt *RT) startCheckpoints() {
	period := rt.Cfg.CheckpointPeriod
	if period <= 0 || rt.ckptStarted {
		return
	}
	rt.ckptStarted = true
	for _, n := range rt.Nodes {
		b := rt.Nodes[rt.backup(n.ID)]
		for _, o := range n.objects {
			if c, ok := o.State.(Checkpointable); ok {
				rt.storeCkpt(b, o.Ref, 0, c.CheckpointWords())
			}
		}
	}
	var tick func()
	tick = func() {
		rt.checkpointTick()
		if rt.Eng.PendingWork() > 0 {
			rt.Eng.ScheduleService(rt.Eng.Now()+period, tick)
		}
	}
	rt.Eng.ScheduleService(rt.Eng.Now()+period, tick)
}

// checkpointTick snapshots every dirty checkpointable object on every up
// node to its backup. Clean objects cost nothing — shipNode visits only the
// objects in its node's dirty set, a word of which covers 64 objects — so
// checkpoint overhead, in virtual and in host time, scales with the
// mutation rate, not the object count.
func (rt *RT) checkpointTick() {
	for _, n := range rt.Nodes {
		rt.shipNode(n)
	}
}

// shipNode snapshots node n's dirty checkpointable objects to its backup in
// one bulk transfer: a node has exactly one backup, so the whole dirty set
// shares a message (and its ack), keeping the protocol's fixed cost per
// flush instead of per object. Shipped-but-unacked objects are re-shipped
// once a full period passes without the ack — the snapshot (or its ack)
// died with a crashed backup, and without the re-ship the object's deferred
// replies could only be released by a later mutation.
func (rt *RT) shipNode(n *NodeRT) {
	if n.Sim.Down() {
		return
	}
	// Node-scoped time: shipNode runs from the global checkpoint tick and
	// from node-context flush timers alike.
	now := n.Sim.Now()
	// The re-ship timeout must sit well above a checkpoint ack's round trip
	// (including inbox queueing on a loaded backup), or a short checkpoint
	// period re-ships every in-flight snapshot every tick and the protocol
	// floods its own network. It exists only to recover snapshots whose
	// backup crashed while they (or their acks) were in flight, so it is
	// sized like a retransmission timeout: generous, and keyed to the crash
	// downtime it actually covers, not to the checkpoint cadence.
	overdue := rt.Cfg.CheckpointPeriod
	if overdue < reshipFloor {
		overdue = reshipFloor
	}
	var batch []ckptItem
	for w := range n.dirty {
		for word := n.dirty[w]; word != 0; word &= word - 1 {
			o := n.objects[w*64+bits.TrailingZeros64(word)]
			d := o.dur
			if o.lost || o.away || d == nil || d.mutVer <= d.ackVer {
				n.dirty[w] &^= word & -word // acked, lost or away: clean
				continue
			}
			if d.mutVer <= d.snapVer && now-d.snapAt < overdue {
				continue // shipped and awaiting a (not yet overdue) ack
			}
			c, ok := o.State.(Checkpointable)
			if !ok {
				continue
			}
			words := c.CheckpointWords()
			d.snapVer = d.mutVer
			d.snapAt = now
			batch = append(batch, ckptItem{ref: o.Ref, ver: d.mutVer, words: words})
			n.Stats.CkptsTaken++
			n.recov.CkptWords += int64(len(words))
			rt.traceEvent(n, uint8(trace.KCheckpoint), nil, int64(len(words)))
		}
	}
	b := rt.Nodes[rt.backup(n.ID)]
	for chunk, rest := fragment(batch); len(chunk) > 0; chunk, rest = fragment(rest) {
		msg := &Msg{kind: msgCkpt, target: Ref{Node: int32(n.ID)},
			from: int32(n.ID), ver: rt.incs[n.ID], ckptBatch: chunk}
		w := msg.words()
		n.charge(instr.OpMsg, rt.Model.MsgSendBase+rt.Model.MsgPerWord*instr.Instr(w))
		rt.send(n, b, msg, w, rt.Model.NetLatency+rt.Model.NetPerWord*instr.Instr(w))
	}
	n.ckptMark = int64(n.Sim.Counters.Busy())
}

// Group-commit flush window bounds (see flushDelay).
const (
	groupCommitMin = 250
	groupCommitMax = 2_500
)

// flushDelay is how long a deferring durable reply waits for a checkpoint
// flush of its node: an eighth of the checkpoint period, clamped. Tying the
// window to the period keeps the period a real knob — a short period buys
// low commit latency at the cost of more (smaller) checkpoint messages, a
// long one batches more mutations per flush — while the clamp keeps the
// window long enough to batch co-arriving mutations and short enough that
// commit latency is a couple of message round trips, not a full period.
func (rt *RT) flushDelay() sim.Time {
	d := sim.Time(rt.Cfg.CheckpointPeriod) / 8
	if d < groupCommitMin {
		d = groupCommitMin
	}
	if d > groupCommitMax {
		d = groupCommitMax
	}
	return d
}

// reshipFloor is the minimum age before an unacked snapshot is shipped
// again (see shipNode).
const reshipFloor = 25_000

// requestFlush arms one group-commit flush of node n's dirty objects
// flushDelay from now. Called when a durable reply defers: without
// it the reply would wait for the periodic tick, putting the checkpoint
// period into every durable invocation's latency. Mutations arriving
// within the delay share the flush (and its message).
func (rt *RT) requestFlush(n *NodeRT) {
	if !n.flush.Armed() {
		n.flush.Reset(rt.flushDelay())
	}
}

// flushNode is the flush timer's callback: ship the dirty objects and wake
// the node for whatever the flush released.
func (rt *RT) flushNode(n *NodeRT) {
	rt.shipNode(n)
	rt.Eng.Wake(n.Sim)
}

// lostWork returns the busy cycles node n executed past its last checkpoint
// mark — the work a crash at this instant discards.
func lostWork(n *NodeRT) int64 {
	if w := int64(n.Sim.Counters.Busy()) - n.ckptMark; w > 0 {
		return w
	}
	return 0
}

// storeCkpt records (or refreshes) one object's snapshot at its backup.
// Reordered older snapshots never regress the stored version.
func (rt *RT) storeCkpt(b *NodeRT, ref Ref, ver int64, words []Word) {
	if b.ckptStore == nil {
		b.ckptStore = make(map[Ref]*ckptRec)
	}
	rec := b.ckptStore[ref]
	if rec == nil {
		rec = &ckptRec{}
		b.ckptStore[ref] = rec
		b.ckptRefs = append(b.ckptRefs, ref)
	}
	if ver < rec.ver {
		return
	}
	rec.ver, rec.words = ver, words
}

// handleCkpt stores an arrived batch of snapshots and acks the covered
// versions back to the owner in one message. A batch from a dead
// incarnation of the owner is dropped unacked.
func (rt *RT) handleCkpt(n *NodeRT, msg *Msg) {
	w := msg.words()
	n.charge(instr.OpMsg, rt.Model.MsgRecvBase+rt.Model.MsgPerWord*instr.Instr(w))
	if msg.ver != rt.incs[msg.from] {
		// Shipped by an incarnation of the owner that has since crashed and
		// rejoined. The frame passed the link's epoch check before the
		// rejoin and waited in this inbox; storing it now could overwrite
		// the snapshot the restore just shipped with state the new
		// incarnation never had, and its ack would then release replies
		// that a later restore rolls back. Its own deferred replies died
		// with the crash, so dropping it loses nothing a client saw.
		n.Stats.StaleRejected++
		return
	}
	for _, it := range msg.ckptBatch {
		rt.storeCkpt(n, it.ref, it.ver, it.words)
	}
	// Every item stored is acked, and the ack reads only each item's ref
	// and version, so it carries the arriving batch itself: nothing writes
	// a batch once shipNode has built it.
	ack := &Msg{kind: msgCkptAck, target: Ref{Node: msg.from},
		from: int32(n.ID), ckptBatch: msg.ckptBatch}
	n.charge(instr.OpMsg, rt.Model.ReplySend)
	rt.send(n, rt.Nodes[msg.from], ack, ack.words(), rt.Model.ReplyLatency)
}

// handleCkptAck applies the backup's acknowledgement on the owner: each
// acked object's version advances and every deferred (group-committed)
// reply covered by it is released. A crash between the mutation and this
// ack rolls the mutation back AND drops its reply — the client retries, the
// dedup id makes the retry exactly-once. An object crash-lost (or acked at
// this version already) since the snapshot shipped is skipped; its deferred
// replies died with it.
func (rt *RT) handleCkptAck(n *NodeRT, msg *Msg) {
	n.charge(instr.OpMsg, rt.Model.ReplyRecv)
	for _, it := range msg.ckptBatch {
		obj := n.localObject(it.ref)
		if obj == nil {
			continue
		}
		dur := obj.durable()
		if it.ver <= dur.ackVer {
			continue
		}
		dur.ackVer = it.ver
		keep := dur.deferred[:0]
		for _, d := range dur.deferred {
			if d.ver <= dur.ackVer {
				rt.DeliverCont(n, d.cont, d.val, false)
			} else {
				keep = append(keep, d)
			}
		}
		dur.deferred = keep
	}
}

// handleRestore re-installs the crash-lost objects carried by one bulk
// restore transfer on the rejoined owner. Each object record is rebuilt
// fresh (no stale lock or waiter state survives), the heap words are
// restored in place, and the requests parked for it are drained back into
// the inbox — the same drain a migration arrival performs.
func (rt *RT) handleRestore(n *NodeRT, msg *Msg) {
	w := msg.words()
	n.charge(instr.OpMsg, rt.Model.MsgRecvBase+rt.Model.MsgPerWord*instr.Instr(w))
	if int(msg.target.Node) != n.ID {
		panic(fmt.Sprintf("core: restore for %v routed to node %d", msg.target, n.ID))
	}
	for _, it := range msg.ckptBatch {
		old := n.objects[it.ref.Index]
		if !old.lost {
			continue // duplicate restore (idempotent, like handleMigrate)
		}
		obj := n.arena.alloc()
		*obj = Object{Ref: it.ref, State: old.State, wantMove: -1,
			dur: &durability{mutVer: it.ver, snapVer: it.ver, ackVer: it.ver}}
		obj.State.(Checkpointable).RestoreWords(it.words)
		n.objects[it.ref.Index] = obj
		n.Stats.CkptsRestored++
		n.recov.RestoredObjects++
		rt.traceEventAt(n, n.Sim.Now(), uint8(trace.KRecover), nil, int64(RefW(it.ref)))
		n.lostObjs--
		if n.lostObjs == 0 {
			n.recov.RecoveryTime += n.Sim.Now() - n.rejoinAt
			n.lostObjs = -1
		}
		if q := n.parked[obj.Ref]; q != nil {
			delete(n.parked, obj.Ref)
			for m := q.pop(); m != nil; m = q.pop() {
				n.inbox.push(m)
			}
		}
	}
}

// noteDurable pre-declares one durable mutation of the activation's target:
// called right before a Durable body runs, it bumps the object's mutation
// version so the body's Reply can be tagged with (and deferred until) the
// checkpoint that covers it. No-op unless checkpointing is on.
func (rt *RT) noteDurable(n *NodeRT, m *Method, obj *Object) {
	if m.Durable && rt.checkpointing() {
		obj.durable().mutVer++
		if int(obj.Ref.Node) == n.ID {
			n.markDirty(obj.Ref.Index)
		}
	}
}

// markDirty adds objects[i] to the set shipNode visits.
func (n *NodeRT) markDirty(i int32) {
	w := int(i) / 64
	if w >= len(n.dirty) {
		n.dirty = append(n.dirty, make([]uint64, w+1-len(n.dirty))...)
	}
	n.dirty[w] |= 1 << (i % 64)
}
