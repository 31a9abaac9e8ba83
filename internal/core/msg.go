package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/trace"
)

// msgKind classifies an active message.
type msgKind uint8

const (
	// msgRequest: run a method on a target object, continuation attached.
	msgRequest msgKind = iota
	// msgReply: a value determining a remote continuation.
	msgReply
	// msgMigrate: a serialized object moving to a new home.
	msgMigrate
	// msgMoved: a path-compression notice — "ref now lives at loc".
	msgMoved
	// msgCkpt: a snapshot of one object's durable state, shipped from its
	// owner to its backup node (see recover.go).
	msgCkpt
	// msgCkptAck: the backup's acknowledgement that a snapshot version is
	// durably stored; releases the owner's deferred replies up to it.
	msgCkptAck
	// msgRestore: a stored snapshot shipped from the backup to a rejoined
	// owner, restoring a crash-lost object.
	msgRestore
)

// Msg is an active message: a request to run a method on a target object
// (carrying the continuation for the result), a reply determining a
// continuation, or one of the migration-protocol messages. The simulator is
// single-address-space, so messages carry pointers, but all serialization
// and transport costs are charged per the machine model and remote state is
// only ever touched by its owner.
type Msg struct {
	method *Method
	target Ref
	args   []Word
	cont   Cont

	val Word

	// from is the node that originated the request (for moved notices);
	// hops counts forwarding re-routes (traced, and a chain-length check).
	from int32
	hops int32

	// obj is the payload of a msgMigrate; loc/ver the address and residence
	// version carried by a msgMoved. On a request, ver is the residence
	// version of the last forwarding stub it passed (0 before any hop). On
	// a msgCkpt, ver is the owner's incarnation when the batch shipped.
	obj *Object
	loc int32
	ver int32

	// ckptBatch carries the checkpoint-protocol payloads (msgCkpt,
	// msgCkptAck, msgRestore): per-object snapshots — words serialized into
	// a fresh slice at snapshot time (Checkpointable), so later mutations of
	// the live state never leak into a checkpoint already on the wire —
	// batched into one bulk transfer, so protocol cost is bounded by the
	// shipped state's size plus one message, not by the object count. An
	// ack carries the batch it acknowledges and is charged for its refs and
	// versions only.
	ckptBatch []ckptItem

	// wireFrom/wireSeq/wireWords identify the message's latest physical
	// transmission for trace correlation: the sending node, its per-link
	// sequence number, and the modeled payload words. Stamped by rt.send
	// (re-stamped when a forwarding stub re-sends), consumed by the
	// delivery-side KMsgRecv event. Tracing-only: the protocol never reads
	// them.
	wireFrom  int32
	wireSeq   uint32
	wireWords int32

	// kind sits in the padding after wireWords, which keeps Msg in the
	// 144-byte size class (TestMsgLayout).
	kind msgKind

	next *Msg
}

// words returns the modeled payload size in words: header (method id,
// target, continuation) plus arguments.
func (m *Msg) words() int {
	switch m.kind {
	case msgReply:
		return 2 // continuation + value: a single packet
	case msgMigrate:
		return 4 + migrateWords(m.obj.State)
	case msgMoved:
		return 3 // ref + new location: a single packet
	case msgCkpt, msgRestore:
		w := 1 // object count
		for _, it := range m.ckptBatch {
			w += 3 + len(it.words) // ref + version + payload each
		}
		return w
	case msgCkptAck:
		return 1 + 2*len(m.ckptBatch) // count + (ref, acked version) each
	}
	return 4 + len(m.args)
}

// msgQueue is a FIFO of messages.
type msgQueue struct {
	head, tail *Msg
	n          int
}

func (q *msgQueue) push(m *Msg) {
	m.next = nil
	if q.tail == nil {
		q.head = m
	} else {
		q.tail.next = m
	}
	q.tail = m
	q.n++
}

func (q *msgQueue) pop() *Msg {
	m := q.head
	if m == nil {
		return nil
	}
	q.head = m.next
	if q.head == nil {
		q.tail = nil
	}
	m.next = nil
	q.n--
	return m
}

// newMsg returns a blank message for a send from n: one that n consumed
// earlier, keeping its argument capacity, or a fresh one. Like the paper's
// wrappers, which run a request straight out of its message buffer, a
// request or reply costs no host allocation once the node's list is warm.
//
// A node takes messages off its list only in its own events, and consumed
// returns them only in the consuming node's events, so under the parallel
// engine each list stays with one shard and needs no locking.
func (n *NodeRT) newMsg() *Msg {
	msg := n.freeMsgs
	if msg == nil {
		return &Msg{}
	}
	n.freeMsgs = msg.next
	n.freeLen--
	*msg = Msg{args: msg.args[:0]}
	return msg
}

// maxFreeMsgs bounds a node's free list. Request/reply traffic keeps the
// lists short, but a node that consumes more than it sends, like a driver
// gathering every node's reply, would otherwise hold its peak intake for
// the rest of the run.
const maxFreeMsgs = 64

// consumed returns a request or reply that node n has finished with to n's
// free list; nothing may read msg afterwards. A reply is consumed once its
// value is delivered, a request once its wrapper has run or a heap context
// has copied its arguments. Parked and forwarded requests are not consumed.
// Reliable runs never recycle: the sender's relFrame holds the message
// until it is acked, and a duplicate frame can arrive after the message was
// consumed.
func (rt *RT) consumed(n *NodeRT, msg *Msg) {
	if rt.reliable() || n.freeLen == maxFreeMsgs {
		return
	}
	msg.next = n.freeMsgs
	n.freeMsgs = msg
	n.freeLen++
}

// sendRequest transmits a method invocation toward the target's believed
// owner (dest). The sender pays injection overhead; the receiver pays
// handler overhead on arrival (in handleMsg) and re-routes if the object
// has since migrated.
func (rt *RT) sendRequest(from *NodeRT, m *Method, target Ref, args []Word, cont Cont, dest int) {
	msg := from.newMsg()
	msg.method, msg.target, msg.cont, msg.from = m, target, cont, int32(from.ID)
	msg.args = append(msg.args, args...)
	w := msg.words()
	if w > DefaultMaxMsgWords {
		panic(fmt.Sprintf("core: oversized message for %s: %d words (limit %d)", m.Name, w, DefaultMaxMsgWords))
	}
	from.charge(instr.OpMsg, rt.Model.MsgSendBase+rt.Model.MsgPerWord*instr.Instr(w))
	to := rt.Nodes[dest]
	lat := rt.Model.NetLatency + rt.Model.NetPerWord*instr.Instr(w)
	rt.send(from, to, msg, w, lat)
}

// sendReply transmits a value determining a remote continuation.
func (rt *RT) sendReply(from *NodeRT, cont Cont, val Word) {
	msg := from.newMsg()
	msg.kind, msg.cont, msg.val, msg.from = msgReply, cont, val, int32(from.ID)
	from.charge(instr.OpMsg, rt.Model.ReplySend)
	from.Stats.Replies++
	to := rt.Nodes[cont.Node]
	rt.send(from, to, msg, msg.words(), rt.Model.ReplyLatency)
}

// handleMsg processes one arrived message on node n. Requests are first
// routed: if the target no longer lives here (it migrated away) the message
// takes a forwarding hop; if it is in flight to this node the message parks
// until it arrives. For requests that resolve locally under the hybrid
// model with wrappers enabled, the stack version of the method is executed
// directly from the message buffer (Section 3.3) — "a remote message can be
// processed entirely on the stack". Otherwise a heap context is allocated
// and scheduled, which is what the parallel-only baseline always does.
func (rt *RT) handleMsg(n *NodeRT, msg *Msg) {
	mdl := rt.Model
	switch msg.kind {
	case msgReply:
		n.charge(instr.OpMsg, mdl.ReplyRecv)
		rt.deliverLocal(n, msg.cont, msg.val, false)
		rt.consumed(n, msg)
		return
	case msgMigrate:
		rt.handleMigrate(n, msg)
		return
	case msgMoved:
		rt.handleMoved(n, msg)
		return
	case msgCkpt:
		rt.handleCkpt(n, msg)
		return
	case msgCkptAck:
		rt.handleCkptAck(n, msg)
		return
	case msgRestore:
		rt.handleRestore(n, msg)
		return
	}
	m := msg.method
	if m == nil {
		panic(fmt.Sprintf("core: malformed request on node %d: nil method, target=%v args=%d",
			n.ID, msg.target, len(msg.args)))
	}
	e, has := n.entry(msg.target)
	if !has || e.away && e.fwdVer < msg.ver {
		// The object is in flight to this node: either there is no entry
		// (every node it ever lived on keeps at least a stub), or the stub
		// is older than one the request already passed, which sent it here
		// because a newer residence is on its way. Hold until it arrives.
		n.charge(instr.OpMsg, mdl.MsgRecvBase)
		n.park(msg)
		return
	}
	if e.away {
		rt.forwardRequest(n, msg, e)
		return
	}
	obj := e
	n.charge(instr.OpMsg, mdl.MsgRecvBase+mdl.MsgPerWord*instr.Instr(msg.words()))
	rt.noteAccess(n, obj, int(msg.from), false)

	if !rt.Cfg.Hybrid || !rt.Cfg.Wrappers {
		// Parallel-only path: allocate and schedule a heap context.
		rt.schedule(n, rt.newHeapFrame(n, m, msg.target, msg.args, msg.cont))
		rt.consumed(n, msg)
		return
	}
	if m.Locks {
		n.charge(instr.OpCheck, mdl.LockCheck)
		if obj.Locked() {
			// Cannot run from the buffer: park a heap context on the lock.
			rt.parkOnLock(n, obj, rt.newHeapFrame(n, m, msg.target, msg.args, msg.cont))
			rt.consumed(n, msg)
			return
		}
	}
	// The schema-specific wrapper (Figure 8) runs the stack version straight
	// out of the buffer, with the message's continuation standing in for the
	// caller:
	//
	//   - NB: the body runs and its reply (if any — reactive computations may
	//     not produce one) is passed to the waiting future via the continuation;
	//   - MB: additionally, if the method blocks, the continuation is placed in
	//     the lazily-created callee context;
	//   - CP: a proxy context supplies caller_info saying the context exists
	//     and the continuation was forwarded, so lazy capture just extracts it.
	n.Stats.WrapperRuns++
	rt.traceEvent(n, uint8(trace.KWrapper), m, 0)
	rt.chargeCall(n, m.Emitted, len(msg.args))
	rt.runSeq(n, m, obj, msg.target, msg.args, msg.cont, CallerInfo{Forwarded: true})
	rt.consumed(n, msg)
}

// DefaultMaxMsgWords bounds a request's modeled payload, where exceeding it
// is a programming error caught at the sender, and each checkpoint-protocol
// message, which fragment splits to fit. Migration payloads are charged per
// word and not bounded.
const DefaultMaxMsgWords = 4096
