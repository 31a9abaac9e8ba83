// Package trace records execution-model events from a simulated run: every
// invocation, speculative stack call, fallback, suspension, wake-up,
// message and completion, stamped with the owning node and its virtual
// clock. Traces explain *why* a configuration performs as it does — e.g.
// the fallback storm at SOR's lowest-locality point, or wrappers absorbing
// EM3D's low-locality requests — and feed the timeline renderer.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/instr"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KInvoke: an invocation was issued (Aux: 0 local, 1 remote).
	KInvoke Kind = iota
	// KStackCall: a speculative sequential execution began.
	KStackCall
	// KFallback: a stack frame was promoted to a heap context.
	KFallback
	// KCtxAlloc: a heap context was allocated for a parallel invocation.
	KCtxAlloc
	// KSuspend: a context suspended on an unsatisfied touch (Aux: missing).
	KSuspend
	// KWake: a suspended context became runnable again.
	KWake
	// KMsgSend: a request or reply message was injected (Aux: words).
	KMsgSend
	// KMsgRecv: a message was handled (Aux: words).
	KMsgRecv
	// KWrapper: an arriving request ran from the buffer on the stack.
	KWrapper
	// KReply: an activation determined its result.
	KReply
	// KComplete: an activation retired.
	KComplete
	// KMigrateStart: an object was frozen and shipped to a new home
	// (Aux: the object's packed Ref).
	KMigrateStart
	// KMigrateArrive: a migrated object was installed on its new home
	// (Aux: the object's packed Ref).
	KMigrateArrive
	// KForwardHop: a request for a migrated object was re-routed through a
	// forwarding stub (Aux: the hop count so far).
	KForwardHop
	// KDrop: the network dropped a message this node sent (Aux: words).
	KDrop
	// KDupWire: the network duplicated a frame this node sent on the wire
	// (Aux: words). Recorded on the sending node.
	KDupWire
	// KDupSuppressed: the reliable layer discarded an already-delivered
	// frame (Aux: words). Recorded on the receiving node.
	KDupSuppressed
	// KRetransmit: an unacked frame was resent (Aux: total transmissions of
	// that frame so far, including the original).
	KRetransmit
	// KAckBatch: a cumulative ack was sent (Aux: frames newly covered).
	KAckBatch
	// KStall: this node entered a fault-injected stall or brown-out window
	// (Aux: window length in virtual time).
	KStall
	// KHopLimit: a request exceeded the forwarding-chain bound (Aux: hops).
	KHopLimit
	// KLockBlock: an invocation parked on a held object lock (Aux: 0).
	KLockBlock
	// KReqArrive: an open-loop serving request entered the system (Aux: the
	// request id assigned by the load generator). Emitted by the workload
	// driver at the request's modeled arrival time, which queueing may put
	// well before the frontend's clock.
	KReqArrive
	// KReqDone: a serving request determined its reply (Aux: request id).
	KReqDone
	// KCrash: this node fail-stop crashed, losing its volatile state
	// (Aux: crash window length in virtual time).
	KCrash
	// KRecover: a lost object was restored on this node from its latest
	// checkpoint (Aux: the object's packed Ref).
	KRecover
	// KCheckpoint: an object's state was snapshotted to its backup node
	// (Aux: snapshot payload words).
	KCheckpoint
	// KReqRetry: a serving frontend re-issued a request whose deadline
	// expired (Aux: request id).
	KReqRetry

	// NumKinds is the number of event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"invoke", "stackcall", "fallback", "ctxalloc", "suspend",
	"wake", "send", "recv", "wrapper", "reply", "complete",
	"migstart", "migarrive", "fwdhop",
	"drop", "dupwire", "dupsupp", "retransmit", "ackbatch", "stall",
	"hoplimit", "lockblock", "reqarrive", "reqdone",
	"crash", "recover", "checkpoint", "reqretry",
}

// auxMeanings documents, per Kind, what Event.Aux carries — the one table
// aggregators consult so no Kind's Aux is ever ambiguous. Keep it in sync
// with the emit sites in internal/core; TestAuxMeanings enforces coverage.
var auxMeanings = [NumKinds]string{
	KInvoke:        "0 = local target, 1 = remote target",
	KStackCall:     "unused (0)",
	KFallback:      "packed Ref of the receiver object",
	KCtxAlloc:      "unused (0)",
	KSuspend:       "number of missing futures / outstanding joins",
	KWake:          "unused (0)",
	KMsgSend:       "PackMsg(peer=destination node, per-link seq, payload words)",
	KMsgRecv:       "PackMsg(peer=wire sender node, per-link seq, payload words)",
	KWrapper:       "unused (0)",
	KReply:         "unused (0)",
	KComplete:      "unused (0)",
	KMigrateStart:  "packed Ref of the migrating object",
	KMigrateArrive: "packed Ref of the installed object",
	KForwardHop:    "forwarding hops taken so far, including this one",
	KDrop:          "payload words of the dropped frame",
	KDupWire:       "payload words of the duplicated frame",
	KDupSuppressed: "payload words of the suppressed frame",
	KRetransmit:    "total transmissions of the frame so far, incl. original",
	KAckBatch:      "frames newly covered by this cumulative ack",
	KStall:         "stall/brown-out window length in virtual time",
	KHopLimit:      "forwarding hops at the moment the bound was exceeded",
	KLockBlock:     "unused (0)",
	KReqArrive:     "serving request id (pairs with the KReqDone of the same id)",
	KReqDone:       "serving request id (pairs with the KReqArrive of the same id)",
	KCrash:         "crash window length in virtual time",
	KRecover:       "packed Ref of the restored object",
	KCheckpoint:    "snapshot payload words shipped to the backup",
	KReqRetry:      "serving request id of the re-issued attempt",
}

// AuxMeaning returns the documented Aux semantics for kind k ("" only for
// out-of-range kinds).
func AuxMeaning(k Kind) string {
	if int(k) < len(auxMeanings) {
		return auxMeanings[k]
	}
	return ""
}

// PackMsg packs the per-message fields of a KMsgSend/KMsgRecv Aux: the peer
// node (destination on the send side, wire sender on the receive side), the
// per-directed-link sequence number, and the modeled payload words. Widths:
// 16-bit peer, 24-bit seq (wraps after 16M messages per link), 20-bit words.
func PackMsg(peer int, seq uint32, words int) int64 {
	return int64(peer&0xFFFF)<<44 | int64(seq&0xFFFFFF)<<20 | int64(words&0xFFFFF)
}

// UnpackMsg inverts PackMsg.
func UnpackMsg(aux int64) (peer int, seq uint32, words int) {
	return int(aux >> 44 & 0xFFFF), uint32(aux >> 20 & 0xFFFFFF), int(aux & 0xFFFFF)
}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one recorded occurrence.
type Event struct {
	At     instr.Instr // the node's virtual clock when recorded
	Node   int32
	Kind   Kind
	Method string
	Aux    int64
}

// Buffer is a bounded in-memory trace. When full, the oldest events are
// overwritten (ring); Dropped counts overwrites. The zero value is unusable;
// call NewBuffer.
type Buffer struct {
	events  []Event
	start   int
	n       int
	Dropped int64
	counts  [NumKinds]int64
}

// NewBuffer creates a trace buffer retaining up to cap events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Buffer{events: make([]Event, capacity)}
}

// Record implements the runtime's tracer hook.
func (b *Buffer) Record(node int, at instr.Instr, kind uint8, method string, aux int64) {
	k := Kind(kind)
	if k < NumKinds {
		b.counts[k]++
	}
	idx := (b.start + b.n) % len(b.events)
	b.events[idx] = Event{At: at, Node: int32(node), Kind: k, Method: method, Aux: aux}
	if b.n < len(b.events) {
		b.n++
	} else {
		b.start = (b.start + 1) % len(b.events)
		b.Dropped++
	}
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return b.n }

// Events returns the retained events, oldest first. It copies the whole
// ring; hot consumers should use Each or AppendTo instead.
func (b *Buffer) Events() []Event {
	return b.AppendTo(make([]Event, 0, b.n))
}

// Each calls fn on every retained event, oldest first, without copying the
// ring. It stops early if fn returns false. fn must not call Record on the
// same buffer.
func (b *Buffer) Each(fn func(Event) bool) {
	for i := 0; i < b.n; i++ {
		if !fn(b.events[(b.start+i)%len(b.events)]) {
			return
		}
	}
}

// AppendTo appends the retained events, oldest first, to dst and returns the
// extended slice. Callers that process traces repeatedly can reuse dst to
// avoid per-call allocation.
func (b *Buffer) AppendTo(dst []Event) []Event {
	if b.n == len(b.events) && b.start == 0 {
		return append(dst, b.events...)
	}
	dst = append(dst, b.events[b.start:min(b.start+b.n, len(b.events))]...)
	if wrap := b.start + b.n - len(b.events); wrap > 0 {
		dst = append(dst, b.events[:wrap]...)
	}
	return dst
}

// Count returns the total occurrences of kind k, including overwritten ones.
func (b *Buffer) Count(k Kind) int64 { return b.counts[k] }

// Summary writes per-kind totals.
func (b *Buffer) Summary(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events retained (%d dropped)\n", b.n, b.Dropped)
	for k := Kind(0); k < NumKinds; k++ {
		if b.counts[k] > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", k, b.counts[k])
		}
	}
}

// Timeline writes the retained events in global time order, one line per
// event, restricted to [from, to] (inclusive; to <= 0 means no upper bound).
func (b *Buffer) Timeline(w io.Writer, from, to instr.Instr) {
	// Filter before sorting — one bounded copy of the window, not of the
	// whole ring.
	evs := make([]Event, 0, b.n)
	b.Each(func(e Event) bool {
		if e.At >= from && (to <= 0 || e.At <= to) {
			evs = append(evs, e)
		}
		return true
	})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, e := range evs {
		fmt.Fprintf(w, "%10d n%-3d %-10s %-20s %d\n", e.At, e.Node, e.Kind, e.Method, e.Aux)
	}
}

// PerNode returns per-node event counts of a given kind.
func (b *Buffer) PerNode(k Kind) map[int32]int64 {
	out := map[int32]int64{}
	b.Each(func(e Event) bool {
		if e.Kind == k {
			out[e.Node]++
		}
		return true
	})
	return out
}
