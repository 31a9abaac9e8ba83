package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reliable delivery: exactly-once message handling over an at-least-once
// (or worse) network. The fault-injected network (sim.Faults) may drop,
// duplicate or reorder any frame; this layer restores the invariant the
// rest of the runtime was built on — every handler (request wrapper, reply,
// msgMigrate, msgMoved) executes exactly once — by layering, per directed
// (sender, destination) link:
//
//   - sequence numbers on every data frame (one extra modeled header word);
//   - an in-order receive window: frames beyond the cumulative cursor are
//     buffered, contiguous frames are released to the node's inbox exactly
//     once, and anything at or below the cursor (or already buffered) is
//     suppressed as a duplicate;
//   - cumulative acks, delayed briefly so one ack covers a batch of frames,
//     carried on small unreliable frames (a lost ack only costs a
//     retransmission, which the receiver suppresses and re-acks);
//   - sender-side retransmission with per-frame exponential backoff up to a
//     configurable cap, driven by engine timers.
//
// The layer is engaged only when Config.Reliable is set; otherwise sends go
// straight to the engine exactly as before, with no extra charges. Acks and
// retransmissions are charged to the owning node like any other messaging
// software overhead, so fault recovery costs virtual time — the overhead
// the chaos tables (cmd/tables -table 8) measure.

// relSeqWords is the modeled size of the per-frame sequence header.
const relSeqWords = 1

// ackWords is the modeled size of a cumulative ack frame (link id + cursor).
const ackWords = 2

// sendLink is the sender half of one directed link.
type sendLink struct {
	to      int
	nextSeq uint64
	pending []*relFrame // unacked frames, in sequence order
	timer   *sim.Timer  // earliest-deadline retransmit timer
	timerAt sim.Time
	// epoch is the link incarnation (the sum of both endpoints' incarnation
	// numbers, see recover.go). Frames and acks are stamped with it at
	// transmission time; it only ever changes inside a link reset that also
	// re-sequences, so an epoch uniquely determines a sequence space.
	epoch int32
	// arrivalHigh is the latest expected arrival among frames sent on this
	// link. Delivery is released in order, so no frame can be acked before
	// every earlier frame has arrived; deadlines are computed from this
	// high-water mark, or small frames queued behind a slow bulk frame
	// (a migration payload) would time out spuriously.
	arrivalHigh sim.Time
}

// relFrame is one in-flight (sent, not yet cumulatively acked) data frame.
type relFrame struct {
	seq      uint64
	msg      *Msg
	words    int // modeled size incl. sequence header
	lat      instr.Instr
	deadline sim.Time    // retransmit when not acked by this time
	rto      instr.Instr // current backoff; doubles per retransmission
	sends    int         // transmissions so far (1 = original only)
}

// recvLink is the receiver half of one directed link.
type recvLink struct {
	from     int
	cursor   uint64          // all frames with seq <= cursor were delivered
	buf      map[uint64]*Msg // out-of-order frames beyond cursor+1
	ackTimer *sim.Timer      // pending delayed-ack timer
	acked    uint64          // cursor value covered by the last ack sent
	// epoch mirrors sendLink.epoch on the receive side: frames from an
	// older incarnation are rejected, a newer incarnation implicitly resets
	// the sequence space (cursor 0, buffer dropped).
	epoch int32
}

// reliable reports whether the exactly-once layer is engaged.
func (rt *RT) reliable() bool { return rt.Cfg.Reliable }

// rtoBase returns the initial retransmit timeout: roughly two model round
// trips, so a healthy link never retransmits.
func (rt *RT) rtoBase() instr.Instr {
	m := rt.Model
	return 2 * (m.MsgSendBase + m.NetLatency + m.MsgRecvBase +
		m.ReplySend + m.ReplyLatency + m.ReplyRecv)
}

// rtoCap returns the backoff ceiling: backoff doubles the timeout per
// retransmission up to 64x the base.
func (rt *RT) rtoCap() instr.Instr { return 64 * rt.rtoBase() }

// ackDelay returns the delayed-ack coalescing window: how long a receiver
// gathers deliveries before sending one cumulative ack.
func (rt *RT) ackDelay() instr.Instr { return rt.Model.NetLatency }

// outLink returns (creating if needed) n's sender link toward dest.
func (n *NodeRT) outLink(dest int) *sendLink {
	if n.relOut == nil {
		n.relOut = make([]*sendLink, len(n.rt.Nodes))
	}
	l := n.relOut[dest]
	if l == nil {
		// A lazily-created link MUST start at the current incarnation epoch:
		// initializing to zero would let a retransmit from a pre-crash
		// incarnation be accepted (via implicit advance) at a rejoined node
		// before any new-epoch traffic, re-executing a lost handler.
		l = &sendLink{to: dest, epoch: n.rt.linkEpoch(n.ID, dest)}
		n.relOut[dest] = l
	}
	return l
}

// inLink returns (creating if needed) n's receiver link from src.
func (n *NodeRT) inLink(src int) *recvLink {
	if n.relIn == nil {
		n.relIn = make([]*recvLink, len(n.rt.Nodes))
	}
	l := n.relIn[src]
	if l == nil {
		// Same epoch-initialization rule as outLink: see the comment there.
		l = &recvLink{from: src, buf: make(map[uint64]*Msg), epoch: n.rt.linkEpoch(src, n.ID)}
		n.relIn[src] = l
	}
	return l
}

// send transmits one runtime message from node `from` to node `to` with the
// given modeled payload size and network latency. This is the single choke
// point for every message the runtime emits (requests, replies, migrations,
// moved notices): unreliable mode hands the message straight to the engine;
// reliable mode frames it with a sequence number and takes responsibility
// for redelivery until acked.
func (rt *RT) send(from, to *NodeRT, msg *Msg, w int, lat instr.Instr) {
	if rt.Cfg.Tracer != nil {
		// The one KMsgSend per transmission, stamped with (destination,
		// per-link seq, words) so the delivery-side KMsgRecv can be matched
		// exactly even under reordering. Forwarded requests re-enter here
		// and get a fresh hop.
		if from.msgSeq == nil {
			from.msgSeq = make([]uint32, len(rt.Nodes))
		}
		from.msgSeq[to.ID]++
		msg.wireFrom, msg.wireSeq, msg.wireWords = int32(from.ID), from.msgSeq[to.ID], int32(w)
		rt.traceEvent(from, uint8(trace.KMsgSend), msg.method,
			trace.PackMsg(to.ID, msg.wireSeq, w))
	}
	if !rt.reliable() {
		// Routed through the engine's ordered commit point: the topology
		// hook (netDelay's Network arm) runs there, where mutating shared
		// link-contention state is safe under the parallel engine. Serial
		// execution applies it inline right here, exactly as before.
		rt.Eng.SendRouted(from.Sim, to.Sim, from.Sim.Clock, lat, w, func() { rt.deliverInbox(to, msg) })
		return
	}
	l := from.outLink(to.ID)
	l.nextSeq++
	f := &relFrame{seq: l.nextSeq, msg: msg, words: w + relSeqWords, lat: lat, rto: rt.rtoBase()}
	l.pending = append(l.pending, f)
	start := from.Sim.Clock
	if now := from.Sim.Now(); start < now {
		start = now
	}
	rt.sendFrame(from, to, l, f, start)
	rt.armRetransmit(from, l)
}

// sendFrame performs one physical transmission of a data frame, departing at
// `depart`, and sets its retransmit deadline — the RTO beyond the earliest
// time the frame's cumulative ack could exist (the link's arrival high-water
// mark). Original transmissions depart at the sending node's clock (the send
// instruction executes there); retransmissions depart at the timer's event
// time — the NIC resends without waiting for the CPU.
func (rt *RT) sendFrame(from, to *NodeRT, l *sendLink, f *relFrame, depart sim.Time) {
	f.sends++
	// Topology latency is computed per transmission, at the transmission's
	// departure time: a retransmission sees the contention of its moment,
	// not the original send's.
	lat := rt.netDelay(from, to, f.words, depart, f.lat)
	arrive := depart + lat
	if l.arrivalHigh > arrive {
		arrive = l.arrivalHigh
	} else {
		l.arrivalHigh = arrive
	}
	f.deadline = arrive + sim.Time(f.rto)
	// The epoch is read at transmission time: a frame re-sequenced by a
	// rejoin-driven link reset retransmits under the new epoch.
	epoch, seq, msg := l.epoch, f.seq, f.msg
	rt.Eng.SendAt(from.Sim, to.Sim, depart, lat, f.words,
		func() { rt.recvFrame(to, from.ID, epoch, seq, msg) })
}

// armRetransmit (re)schedules the link's retransmit timer at the earliest
// pending deadline. With nothing pending the timer is stopped.
func (rt *RT) armRetransmit(n *NodeRT, l *sendLink) {
	if len(l.pending) == 0 {
		if l.timer != nil {
			l.timer.Stop()
			l.timer = nil
		}
		return
	}
	at := l.pending[0].deadline
	for _, f := range l.pending[1:] {
		if f.deadline < at {
			at = f.deadline
		}
	}
	if l.timer != nil {
		if l.timerAt <= at {
			return // an earlier (or equal) wake-up is already scheduled
		}
		l.timer.Stop()
	}
	l.timerAt = at
	// Node-scoped timer: the link belongs to n, so the timer event must run
	// (and be cancellable) in n's context on n's shard.
	l.timer = n.Sim.AfterFunc(at-n.Sim.Now(), func() {
		l.timer = nil
		rt.retransmit(n, l)
	})
}

// retransmit resends every pending frame whose deadline has passed, doubling
// its backoff (capped), then re-arms the timer. Retransmission is charged to
// the sending node like an original injection: recovering from loss costs
// virtual time.
func (rt *RT) retransmit(n *NodeRT, l *sendLink) {
	now := n.Sim.Now()
	to := rt.Nodes[l.to]
	rtoMax := rt.rtoCap()
	for _, f := range l.pending {
		if f.deadline > now {
			continue
		}
		n.charge(instr.OpMsg, rt.Model.MsgSendBase+rt.Model.MsgPerWord*instr.Instr(f.words))
		n.Stats.Retransmits++
		f.rto *= 2
		if f.rto > rtoMax {
			f.rto = rtoMax
		}
		if int64(f.rto) > n.Stats.MaxBackoff {
			n.Stats.MaxBackoff = int64(f.rto)
		}
		rt.traceEvent(n, uint8(trace.KRetransmit), f.msg.method, int64(f.sends+1))
		rt.sendFrame(n, to, l, f, now)
	}
	rt.armRetransmit(n, l)
}

// recvFrame is the receive path of the reliable layer: incarnation
// filtering, duplicate suppression, in-order release to the inbox, and ack
// scheduling. It runs at frame arrival time on the destination node.
func (rt *RT) recvFrame(n *NodeRT, from int, epoch int32, seq uint64, msg *Msg) {
	l := n.inLink(from)
	if epoch < l.epoch {
		// A retransmit from a previous incarnation of this link (the sender
		// or this node crashed since it was stamped). Its sequence numbers
		// belong to a dead sequence space — accepting it could re-execute a
		// handler the crash already rolled back. Drop; the sender's link
		// reset will re-sequence and resend whatever is still owed.
		n.charge(instr.OpMsg, rt.Model.MsgRecvBase)
		n.Stats.StaleRejected++
		return
	}
	if epoch > l.epoch {
		// First frame of a newer incarnation: adopt it and reset the
		// sequence space. Anything buffered belongs to the old epoch.
		l.epoch = epoch
		l.cursor, l.acked = 0, 0
		clear(l.buf)
	}
	if seq <= l.cursor || l.buf[seq] != nil {
		// Already delivered (or queued for delivery): a wire duplicate or a
		// retransmission whose ack was lost. Discard, pay the dispatch that
		// looked at the header, and re-ack so the sender stops resending.
		n.charge(instr.OpMsg, rt.Model.MsgRecvBase)
		n.Stats.DupSuppressed++
		rt.traceEvent(n, uint8(trace.KDupSuppressed), msg.method, int64(msg.wireWords))
		rt.scheduleAck(n, l)
		return
	}
	l.buf[seq] = msg
	for {
		next, ok := l.buf[l.cursor+1]
		if !ok {
			break
		}
		delete(l.buf, l.cursor+1)
		l.cursor++
		rt.deliverInbox(n, next)
	}
	rt.scheduleAck(n, l)
}

// deliverInbox hands one message to the destination node's inbox, emitting
// the delivery-side KMsgRecv. The event is stamped at the later of the
// node's clock and the engine's event time: the effective arrival — when
// the node could first act on the message — not the possibly-stale clock
// of a waiting node or the possibly-earlier wire time of a busy one.
func (rt *RT) deliverInbox(n *NodeRT, msg *Msg) {
	n.inbox.push(msg)
	if rt.Cfg.Tracer != nil {
		at := n.Sim.Clock
		if now := n.Sim.Now(); now > at {
			at = now
		}
		rt.traceEventAt(n, at, uint8(trace.KMsgRecv), msg.method,
			trace.PackMsg(int(msg.wireFrom), msg.wireSeq, int(msg.wireWords)))
	}
}

// scheduleAck arranges one cumulative ack covering everything delivered so
// far, after a short coalescing delay. If an ack timer is already pending
// the new delivery rides along — that is the batching.
func (rt *RT) scheduleAck(n *NodeRT, l *recvLink) {
	if l.ackTimer != nil {
		return
	}
	l.ackTimer = n.Sim.AfterFunc(sim.Time(rt.ackDelay()), func() {
		l.ackTimer = nil
		rt.sendAck(n, l)
	})
}

// sendAck emits the cumulative ack frame. Acks are unreliable (never
// sequenced or retransmitted): they are idempotent, and a lost ack merely
// provokes a retransmission that the receiver suppresses and re-acks.
func (rt *RT) sendAck(n *NodeRT, l *recvLink) {
	covered := int64(l.cursor - l.acked)
	l.acked = l.cursor
	epoch, cursor := l.epoch, l.cursor
	n.charge(instr.OpMsg, rt.Model.ReplySend)
	n.Stats.AcksSent++
	rt.traceEvent(n, uint8(trace.KAckBatch), nil, covered)
	peer := rt.Nodes[l.from]
	// Departs at the event time of the ack timer, not the node's clock: acks
	// are NIC-level and must not queue behind a busy CPU, or a loaded
	// receiver would provoke spurious retransmissions from every sender.
	now := n.Sim.Now()
	lat := rt.netDelay(n, peer, ackWords, now, rt.Model.ReplyLatency)
	rt.Eng.SendAt(n.Sim, peer.Sim, now, lat, ackWords,
		func() { rt.recvAck(peer, n.ID, epoch, cursor) })
}

// recvAck applies a cumulative ack on the sending side: every pending frame
// at or below the cursor is settled, and the retransmit timer is re-armed
// for whatever remains. Stale (reordered) acks are harmless no-ops; an ack
// from a different link incarnation is dropped outright — its cursor counts
// a sequence space this link no longer uses.
func (rt *RT) recvAck(n *NodeRT, from int, epoch int32, cursor uint64) {
	l := n.outLink(from)
	if epoch != l.epoch {
		n.Stats.StaleRejected++
		return
	}
	keep := l.pending[:0]
	for _, f := range l.pending {
		if f.seq > cursor {
			keep = append(keep, f)
		}
	}
	if len(keep) == len(l.pending) {
		return // nothing newly acked
	}
	l.pending = keep
	n.charge(instr.OpMsg, rt.Model.ReplyRecv)
	rt.armRetransmit(n, l)
}

// installFaults wires the configured fault layer into the engine and
// installs the observer that turns injected faults into trace events and
// per-node statistics. Called from NewRT.
func (rt *RT) installFaults() {
	if rt.Cfg.Faults == nil {
		return
	}
	rt.Eng.SetFaults(rt.Cfg.Faults)
	// The observer always runs in ordered (single-threaded) context — wire
	// faults are drawn at the engine's commit point — and `at` carries the
	// relevant node's clock captured at the injection, which under the
	// parallel engine may predate the node's live clock (traces must stamp
	// the send instruction's time, not the barrier's).
	rt.Eng.SetFaultObserver(func(kind sim.FaultKind, from, to int, words int, aux, at sim.Time) {
		n := rt.Nodes[from]
		switch kind {
		case sim.FaultDrop:
			n.Stats.DropsSeen++
			rt.traceEventAt(n, at, uint8(trace.KDrop), nil, int64(words))
		case sim.FaultDup:
			rt.traceEventAt(n, at, uint8(trace.KDupWire), nil, int64(words))
		case sim.FaultJitter:
			// Reordering needs no recovery; it is visible as out-of-order
			// buffering at the receiver, so it is not traced separately.
		case sim.FaultStall, sim.FaultSlow:
			n.Stats.Stalls++
			rt.traceEventAt(n, at, uint8(trace.KStall), nil, int64(aux))
		case sim.FaultCrash:
			rt.onCrash(n, aux)
		case sim.FaultRejoin:
			rt.onRejoin(n)
		}
	})
}

// checkLinksQuiescent verifies the reliable layer is drained: no unacked
// frames and no buffered out-of-order deliveries anywhere.
func (rt *RT) checkLinksQuiescent() error {
	if !rt.reliable() {
		return nil
	}
	for _, n := range rt.Nodes {
		for _, l := range n.relOut {
			if l != nil && len(l.pending) > 0 {
				return fmt.Errorf("core: node %d link->%d not quiescent: %d unacked frames",
					n.ID, l.to, len(l.pending))
			}
		}
		for _, l := range n.relIn {
			if l != nil && len(l.buf) > 0 {
				return fmt.Errorf("core: node %d link<-%d not quiescent: %d frames buffered out of order",
					n.ID, l.from, len(l.buf))
			}
		}
	}
	return nil
}
