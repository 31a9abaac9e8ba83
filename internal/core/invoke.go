package core

import (
	"fmt"
	"math/bits"

	"repro/internal/instr"
	"repro/internal/trace"
)

// Invoke issues a method invocation from the running activation fr to
// method m on target, directing the result to future slot `slot` of fr
// (or JoinDiscard to only count it toward fr's join).
//
// This is the hybrid model's central dispatch (paper Section 3):
//
//   - local, unlocked target under the hybrid model: speculative sequential
//     execution on the stack; the callee either completes synchronously
//     (OK) or unwinds into a lazily-created heap context (the caller gets
//     NeedUnwind if it is itself on the stack);
//   - local target under the parallel-only model (or past the inlining
//     depth limit): a heap context is allocated and scheduled;
//   - remote target: an active message carries the invocation and a
//     continuation for the result; a stack-mode caller must then fall back
//     to its parallel version ("communication is required, and the stack
//     invocation falls back to the parallel version to enable
//     multithreading for latency tolerance", Section 4.3.2).
//
// A body receiving NeedUnwind must set fr.PC to its resume point and
// `return rt.Unwind(fr)`.
func (rt *RT) Invoke(fr *Frame, m *Method, target Ref, slot int, args ...Word) CallStatus {
	if slot == JoinDiscard {
		fr.joinOut++
	}
	return rt.invoke(fr, m, target, slot, args, false)
}

// invoke is the one routing path behind Invoke and ForwardTail. After the
// locality check it takes one of four paths: a request message to a remote
// target, a heap context parked on the target's held lock, a speculative
// call on the stack, or a scheduled heap context. The callee replies to
// future slot `slot` of fr, except for a tail forward (fwd): there it
// replies through the continuation fr itself received, which is
// materialized before it leaves the node, and a stack callee runs under
// the CP convention with the caller_info fr received. OK means the reply
// has landed (for a forward: the whole chain completed on the stack).
func (rt *RT) invoke(fr *Frame, m *Method, target Ref, slot int, args []Word, fwd bool) CallStatus {
	n := fr.Node
	mdl := rt.Model
	if rt.Cfg.CheckDecls {
		if fwd && !declaredEdge(fr.M.Forwards, m) {
			rt.declViolation(fr, "Forwards", m.Name,
				fmt.Sprintf("tail-forwarded to %s, which is not in the declared Forwards list", m.Name))
		}
		if !fwd && !declaredEdge(fr.M.Calls, m) {
			rt.declViolation(fr, "Calls", m.Name,
				fmt.Sprintf("invoked %s, which is not in the declared Calls list", m.Name))
		}
	}
	if !rt.Cfg.SeqOpt {
		n.charge(instr.OpCheck, mdl.NameTranslate+mdl.LocalityCheck)
	}
	n.Stats.Invokes++
	cont := Cont{Fr: fr, Slot: int32(slot), Node: int32(n.ID)}
	if fwd {
		cont = fr.RetCont
	}

	obj, loc := n.lookup(target)
	if obj == nil {
		n.Stats.RemoteInvokes++
		rt.traceEvent(n, uint8(trace.KInvoke), m, 1)
		if fwd {
			// Forwarding off-node requires the continuation to actually
			// exist (Section 3.2.3): materialize it per caller_info first.
			rt.materializeCont(n, fr, cont)
		}
		rt.sendRequest(n, m, target, args, cont, loc)
		return fr.pending()
	}
	n.Stats.LocalInvokes++
	rt.traceEvent(n, uint8(trace.KInvoke), m, 0)
	rt.noteAccess(n, obj, n.ID, fr.Self == target)
	if m.Locks && !rt.Cfg.SeqOpt {
		n.charge(instr.OpCheck, mdl.LockCheck)
	}

	switch {
	case !rt.Cfg.Hybrid || n.stackDepth >= rt.Cfg.MaxStackDepth:
		// Parallel (heap-based) invocation.
		rt.schedule(n, rt.newHeapFrame(n, m, target, args, cont))
	case m.Locks && obj.Locked():
		// The callee blocks immediately on the lock: create its context
		// lazily and park it; the caller proceeds as after any fallback.
		rt.parkOnLock(n, obj, rt.newHeapFrame(n, m, target, args, cont))
	default:
		// A local forward passes return_val_ptr and caller_info along on
		// the stack; the chain's root finds the result in return_val.
		sch, ci := m.Emitted, CallerInfo{}
		if fwd {
			sch, ci = SchemaCP, fr.CInfo
		}
		rt.chargeCall(n, sch, len(args))
		n.Stats.StackCalls++
		rt.traceEvent(n, uint8(trace.KStackCall), m, 0)
		st := rt.runSeq(n, m, obj, target, args, cont, ci)
		if st == Done || st == Forwarded && !fwd && fr.landed(slot) {
			return OK
		}
	}
	// Read the mode only now: a callee that captured its continuation has
	// promoted fr.
	return fr.pending()
}

// runSeq runs m's sequential version on the stack against the resident
// object obj, with reply continuation cont and caller_info ci: a stack
// call, a local forward, or a wrapper running an arrived request straight
// out of its message buffer. When the body returns, runSeq links or retires
// the frame by status and passes the status on, except that a callee whose
// reply is held for a group commit reports Forwarded: its reply has not
// landed yet, as for a forwarding chain still in flight.
func (rt *RT) runSeq(n *NodeRT, m *Method, obj *Object, target Ref, args []Word, cont Cont, ci CallerInfo) Status {
	cf := n.pool.checkout(m, n, target, args)
	rt.frameCreated(n, obj)
	cf.Mode = StackMode
	cf.RetCont = cont
	cf.CInfo = ci
	if m.Locks {
		obj.locked = true
		cf.lockObj = obj
	}
	rt.noteDurable(n, m, obj)
	n.stackDepth++
	prevM := n.curM
	n.curM = m
	st := m.Body(rt, cf)
	n.curM = prevM
	n.stackDepth--

	switch st {
	case Done:
		deferred := cf.replyDeferred
		rt.complete(n, cf)
		if deferred {
			return Forwarded
		}
	case Unwound:
		// The callee fell back. Its lazily-created context now lives in the
		// heap with the continuation linked into it (the caller-side work of
		// Figure 6); a stack caller must in turn revert to its parallel
		// version.
		n.charge(instr.OpFallback, rt.Model.LinkCont)
	case Forwarded:
		// The callee passed its reply obligation along. If the chain
		// completed synchronously the result has already landed
		// ("executing the forwarded continuation completely on the stack",
		// Section 3.2.3).
		rt.retire(n, cf)
	default:
		panic(fmt.Sprintf("core: %s returned invalid status %d", m.Name, st))
	}
	return st
}

// chargeCall charges a sequential call passing nargs argument words under
// calling convention s: the plain call, then the convention's overhead
// beyond it (Table 2's 6-8 instruction schema costs).
func (rt *RT) chargeCall(n *NodeRT, s Schema, nargs int) {
	mdl := rt.Model
	n.charge(instr.OpCall, mdl.CCall+mdl.CArgWord*instr.Instr(nargs))
	switch s {
	case SchemaNB:
		n.charge(instr.OpSchema, mdl.NBExtra)
	case SchemaMB:
		n.charge(instr.OpSchema, mdl.MBExtra+mdl.RetViaMem)
	case SchemaCP:
		n.charge(instr.OpSchema, mdl.CPExtra+mdl.RetViaMem)
	}
}

// Unwind falls the activation back from the stack into the heap (paper
// Figure 6, right side): the context is created lazily if it does not yet
// exist, live state is saved into it, and the context is scheduled so the
// parallel version resumes at fr.PC. The body must have set fr.PC first.
func (rt *RT) Unwind(fr *Frame) Status {
	n := fr.Node
	if !fr.promoted {
		rt.promote(n, fr)
	}
	fr.Mode = HeapMode
	rt.schedule(n, fr)
	return Unwound
}

// promote turns a stack frame into a heap context, charging the fallback
// cost: context allocation plus saving the live words, its arguments and
// locals (future slots are filled in place and not saved).
func (rt *RT) promote(n *NodeRT, fr *Frame) {
	live := fr.M.NArgs + fr.M.NLocals
	n.charge(instr.OpFallback,
		rt.Model.CtxAlloc+rt.Model.FallbackBase+rt.Model.FallbackPerWord*instr.Instr(live))
	fr.promoted = true
	fr.Mode = HeapMode
	n.Stats.Fallbacks++
	// Aux carries the receiver, so traces can localize fallbacks to objects
	// (e.g. regenerating Figure 9's perimeter picture for SOR).
	rt.traceEvent(n, uint8(trace.KFallback), fr.M, int64(RefW(fr.Self)))
}

// newHeapFrame allocates a heap context for a parallel invocation with the
// given reply continuation, charging allocation and initialization. The
// target must resolve locally — heap contexts only exist on their object's
// current home.
func (rt *RT) newHeapFrame(n *NodeRT, m *Method, target Ref, args []Word, cont Cont) *Frame {
	n.charge(instr.OpCtx, rt.Model.CtxAlloc+rt.Model.CtxInitWord*instr.Instr(len(args)))
	cf := n.pool.checkout(m, n, target, args)
	rt.frameCreatedRef(n, target)
	cf.Mode = HeapMode
	cf.promoted = true
	cf.RetCont = cont
	n.Stats.HeapInvokes++
	rt.traceEvent(n, uint8(trace.KCtxAlloc), m, 0)
	return cf
}

// schedule enqueues a ready heap context on the run queue.
func (rt *RT) schedule(n *NodeRT, fr *Frame) {
	n.runq.push(fr)
	n.charge(instr.OpSched, rt.Model.Enqueue)
}

// parkOnLock queues the heap context cf on obj's held lock; the holder's
// retirement hands the lock to its waiters in FIFO order (see retire).
func (rt *RT) parkOnLock(n *NodeRT, obj *Object, cf *Frame) {
	obj.waiters.push(cf)
	n.Stats.LockBlocks++
	rt.traceEvent(n, uint8(trace.KLockBlock), cf.M, 0)
}

// TouchAll synchronizes on the set of future slots in mask (paper
// Figure 4: "a set of futures are touched at one time to avoid unnecessary
// restarts"). It returns true if all are determined, letting the body
// proceed. Otherwise the frame suspends — falling back to the heap first if
// it was executing on the stack — and the body must `return core.Unwound`.
func (rt *RT) TouchAll(fr *Frame, mask uint64) bool {
	n := fr.Node
	cnt := bits.OnesCount64(mask)
	n.charge(instr.OpFuture, rt.Model.TouchBase+rt.Model.TouchPerFuture*instr.Instr(cnt))
	if mask>>uint(fr.M.NFutures) != 0 {
		panic(fmt.Sprintf("core: %s touched mask %#x beyond its %d future slots", fr.M.Name, mask, fr.M.NFutures))
	}
	missing := bits.OnesCount64(mask &^ fr.full)
	if missing == 0 {
		return true
	}
	if rt.Cfg.CheckDecls && !fr.M.MayBlockLocal && !fr.M.Locks {
		rt.declViolation(fr, "MayBlockLocal", "",
			fmt.Sprintf("suspended on %d unfilled future(s) of touch mask %#x, but neither MayBlockLocal nor Locks is declared", missing, mask))
	}
	if !fr.promoted {
		rt.promote(n, fr)
	}
	fr.Mode = HeapMode
	fr.touch = mask
	fr.waiting = true
	n.charge(instr.OpFuture, rt.Model.SuspendSave)
	n.Stats.Suspends++
	rt.traceEvent(n, uint8(trace.KSuspend), fr.M, int64(missing))
	return false
}

// TouchJoin synchronizes on all outstanding JoinDiscard replies (wide
// joins: parallel loops, barriers). Semantics as TouchAll.
func (rt *RT) TouchJoin(fr *Frame) bool {
	n := fr.Node
	n.charge(instr.OpFuture, rt.Model.TouchBase)
	if fr.joinOut == 0 {
		return true
	}
	if rt.Cfg.CheckDecls && !fr.M.MayBlockLocal && !fr.M.Locks {
		rt.declViolation(fr, "MayBlockLocal", "",
			fmt.Sprintf("suspended on a join of %d outstanding replies, but neither MayBlockLocal nor Locks is declared", fr.joinOut))
	}
	if !fr.promoted {
		rt.promote(n, fr)
	}
	fr.Mode = HeapMode
	fr.touch = 0
	fr.waiting = true
	n.charge(instr.OpFuture, rt.Model.SuspendSave)
	n.Stats.Suspends++
	rt.traceEvent(n, uint8(trace.KSuspend), fr.M, int64(fr.joinOut))
	return false
}

// Reply determines the activation's result: the value is delivered through
// its return continuation (directly for a stack caller, through a future
// fill locally, or via a reply message across nodes). Bodies call Reply
// exactly once and then return Done.
func (rt *RT) Reply(fr *Frame, val Word) {
	if fr.captured {
		panic(fmt.Sprintf("core: %s replied after capturing its continuation", fr.M.Name))
	}
	rt.traceEvent(fr.Node, uint8(trace.KReply), fr.M, 0)
	if fr.M.Durable && rt.checkpointing() {
		// Group commit: hold the reply until the backup acks a checkpoint
		// covering this mutation, so no client ever observes a state a
		// crash can roll back. noteDurable bumped mutVer before the body
		// ran, so the version is uncovered unless an ack somehow already
		// reached it (it cannot within one activation — the guard is
		// defensive).
		n := fr.Node
		if obj := n.localObject(fr.Self); obj != nil && obj.dur != nil && obj.dur.mutVer > obj.dur.ackVer {
			d := obj.dur
			d.deferred = append(d.deferred, deferredReply{cont: fr.RetCont, val: val, ver: d.mutVer})
			fr.replyDeferred = true
			rt.requestFlush(n)
			return
		}
	}
	rt.DeliverCont(fr.Node, fr.RetCont, val, fr.Mode == StackMode)
}

// ForwardTail forwards the activation's reply obligation to method m on
// target, as the activation's final action (paper Section 3.2.3 and the
// "forwarded messages executed on the stack" mechanism). The body must
// `return rt.ForwardTail(...)` — the result is Done if the forwarding chain
// completed synchronously on the stack, Forwarded otherwise.
func (rt *RT) ForwardTail(fr *Frame, m *Method, target Ref, args ...Word) Status {
	if fr.captured {
		panic(fmt.Sprintf("core: %s forwarded after capturing its continuation", fr.M.Name))
	}
	fr.captured = true
	if rt.invoke(fr, m, target, 0, args, true) != OK {
		return Forwarded
	}
	// The whole chain completed: the reply obligation is discharged, so
	// this activation finishes normally.
	fr.captured = false
	return Done
}

// CaptureCont explicitly captures the activation's continuation as a
// first-class value (to store in a data structure, as user-defined
// synchronization structures like barriers do). The continuation is
// materialized lazily per caller_info; the body must eventually cause it to
// be determined (DeliverCont) and must return Forwarded, not Done.
func (rt *RT) CaptureCont(fr *Frame) Cont {
	if rt.Cfg.CheckDecls && !fr.M.Captures {
		rt.declViolation(fr, "Captures", "",
			"captured its continuation, but Captures is not declared")
	}
	cont := fr.RetCont
	rt.materializeCont(fr.Node, fr, cont)
	fr.captured = true
	return cont
}

// materializeCont charges the lazy continuation-creation cases of
// Section 3.2.3, promoting the frame that holds the future if its context
// does not exist yet:
//
//  1. the continuation was forwarded in: context and continuation exist —
//     extract it (the proxy-context path);
//  2. the context exists but the continuation was implicit — create it;
//  3. neither exists — create the context from caller_info's size, then
//     the continuation.
func (rt *RT) materializeCont(n *NodeRT, fr *Frame, cont Cont) {
	mdl := rt.Model
	switch {
	case cont.Root != nil || cont.Fr == nil:
		// Already first-class (root sink) or discarded: nothing to create.
	case fr.CInfo.Forwarded:
		n.charge(instr.OpFuture, mdl.ContExtract)
	case cont.Fr.promoted:
		n.charge(instr.OpFuture, mdl.ContCreate)
	default:
		rt.promote(n, cont.Fr)
		n.charge(instr.OpFuture, mdl.ContCreate)
	}
}

// DeliverCont determines a first-class continuation with val, from node n.
// It is the runtime path behind Reply and the public path for captured
// continuations.
func (rt *RT) DeliverCont(n *NodeRT, c Cont, val Word, viaStack bool) {
	if c.Root != nil {
		c.Root.Val = val
		c.Root.Done = true
		return
	}
	if c.Fr == nil {
		return // discarded result (purely reactive computation)
	}
	if int(c.Node) == n.ID {
		rt.deliverLocal(n, c, val, viaStack)
		return
	}
	rt.sendReply(n, c, val)
}

// deliverLocal fills the continuation's future on its home node, waking the
// owning context if its touch set is now satisfied.
func (rt *RT) deliverLocal(n *NodeRT, c Cont, val Word, viaStack bool) {
	mdl := rt.Model
	if viaStack {
		// Stack calling conventions return the value through memory.
		n.charge(instr.OpSchema, mdl.RetViaMem)
	} else {
		n.charge(instr.OpFuture, mdl.FutureFill)
	}
	tf := c.Fr
	if n.pool.dead(tf) {
		// The frame crashed with its node. Its result (a reply to a request
		// the old incarnation issued, or a deferred group-commit release) has
		// nowhere to land; the application-level retry re-issues the work.
		return
	}
	if c.Slot == JoinDiscard {
		tf.joinOut--
		if tf.joinOut < 0 {
			panic("core: join reply with no outstanding join")
		}
		if tf.waiting && tf.touch == 0 && tf.joinOut == 0 {
			rt.wakeFrame(n, tf)
		}
		return
	}
	if tf.fill(int(c.Slot), val) {
		rt.wakeFrame(n, tf)
	}
}

// wakeFrame moves a satisfied context back onto the run queue.
func (rt *RT) wakeFrame(n *NodeRT, fr *Frame) {
	fr.waiting = false
	fr.touch = 0
	rt.schedule(n, fr)
	rt.traceEvent(n, uint8(trace.KWake), fr.M, 0)
}

// Work charges useful application work to the running activation's node.
func (rt *RT) Work(fr *Frame, cost instr.Instr) {
	fr.Node.charge(instr.OpWork, cost)
}
