package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/trace"
)

// runContext dispatches one ready heap context: it acquires the target
// object's lock if the method requires one (parking the context if the lock
// is held), runs the parallel version of the body from fr.PC, and retires
// the frame on completion.
func (rt *RT) runContext(n *NodeRT, fr *Frame) {
	n.charge(instr.OpSched, rt.Model.Dequeue)
	m := fr.M
	if m.Locks && fr.lockObj == nil {
		obj := n.localObject(fr.Self)
		if obj == nil {
			panic("core: context scheduled for an object that is not resident")
		}
		if !obj.tryLock() {
			rt.parkOnLock(n, obj, fr)
			return
		}
		fr.lockObj = obj
	}
	if fr.M.Durable && rt.checkpointing() {
		if obj := n.localObject(fr.Self); obj != nil {
			rt.noteDurable(n, fr.M, obj)
		}
	}
	n.charge(instr.OpCall, rt.Model.CCall)
	prevM := n.curM
	n.curM = m
	st := m.Body(rt, fr)
	n.curM = prevM
	switch st {
	case Done:
		rt.complete(n, fr)
	case Unwound:
		// The frame parked itself (waiting on futures, re-enqueued, or on a
		// lock queue); nothing to do here.
	case Forwarded:
		rt.retire(n, fr)
	default:
		panic(fmt.Sprintf("core: %s returned invalid status %d", m.Name, st))
	}
}

// complete retires an activation that returned Done. One that captured
// its continuation must return Forwarded instead.
func (rt *RT) complete(n *NodeRT, fr *Frame) {
	if fr.captured {
		panic(fmt.Sprintf("core: %s completed normally after capturing its continuation", fr.M.Name))
	}
	rt.retire(n, fr)
}

// retire releases a finished activation: the object lock is released
// (transferring it to the next waiter, which becomes runnable), and the
// frame returns to the pool. Heap contexts additionally pay reclamation.
func (rt *RT) retire(n *NodeRT, fr *Frame) {
	rt.traceEvent(n, uint8(trace.KComplete), fr.M, 0)
	if fr.lockObj != nil {
		if next := fr.lockObj.unlock(); next != nil {
			if n.pool.dead(next) {
				panic(fmt.Sprintf("core: node %d handed a lock to a frame of %s that a crash killed; a crash empties every lock's waiters, and nothing else queues a dead frame",
					n.ID, next.M.Name))
			}
			// Transfer the lock to the next parked activation and schedule it.
			next.lockObj = fr.lockObj
			rt.schedule(n, next)
		}
		fr.lockObj = nil
	}
	if fr.promoted {
		n.charge(instr.OpCtx, rt.Model.CtxFree)
	}
	rt.frameRetired(n, fr.Self)
	n.pool.release(fr)
}
