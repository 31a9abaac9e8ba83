package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/trace"
)

// Dynamic object migration (paper Section 6's "dynamic data migration"
// future work). An object's Ref is its birth name and never changes; what
// moves is the state. Every node the object has ever lived on keeps an
// entry for it — either the object itself or a forwarding stub pointing at
// the next hop of its migration history — so any request eventually reaches
// the current owner by following stubs. Stubs alone can form a cycle: an
// object that returns to a former home finds that home's old stub still
// pointing away until it lands, and a request could bounce between the old
// stub and the new one pointing back. So a forwarded request carries the
// residence version of the last stub it passed, and a request that reaches
// a stub older than that parks there: the residence it was sent to is in
// flight to this node, and the arrival drains it. Versions therefore
// strictly increase hop to hop, and a chain is at most the object's move
// count long. On every forward hop the router notifies the original
// requester of the better address ("moved" notices), compressing chains at
// the source: steady-state traffic goes direct.
//
// A migration happens only at an activation boundary: the policy marks the
// object (wantMove) and the move fires when its last live activation
// retires (Object.active reaches zero), so no frame ever outlives its
// object's residence. In-flight requests that overtake the serialized
// object are parked at the destination and drained when it arrives.

// MigrationPolicy decides when objects move. Implementations live in
// internal/migrate; core only defines the hook (like Tracer, to avoid an
// import cycle).
type MigrationPolicy interface {
	// OnAccess is consulted on the owning node n each time an invocation
	// reaches o (from is the requesting node; == n.ID for local hits).
	// Returning (dest, true) requests migration of o to dest; the move is
	// deferred to the object's next activation-free instant. The runtime
	// is passed so policies can read machine-wide state (e.g. per-node
	// resident counts for balance guards); they must not mutate it.
	OnAccess(rt *RT, n *NodeRT, o *Object, from int) (dest int, move bool)
	// Tick is invoked every Config.MigrationPeriod of virtual time (the
	// DES clock) while the machine has pending work, for policies that
	// rebalance periodically rather than per access.
	Tick(rt *RT, now Instr)
}

// Migratable lets application state declare its serialized size; migration
// messages of states that do not implement it are charged
// DefaultMigrateWords.
type Migratable interface {
	MigrateWords() int
}

// DefaultMigrateWords is the modeled payload size of a migrated object
// whose state does not implement Migratable.
const DefaultMigrateWords = 8

func migrateWords(state any) int {
	if m, ok := state.(Migratable); ok {
		return m.MigrateWords()
	}
	return DefaultMigrateWords
}

// locHint is a believed current owner learned from a msgMoved notice,
// versioned by the object's move count so stale notices never regress it.
type locHint struct {
	loc int32
	ver int32
}

// lookup resolves ref on node n for a *sender*: it returns the object if it
// currently lives here, else (nil, bestDest) where bestDest is the best
// known destination — a forwarding stub's target, a path-compression hint,
// or the birth node (which always has an entry).
func (n *NodeRT) lookup(ref Ref) (*Object, int) {
	if e, has := n.entry(ref); has {
		if !e.away {
			return e, n.ID
		}
		return nil, int(e.fwdTo)
	}
	if h, ok := n.hints[ref]; ok {
		return nil, int(h.loc)
	}
	return nil, int(ref.Node)
}

// entry returns this node's record for ref (the object itself or a
// forwarding stub), if it has one. Every node the object ever lived on —
// including its birth node — keeps an entry, so a request arriving at a
// node with no entry can only mean the object is in flight to it.
func (n *NodeRT) entry(ref Ref) (*Object, bool) {
	if int(ref.Node) == n.ID {
		if o := n.objects[ref.Index]; !o.lost {
			return o, true
		}
		// Crash-lost state: route as if the object were in flight, so
		// requests park here until a checkpoint restore re-installs it (or
		// forever, under a no-recovery configuration — that is the lost
		// work Table 10's no-recovery column measures).
		return nil, false
	}
	if o := n.imports[ref]; o != nil {
		return o, true
	}
	return nil, false
}

// localObject returns the object if ref currently resolves on n, else nil.
func (n *NodeRT) localObject(ref Ref) *Object {
	if int(ref.Node) == n.ID {
		if o := n.objects[ref.Index]; !o.away && !o.lost {
			return o
		}
		return nil
	}
	if o := n.imports[ref]; o != nil && !o.away {
		return o
	}
	return nil
}

// noteAccess maintains the object's access counters and consults the
// migration policy. It never moves the object immediately — the invocation
// that triggered it is still in progress — it only marks wantMove, fired at
// the next activation-free instant (retire). Self-invocations (an object
// driving its own methods) are not counted: that traffic follows the object
// wherever it lives, so it carries no placement signal; what localHits
// measures is affinity to *co-resident* objects, the traffic a move would
// turn remote.
func (rt *RT) noteAccess(n *NodeRT, obj *Object, from int, self bool) {
	pol := rt.Cfg.Migration
	if pol == nil || self {
		return
	}
	n.charge(instr.OpMigrate, rt.Model.MigCount)
	if obj.acc == nil {
		obj.acc = n.records.alloc()
	}
	obj.note(from != n.ID, int32(from))
	if obj.wantMove >= 0 {
		return // a move is already pending
	}
	if dest, move := pol.OnAccess(rt, n, obj, from); move && dest != n.ID && dest >= 0 && dest < len(rt.Nodes) {
		obj.wantMove = int32(dest)
		// Transfer the resident count at decision time, not arrival time:
		// several objects decide in the same window, and each decision must
		// see the destination population the earlier ones already committed
		// to, or they all pile onto the same underloaded node.
		n.resident--
		rt.Nodes[dest].resident++
	}
}

// RequestMigration asks for obj (owned by n) to move to dest. If the object
// is activation-free the move happens immediately; otherwise it fires when
// the last live activation retires. Used by periodic policies; per-access
// policies go through OnAccess.
func (rt *RT) RequestMigration(n *NodeRT, obj *Object, dest int) {
	if obj.away || obj.wantMove >= 0 || dest == n.ID || dest < 0 || dest >= len(rt.Nodes) {
		return
	}
	obj.wantMove = int32(dest)
	n.resident--
	rt.Nodes[dest].resident++
	rt.maybeMigrate(n, obj)
}

// maybeMigrate fires a pending move once the object is activation-free.
func (rt *RT) maybeMigrate(n *NodeRT, obj *Object) {
	if obj.wantMove < 0 || obj.active > 0 || obj.away {
		return
	}
	dest := int(obj.wantMove)
	obj.wantMove = -1
	if dest == n.ID {
		return
	}
	rt.migrateNow(n, obj, dest)
}

// migrateNow freezes obj (no live activations, lock free), charges the
// serialization, replaces the local entry with a forwarding stub, and ships
// the object to dest. Requests arriving meanwhile hit the stub and are
// re-routed; requests overtaking the payload park at dest until it arrives.
func (rt *RT) migrateNow(n *NodeRT, obj *Object, dest int) {
	if obj.active != 0 || obj.locked || obj.waiters.head != nil {
		panic(fmt.Sprintf("core: migrating object %v with live activations", obj.Ref))
	}
	w := 4 + migrateWords(obj.State)
	n.charge(instr.OpMigrate, rt.Model.MigSendBase+rt.Model.MigPerWord*instr.Instr(w))
	n.Stats.MigratesOut++
	obj.moves++
	rt.traceEvent(n, uint8(trace.KMigrateStart), nil, int64(RefW(obj.Ref)))

	stub := n.arena.alloc()
	*stub = Object{Ref: obj.Ref, away: true, fwdTo: int32(dest), fwdVer: obj.moves, wantMove: -1}
	n.installEntry(obj.Ref, stub)

	msg := &Msg{kind: msgMigrate, target: obj.Ref, obj: obj, from: int32(n.ID)}
	to := rt.Nodes[dest]
	lat := rt.Model.NetLatency + rt.Model.NetPerWord*instr.Instr(w)
	rt.send(n, to, msg, w, lat)
}

// handleMigrate installs an arrived object on its new home, drains any
// requests that overtook it, and notifies the birth node (the default
// routing target for senders with no better information) of the new
// address, so steady-state chains through the birth stub are one hop.
func (rt *RT) handleMigrate(n *NodeRT, msg *Msg) {
	obj := msg.obj
	if cur, has := n.entry(obj.Ref); has {
		// Arrival must be idempotent under redelivery (the reliable layer
		// suppresses duplicates before the inbox, but the protocol does not
		// depend on it): if this residence is already installed, or the
		// local entry is a stub at least as new as the payload (the object
		// has already moved on), the payload is stale — drop it.
		if cur == obj && !cur.away {
			return
		}
		if cur.away && cur.fwdVer >= obj.moves {
			return
		}
	}
	w := 4 + migrateWords(obj.State)
	n.charge(instr.OpMigrate, rt.Model.MigInstall+rt.Model.MigPerWord*instr.Instr(w))
	obj.away = false
	obj.fwdTo = -1
	obj.resetEpoch()
	n.installEntry(obj.Ref, obj)
	delete(n.hints, obj.Ref)
	n.Stats.MigratesIn++
	rt.traceEvent(n, uint8(trace.KMigrateArrive), nil, int64(RefW(obj.Ref)))
	if birth := int(obj.Ref.Node); birth != n.ID && birth != int(msg.from) {
		rt.sendMoved(n, rt.Nodes[birth], obj.Ref, int32(n.ID), obj.moves)
	}
	if q := n.parked[obj.Ref]; q != nil {
		delete(n.parked, obj.Ref)
		for m := q.pop(); m != nil; m = q.pop() {
			n.inbox.push(m)
		}
	}
}

// forwardRequest re-routes a request that arrived at a former home of its
// target: one hop along the stub chain, stamped with the stub's residence
// version (handleMsg parks it at any older stub further on), plus a "moved"
// notice back to the original requester so its next request goes direct
// (path compression).
func (rt *RT) forwardRequest(n *NodeRT, msg *Msg, stub *Object) {
	loc := int(stub.fwdTo)
	msg.hops++
	msg.ver = stub.fwdVer
	// A request's stamped residence version strictly increases hop to hop,
	// so a legitimate chain is at most the number of moves the object made
	// while the request chased it; 2*nodes+8 leaves slack for requests
	// chasing a repeatedly-migrating object without tolerating a cycle.
	if limit := 2*len(rt.Nodes) + 8; int(msg.hops) > limit {
		// A chain this long means routing state is corrupt (a cycle, or
		// hints regressing) — under message loss that must be a loud,
		// traced error, not unbounded ricocheting.
		rt.traceEvent(n, uint8(trace.KHopLimit), msg.method, int64(msg.hops))
		panic(fmt.Sprintf("core: request for %v exceeded forwarding bound: %d hops (limit %d) at node %d",
			msg.target, msg.hops, limit, n.ID))
	}
	n.charge(instr.OpMigrate, rt.Model.FwdHop)
	n.Stats.ForwardHops++
	rt.traceEvent(n, uint8(trace.KForwardHop), msg.method, int64(msg.hops))
	to := rt.Nodes[loc]
	w := msg.words()
	lat := rt.Model.NetLatency + rt.Model.NetPerWord*instr.Instr(w)
	rt.send(n, to, msg, w, lat)

	if from := int(msg.from); from >= 0 && from != n.ID && from != loc {
		rt.sendMoved(n, rt.Nodes[from], msg.target, stub.fwdTo, stub.fwdVer)
	}
}

// sendMoved transmits a path-compression notice: "as of residence ver, ref
// lives at loc".
func (rt *RT) sendMoved(n, to *NodeRT, ref Ref, loc, ver int32) {
	notice := &Msg{kind: msgMoved, target: ref, loc: loc, ver: ver, from: int32(n.ID)}
	rt.send(n, to, notice, notice.words(), rt.Model.ReplyLatency)
}

// handleMoved applies a path-compression notice: retarget this node's
// forwarding stub, or record a hint, whichever this node keeps for the
// object. Only strictly newer versions apply, so stale notices cannot
// regress a pointer (or re-introduce a cycle into the forwarding graph).
func (rt *RT) handleMoved(n *NodeRT, msg *Msg) {
	n.charge(instr.OpMigrate, rt.Model.HintApply)
	if int(msg.loc) == n.ID {
		return // telling us to look here is never useful routing info
	}
	if e, has := n.entry(msg.target); has {
		if e.away && msg.ver > e.fwdVer {
			e.fwdTo, e.fwdVer = msg.loc, msg.ver
			n.Stats.HintUpdates++
		}
		return
	}
	h, ok := n.hints[msg.target]
	if ok && msg.ver <= h.ver {
		return
	}
	if n.hints == nil {
		n.hints = make(map[Ref]locHint)
	}
	n.hints[msg.target] = locHint{loc: msg.loc, ver: msg.ver}
	n.Stats.HintUpdates++
}

// park holds a request whose target is in flight to this node until the
// object arrives (handleMigrate drains the queue).
func (n *NodeRT) park(msg *Msg) {
	if n.parked == nil {
		n.parked = make(map[Ref]*msgQueue)
	}
	q := n.parked[msg.target]
	if q == nil {
		q = &msgQueue{}
		n.parked[msg.target] = q
	}
	q.push(msg)
	n.Stats.MigrateParks++
}

// installEntry stores entry as node n's record for ref — in the birth table
// if ref was born here, in the import table otherwise.
func (n *NodeRT) installEntry(ref Ref, entry *Object) {
	if int(ref.Node) == n.ID {
		n.objects[ref.Index] = entry
		if d := entry.dur; d != nil && d.mutVer > d.ackVer {
			n.markDirty(ref.Index) // mutated while away
		}
		return
	}
	if n.imports == nil {
		n.imports = make(map[Ref]*Object)
	}
	if _, seen := n.imports[ref]; !seen {
		n.importRefs = append(n.importRefs, ref)
	}
	n.imports[ref] = entry
}

// frameCreated/frameRetired bracket an activation's lifetime against its
// target object, deferring pending migrations past live frames. Both are
// no-ops unless a migration policy is installed.
func (rt *RT) frameCreated(n *NodeRT, obj *Object) {
	if rt.Cfg.Migration == nil {
		return
	}
	obj.active++
}

// frameCreatedRef is frameCreated for callers holding only the target ref,
// which must resolve locally.
func (rt *RT) frameCreatedRef(n *NodeRT, ref Ref) {
	if rt.Cfg.Migration == nil {
		return
	}
	obj := n.localObject(ref)
	if obj == nil {
		panic(fmt.Sprintf("core: creating frame for %v which is not local to node %d", ref, n.ID))
	}
	obj.active++
}

func (rt *RT) frameRetired(n *NodeRT, self Ref) {
	if rt.Cfg.Migration == nil {
		return
	}
	obj := n.localObject(self)
	if obj == nil {
		panic(fmt.Sprintf("core: retiring frame for %v which is not local to node %d", self, n.ID))
	}
	obj.active--
	if obj.active < 0 {
		panic("core: object activation count underflow")
	}
	if obj.active == 0 && obj.wantMove >= 0 {
		rt.maybeMigrate(n, obj)
	}
}

// ForEachLocalObject visits every object currently living on n, in a
// deterministic order (birth objects by index, then imports by arrival).
func (n *NodeRT) ForEachLocalObject(f func(*Object)) {
	for _, o := range n.objects {
		if !o.away && !o.lost {
			f(o)
		}
	}
	for _, ref := range n.importRefs {
		if o := n.imports[ref]; o != nil && !o.away {
			f(o)
		}
	}
}

// Locate returns the node currently owning ref, following forwarding stubs
// host-side without charging (for setup/verification; simulated code routes
// through messages). It returns -1 if the object is mid-flight, which
// cannot happen at quiescence.
func (rt *RT) Locate(ref Ref) int {
	n := rt.Nodes[ref.Node]
	for hops := 0; hops <= len(rt.Nodes); hops++ {
		if o := n.localObject(ref); o != nil {
			return n.ID
		}
		var next int32 = -1
		if int(ref.Node) == n.ID {
			next = n.objects[ref.Index].fwdTo
		} else if o := n.imports[ref]; o != nil {
			next = o.fwdTo
		}
		if next < 0 {
			return -1
		}
		n = rt.Nodes[next]
	}
	return -1
}

// StateOf returns the application state of ref wherever it currently lives
// (host-side access for setup and verification).
func (rt *RT) StateOf(ref Ref) any {
	node := rt.Locate(ref)
	if node < 0 {
		panic(fmt.Sprintf("core: StateOf(%v): object is in flight", ref))
	}
	return rt.Nodes[node].localObject(ref).State
}

// startHeartbeat schedules the periodic policy tick on the DES clock. The
// tick reschedules itself only while other events remain, so a quiescent
// machine still quiesces.
func (rt *RT) startHeartbeat() {
	pol, period := rt.Cfg.Migration, rt.Cfg.MigrationPeriod
	if pol == nil || period <= 0 || rt.heartbeat {
		return
	}
	rt.heartbeat = true
	var tick func()
	tick = func() {
		pol.Tick(rt, rt.Eng.Now())
		// A service event: only real pending work keeps the heartbeat
		// alive, so it cannot sustain itself — or other services, like the
		// fault-window generators — on an otherwise idle machine.
		if rt.Eng.PendingWork() > 0 {
			rt.Eng.ScheduleService(rt.Eng.Now()+period, tick)
		}
	}
	rt.Eng.ScheduleService(rt.Eng.Now()+period, tick)
}
