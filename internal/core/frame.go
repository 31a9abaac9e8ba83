package core

import "fmt"

// Mode distinguishes where an activation conceptually lives. Frames are
// always pool-backed Go structs (so pointers into them stay valid across
// promotion — the analogue of the paper's pointer-stable heap contexts),
// but the mode determines both the execution semantics (synchronous
// completion versus suspension) and the costs charged.
type Mode uint8

const (
	// StackMode: the activation is executing as a speculative sequential
	// call on the (simulated) stack.
	StackMode Mode = iota
	// HeapMode: the activation is a heap context scheduled by the runtime.
	HeapMode
)

// JoinDiscard is the future-slot value meaning "count the reply toward the
// frame's join counter but discard the value" — the calling convention for
// wide joins (parallel loops, barriers) where per-value futures would not
// fit a touch mask.
const JoinDiscard = -1

// Frame is one activation: the unified stack-frame / heap-context record.
// As in the paper's heap context, arguments, locals and futures sit at fixed
// offsets in one record: the word slab holds M.NArgs argument words, then
// M.NLocals locals, then M.NFutures future values, and bit i of full marks
// future i determined. The frame is 128 bytes, two cache lines and the
// allocator's 128-byte size class (TestFrameLayout), and the slab is its only
// other allocation; a recycled frame keeps its slab.
type Frame struct {
	M    *Method
	Node *NodeRT
	Self Ref

	// PC is the resume point within the body.
	PC int

	// words is the slab of argument, local and future words; full is the
	// fill mask of its futures.
	words []Word
	full  uint64

	// RetCont is the continuation for this activation's result — the fixed
	// "return continuation" location of the paper's heap contexts.
	RetCont Cont

	// touch is the slot mask a frame suspended in TouchAll waits on; 0
	// while it waits in TouchJoin. The frame wakes when a fill of a touched
	// slot leaves touch&^full empty, so the count of fills still needed is
	// the popcount of touch&^full and is not stored. joinOut counts
	// outstanding JoinDiscard replies.
	touch   uint64
	joinOut int32
	// gen is the node's frame generation at checkout. A fail-stop crash
	// bumps the generation, so every frame checked out before it is dead
	// (see framePool.dead).
	gen uint32

	// Mode is the current execution mode (see Mode).
	Mode Mode
	// CInfo is the caller_info of the CP schema (Section 3.2.3).
	CInfo CallerInfo
	// waiting marks a frame suspended in TouchAll or TouchJoin.
	waiting bool
	// promoted marks that the frame has (lazily) become a heap context.
	promoted bool
	// captured marks that the activation's continuation was explicitly
	// captured; Reply must then not also run through RetCont.
	captured bool
	// replyDeferred marks that Reply parked the result on the target
	// object's deferred list (a durable mutation awaiting its checkpoint
	// ack) instead of delivering it; stack callers must then wait as if the
	// callee had forwarded (see runSeq).
	replyDeferred bool

	// lockObj is the object whose lock this activation holds, if any.
	lockObj *Object

	// next links frames in run queues, lock waiter lists and the pool.
	next *Frame
}

// Arg returns argument word i.
func (fr *Frame) Arg(i int) Word { return fr.words[:fr.M.NArgs][i] }

// Local returns local word i.
func (fr *Frame) Local(i int) Word { return fr.locals()[i] }

// SetLocal stores local word i.
func (fr *Frame) SetLocal(i int, w Word) { fr.locals()[i] = w }

// locals and futs are the slab's local and future regions; indexing them
// bounds-checks an access against its own region.
func (fr *Frame) locals() []Word {
	a := fr.M.NArgs
	return fr.words[a : a+fr.M.NLocals]
}

func (fr *Frame) futs() []Word { return fr.words[fr.M.NArgs+fr.M.NLocals:] }

// Fut returns the value of future slot i; it panics if the slot is empty —
// bodies must touch before reading.
func (fr *Frame) Fut(i int) Word {
	v := fr.futs()[i]
	if fr.full&(1<<uint(i)) == 0 {
		panic(fmt.Sprintf("core: %s read empty future slot %d", fr.M.Name, i))
	}
	return v
}

// FutFull reports whether future slot i has been determined.
func (fr *Frame) FutFull(i int) bool {
	_ = fr.futs()[i]
	return fr.full&(1<<uint(i)) != 0
}

// landed reports whether the reply an invocation directed to slot has been
// delivered: the future is full or, for JoinDiscard, no join reply is
// outstanding.
func (fr *Frame) landed(slot int) bool {
	if slot == JoinDiscard {
		return fr.joinOut == 0
	}
	return fr.FutFull(slot)
}

// fill determines future slot i with val and reports whether that wakes the
// frame: it waits on a touch set holding i, and i was the set's last empty
// slot. Determining a slot twice panics.
func (fr *Frame) fill(i int, val Word) bool {
	fut := &fr.futs()[i]
	bit := uint64(1) << uint(i)
	if fr.full&bit != 0 {
		panic(fmt.Sprintf("core: future %s[%d] determined twice", fr.M.Name, i))
	}
	*fut = val
	fr.full |= bit
	return fr.waiting && fr.touch&bit != 0 && fr.touch&^fr.full == 0
}

// pending is the CallStatus of an invocation whose reply has not landed:
// a caller on the stack must unwind, a heap context goes on running.
func (fr *Frame) pending() CallStatus {
	if fr.Mode == StackMode {
		return NeedUnwind
	}
	return Async
}

// ClearFut empties future slot i so it can be reused (e.g. across loop
// iterations). Clearing while the frame is waiting on the slot panics.
func (fr *Frame) ClearFut(i int) {
	fut := &fr.futs()[i]
	bit := uint64(1) << uint(i)
	if fr.waiting && fr.touch&bit != 0 {
		panic("core: ClearFut on a slot being waited on")
	}
	*fut = 0
	fr.full &^= bit
}

// Promoted reports whether the frame has become a heap context.
func (fr *Frame) Promoted() bool { return fr.promoted }

// Mask builds a touch mask from future slot indices.
func Mask(slots ...int) uint64 {
	var m uint64
	for _, s := range slots {
		if s < 0 || s >= 64 {
			panic("core: touch mask slot out of range")
		}
		m |= 1 << uint(s)
	}
	return m
}

// MaskRange builds a touch mask covering slots [lo, hi).
func MaskRange(lo, hi int) uint64 {
	if lo < 0 || hi > 64 || lo > hi {
		panic("core: MaskRange out of range")
	}
	var m uint64
	for s := lo; s < hi; s++ {
		m |= 1 << uint(s)
	}
	return m
}

// framePool recycles frames per node. Checkout cost is charged according to
// mode: stack frames are (nearly) free, matching stack allocation; heap
// promotion charges context-allocation costs. A released frame keeps its
// word slab, and a checkout reuses it whenever it holds the method's
// NArgs+NLocals+NFutures words, so once a node's pool is warm a checkout
// allocates nothing.
type framePool struct {
	free *Frame
	// Live counts checked-out frames; at quiescence it must be zero
	// (context-leak invariant, checked by tests).
	Live int64
	// Allocs counts true allocations (pool misses).
	Allocs int64
	// gen is the node's frame generation: checkout stamps it on each frame,
	// and a crash bumps it (see kill).
	gen uint32
}

func (p *framePool) checkout(m *Method, node *NodeRT, self Ref, args []Word) *Frame {
	fr := p.free
	if fr == nil {
		fr = &Frame{}
		p.Allocs++
	} else {
		p.free = fr.next
	}
	p.Live++
	fr.M = m
	fr.Node = node
	fr.Self = self
	fr.PC = 0
	fr.Mode = StackMode
	fr.RetCont = Cont{}
	fr.CInfo = CallerInfo{}
	fr.touch = 0
	fr.joinOut = 0
	fr.waiting = false
	fr.promoted = false
	fr.captured = false
	fr.replyDeferred = false
	fr.gen = p.gen
	fr.lockObj = nil
	fr.next = nil

	// Every word past the supplied args starts zero: a recycled frame must
	// not leak a prior activation's words, even when a caller passes fewer
	// args than the method declares.
	fr.words = resizeWords(fr.words, m.NArgs+m.NLocals+m.NFutures)
	clear(fr.words[copy(fr.words[:m.NArgs], args):])
	fr.full = 0
	return fr
}

func (p *framePool) release(fr *Frame) {
	if fr.lockObj != nil {
		panic("core: releasing frame that still holds a lock")
	}
	fr.M = nil
	fr.next = p.free
	p.free = fr
	p.Live--
}

// kill ends every checked-out frame at a fail-stop crash: it starts a new
// generation, which makes them all dead at once, and returns how many there
// were. Killed frames never return to the free list, so a continuation from
// the lost incarnation can only find a dead frame, never a recycled
// activation.
func (p *framePool) kill() int64 {
	lost := p.Live
	p.Live = 0
	p.gen++
	return lost
}

// dead reports whether fr, checked out from this pool, was killed by a
// crash.
func (p *framePool) dead(fr *Frame) bool { return fr.gen != p.gen }

func resizeWords(s []Word, n int) []Word {
	if cap(s) < n {
		return make([]Word, n)
	}
	return s[:n]
}

// frameQueue is an intrusive FIFO of frames (run queues, lock waiters).
type frameQueue struct {
	head, tail *Frame
	n          int
}

func (q *frameQueue) push(fr *Frame) {
	fr.next = nil
	if q.tail == nil {
		q.head = fr
	} else {
		q.tail.next = fr
	}
	q.tail = fr
	q.n++
}

func (q *frameQueue) pop() *Frame {
	fr := q.head
	if fr == nil {
		return nil
	}
	q.head = fr.next
	if q.head == nil {
		q.tail = nil
	}
	fr.next = nil
	q.n--
	return fr
}

func (q *frameQueue) empty() bool { return q.head == nil }
func (q *frameQueue) len() int    { return q.n }
