// Package sim (fixture): every sanctioned idiom of window-phase engine code
// — the false-positive guard for the cellshare engine-shard rule. Reads of
// engine-global state, writes to the receiver's own state, the shard
// commit-log append, Ordered closures, and Engine methods (which run on the
// coordinating goroutine between windows) must all stay quiet.
package sim

type fakeEngine struct {
	pending int
	phase   int
	shards  []*shard
}

func (e *fakeEngine) note() {}

// replay is an Engine method: it runs at the barrier between windows, where
// engine-global writes are the whole point.
func (e *fakeEngine) replay() {
	e.pending = 0
	for _, sh := range e.shards {
		sh.now = 0
	}
}

type shard struct {
	eng *fakeEngine
	now int
	log []int
}

type Node struct {
	eng   *fakeEngine
	Clock int
}

func (n *Node) Ordered(fn func()) { fn() }

func (n *Node) deliver(v int) {
	n.Clock += v       // own node state
	p := n.eng.pending // reads of engine state are fine
	_ = p
	if n.eng.phase == 1 { // so are reads in conditions
		n.eng.note() // method calls are outside the pass's view
	}
	n.Ordered(func() {
		// Ordered closures run single-threaded at the barrier's ordered
		// commit: the sanctioned way to touch engine-global state.
		n.eng.pending++
	})
}

func (sh *shard) push(v int) {
	sh.log = append(sh.log, v) // the commit-log idiom itself
	sh.now = v
}
