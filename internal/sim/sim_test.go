package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/instr"
)

// fifoRunner executes queued closures, charging a fixed cost each.
type fifoRunner struct {
	queues [][]func(*Node)
	cost   instr.Instr
}

func (r *fifoRunner) RunOne(n *Node) bool {
	q := r.queues[n.ID]
	if len(q) == 0 {
		return false
	}
	fn := q[0]
	r.queues[n.ID] = q[1:]
	Charge(n, instr.OpWork, r.cost)
	fn(n)
	return true
}

// Deliver runs the payload, which the tests send as a func().
func (r *fifoRunner) Deliver(n *Node, from int, payload any) { payload.(func())() }

func (r *fifoRunner) push(node int, fn func(*Node)) {
	r.queues[node] = append(r.queues[node], fn)
}

func newFifo(eng *Engine, cost instr.Instr) *fifoRunner {
	r := &fifoRunner{queues: make([][]func(*Node), eng.NumNodes()), cost: cost}
	eng.SetRunner(r)
	return r
}

func TestEventOrdering(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	var order []int
	eng.Schedule(30, func() { order = append(order, 3) })
	eng.Schedule(10, func() { order = append(order, 1) })
	eng.Schedule(20, func() { order = append(order, 2) })
	eng.Schedule(10, func() { order = append(order, 11) }) // tie: insertion order
	eng.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	eng.Schedule(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.Schedule(10, func() {})
	})
	eng.Run()
}

func TestNodeClockAdvancesAndIdles(t *testing.T) {
	eng := NewEngine(1)
	r := newFifo(eng, 100)
	n := eng.Node(0)
	r.push(0, func(*Node) {})
	eng.Wake(n)
	eng.Run()
	if n.Clock != 100 {
		t.Fatalf("clock = %d, want 100", n.Clock)
	}
	// An event later than the clock forces idle accounting.
	eng.Schedule(500, func() {
		r.push(0, func(*Node) {})
		eng.Wake(n)
	})
	eng.Run()
	if n.Clock != 600 {
		t.Fatalf("clock = %d, want 600", n.Clock)
	}
	if got := n.Counters.Get(instr.OpIdle); got != 400 {
		t.Fatalf("idle = %d, want 400", got)
	}
}

func TestSendLatencyAndStats(t *testing.T) {
	eng := NewEngine(2)
	r := newFifo(eng, 10)
	src, dst := eng.Node(0), eng.Node(1)
	delivered := Time(-1)
	r.push(0, func(n *Node) {
		eng.SendAt(n, dst, n.Clock, 250, 7, func() {
			delivered = eng.Now()
			r.push(1, func(*Node) {})
		})
	})
	eng.Wake(src)
	eng.Run()
	if delivered != 260 { // 10 (send charge) + 250 latency
		t.Fatalf("delivered at %d, want 260", delivered)
	}
	if src.MsgsSent != 1 || dst.MsgsRecv != 1 || src.WordsSent != 7 {
		t.Fatalf("stats: sent=%d recv=%d words=%d", src.MsgsSent, dst.MsgsRecv, src.WordsSent)
	}
	if dst.Clock != 270 {
		t.Fatalf("receiver clock = %d, want 270", dst.Clock)
	}
}

func TestBusyNodeDelaysMessageProcessing(t *testing.T) {
	eng := NewEngine(2)
	r := newFifo(eng, 1000)
	// Node 1 is busy until t=1000; a message arriving at t=100 must be
	// processed when the node frees up, not before.
	var processedAt Time
	r.push(1, func(*Node) {})
	eng.Wake(eng.Node(1))
	eng.Schedule(50, func() {
		src := eng.Node(0)
		eng.SendAt(src, eng.Node(1), src.Clock, 50, 1, func() {
			r.push(1, func(n *Node) { processedAt = n.Clock })
		})
	})
	eng.Run()
	if processedAt != 2000 { // starts at 1000, costs 1000
		t.Fatalf("processed at %d, want 2000", processedAt)
	}
}

func TestRunUntilAndStep(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	fired := 0
	eng.Schedule(10, func() { fired++ })
	eng.Schedule(20, func() { fired++ })
	eng.Schedule(30, func() { fired++ })
	if !eng.RunUntil(20) {
		t.Fatal("RunUntil should report remaining events")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if !eng.Step() {
		t.Fatal("Step should dispatch the last event")
	}
	if eng.Step() {
		t.Fatal("Step should report no events")
	}
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

// Property: for any batch of scheduled events, dispatch order is sorted by
// time with ties broken by insertion, and Now never decreases.
func TestQuickDispatchOrderSorted(t *testing.T) {
	f := func(times []uint16) bool {
		eng := NewEngine(1)
		newFifo(eng, 1)
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, tv := range times {
			at := Time(tv)
			i := i
			eng.Schedule(at, func() { got = append(got, stamp{at, i}) })
		}
		last := stamp{-1, -1}
		eng.Run()
		for _, s := range got {
			if s.at < last.at || (s.at == last.at && s.seq < last.seq) {
				return false
			}
			last = s
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-node clocks are monotone under random workloads, and the
// engine is deterministic (same seed twice gives identical clocks).
func TestQuickDeterministicClocks(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(4)
		r := newFifo(eng, 5)
		var minClock [4]Time
		for i := 0; i < 50; i++ {
			at := Time(rng.Intn(1000))
			from := rng.Intn(4)
			to := rng.Intn(4)
			eng.Schedule(at, func() {
				src := eng.Node(from)
				eng.SendAt(src, eng.Node(to), src.Clock, Time(rng.Intn(100)), 1, func() {
					r.push(to, func(n *Node) {
						if n.Clock < minClock[n.ID] {
							panic("clock went backwards")
						}
						minClock[n.ID] = n.Clock
					})
				})
			})
		}
		eng.Run()
		clocks := make([]Time, 4)
		for i, n := range eng.Nodes() {
			clocks[i] = n.Clock
		}
		return clocks
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalCountersAggregates(t *testing.T) {
	eng := NewEngine(3)
	r := newFifo(eng, 7)
	for i := 0; i < 3; i++ {
		r.push(i, func(*Node) {})
		eng.Wake(eng.Node(i))
	}
	eng.Run()
	tc := eng.TotalCounters()
	if got := tc.Get(instr.OpWork); got != 21 {
		t.Fatalf("total work = %d, want 21", got)
	}
	if eng.MaxClock() != 7 {
		t.Fatalf("max clock = %d, want 7", eng.MaxClock())
	}
}

// countRunner runs pending[n.ID] empty tasks on node n at a fixed cost each;
// unlike fifoRunner it allocates nothing per task.
type countRunner struct {
	pending []int
	cost    instr.Instr
}

func (r *countRunner) RunOne(n *Node) bool {
	if r.pending[n.ID] == 0 {
		return false
	}
	r.pending[n.ID]--
	Charge(n, instr.OpWork, r.cost)
	return true
}

// Deliver runs the payload, which the tests send as a func().
func (r *countRunner) Deliver(n *Node, from int, payload any) { payload.(func())() }

// TestWakePumpAllocatesNothing: once the queue's storage is warm, a
// Wake→pump cycle — the wake, the pump dispatch, the task, the reschedule
// and the final idle pump — allocates nothing: every node reuses the one
// pump callback built with the engine. So does a send→deliver cycle whose
// payload is a pointer (here a func value built once): the delivery is a
// typed event holding the payload, not a closure.
func TestWakePumpAllocatesNothing(t *testing.T) {
	eng := NewEngine(2)
	r := &countRunner{pending: make([]int, 2), cost: 10}
	eng.SetRunner(r)
	n, dst := eng.Node(0), eng.Node(1)
	cycle := func() {
		r.pending[0] = 2
		eng.Wake(n)
		eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Wake→pump cycle allocates %.1f times, want 0", allocs)
	}
	// One warm-up cycle, AllocsPerRun's own warm-up, then 100 measured.
	if got := n.Counters.Get(instr.OpWork); got != 102*2*10 {
		t.Fatalf("work charged = %d, want %d", got, 102*2*10)
	}

	recv := func() { r.pending[1]++ }
	send := func() {
		eng.SendAt(n, dst, n.Clock, 50, 1, recv)
		eng.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("send→deliver cycle allocates %.1f times, want 0", allocs)
	}
	if dst.MsgsRecv != 102 || n.MsgsSent != 102 {
		t.Fatalf("sent %d, received %d, want 102 each", n.MsgsSent, dst.MsgsRecv)
	}
	if got := dst.Counters.Get(instr.OpWork); got != 102*10 {
		t.Fatalf("receiver work charged = %d, want %d", got, 102*10)
	}
}

// TestEventLayout pins the event at 40 bytes. The event queue stores
// events by value in its bucket arrays, and their size shows in the
// benchmark's sor-scale peak RSS (4096 nodes, a million objects): against
// a 40-byte event with closure deliveries, a prototype of the typed
// delivery event raised it by 12.6% with a 64-byte event, 7.4% at 48
// bytes and 5.2% at 40.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 40 {
		t.Fatalf("event is %d bytes, want at most 40", size)
	}
}

// TestCrashWindowLosesDelivery: a delivery landing inside its destination's
// crash window is lost at dispatch. It counts once in CrashDrops, adds
// nothing to MsgsRecv, never reaches Deliver and schedules no pump. One
// landing at the rejoin instant is delivered.
func TestCrashWindowLosesDelivery(t *testing.T) {
	eng := NewEngine(2)
	r := &countRunner{pending: make([]int, 2), cost: 10}
	eng.SetRunner(r)
	src, dst := eng.Node(0), eng.Node(1)
	dst.downUntil = 100
	eng.SendAt(src, dst, 0, 60, 1, func() { t.Error("a delivery inside the crash window reached Deliver") })
	if !eng.Step() || eng.Now() != 60 {
		t.Fatalf("delivery did not dispatch at 60 (now %d)", eng.Now())
	}
	if got := eng.FaultStats().CrashDrops; got != 1 {
		t.Fatalf("CrashDrops = %d, want 1", got)
	}
	if dst.MsgsRecv != 0 {
		t.Fatalf("MsgsRecv = %d for a lost delivery, want 0", dst.MsgsRecv)
	}
	if eng.Pending() != 0 || dst.pumpPending {
		t.Fatalf("a lost delivery scheduled a pump (%d events pending)", eng.Pending())
	}

	delivered := 0
	eng.SendAt(src, dst, 60, 40, 1, func() { delivered++; r.pending[1]++ })
	eng.Run()
	if delivered != 1 || dst.MsgsRecv != 1 {
		t.Fatalf("delivery at the rejoin instant: delivered %d, MsgsRecv %d, want 1 and 1", delivered, dst.MsgsRecv)
	}
	if got := eng.FaultStats().CrashDrops; got != 1 {
		t.Fatalf("CrashDrops = %d after the rejoin-instant delivery, want 1", got)
	}
	if got := dst.Counters.Get(instr.OpWork); got != 10 {
		t.Fatalf("receiver work charged = %d, want 10: the delivery's pump did not run", got)
	}
}
