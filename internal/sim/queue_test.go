package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// heapQueue is the container/heap binary heap the calendar queue replaced,
// kept here as the reference oracle: simple, O(log n), easy to trust. It
// has the calendar queue's method set, so the tests below drive both with
// identical operation streams.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev event) { heap.Push(&q.h, ev) }
func (q *heapQueue) pop() event    { return heap.Pop(&q.h).(event) }
func (q *heapQueue) peekAt() Time  { return q.h[0].at }
func (q *heapQueue) len() int      { return len(q.h) }

func (q *heapQueue) compact(dead func(*event) bool) int {
	keep := q.h[:0]
	for i := range q.h {
		if !dead(&q.h[i]) {
			keep = append(keep, q.h[i])
		}
	}
	removed := len(q.h) - len(keep)
	q.h = keep
	heap.Init(&q.h)
	return removed
}

// eventHeap is a min-heap on (at, src, seq).
type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return less(&h[i], &h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// TestCalendarMatchesHeapOracle drives the calendar queue and the heap
// oracle with identical random insert/pop/cancel/compact workloads and
// asserts they dequeue identical (at, seq) orders. Events are totally
// ordered, so any divergence is a queue bug, not a tie-break artifact.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		cal := newCalendarQueue()
		orc := &heapQueue{}

		var now Time // engine invariant: no push below the last popped time
		var seq uint64
		push := func(at Time, tm *Timer) {
			seq++
			ev := event{at: at, seq: seq, p: func() {}, dst: kindCall}
			if tm != nil {
				ev.p, ev.dst = tm, kindTimer
			}
			cal.push(ev)
			orc.push(ev)
		}
		var timers []*Timer

		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // near-future push, frequent same-instant ties
				push(now+Time(rng.Intn(50)), nil)
			case r < 6: // far-future push (retransmit-deadline shape)
				tm := &Timer{}
				timers = append(timers, tm)
				push(now+1+Time(rng.Intn(1_000_000)), tm)
			case r < 7: // cancel a random timer
				if len(timers) > 0 {
					timers[rng.Intn(len(timers))].stopped = true
				}
			case r < 8: // compact both queues
				dead := func(ev *event) bool { return ev.dst == kindTimer && ev.p.(*Timer).stopped }
				if got, want := cal.compact(dead), orc.compact(dead); got != want {
					t.Fatalf("trial %d op %d: compact removed %d from calendar, %d from oracle", trial, op, got, want)
				}
			default: // pop a burst
				for i := 0; i < 5 && orc.len() > 0; i++ {
					if cal.peekAt() != orc.peekAt() {
						t.Fatalf("trial %d op %d: peekAt calendar=%d oracle=%d", trial, op, cal.peekAt(), orc.peekAt())
					}
					a, b := cal.pop(), orc.pop()
					if a.at != b.at || a.seq != b.seq {
						t.Fatalf("trial %d op %d: pop calendar=(%d,%d) oracle=(%d,%d)",
							trial, op, a.at, a.seq, b.at, b.seq)
					}
					now = a.at
				}
			}
			if cal.len() != orc.len() {
				t.Fatalf("trial %d op %d: len calendar=%d oracle=%d", trial, op, cal.len(), orc.len())
			}
		}
		// Drain fully: the tail must come out in identical order too.
		for orc.len() > 0 {
			a, b := cal.pop(), orc.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d drain: pop calendar=(%d,%d) oracle=(%d,%d)", trial, a.at, a.seq, b.at, b.seq)
			}
		}
		if cal.len() != 0 {
			t.Fatalf("trial %d: calendar holds %d events after oracle drained", trial, cal.len())
		}
	}
}

// TestQueueTieBreakTwoProducers is the regression test for the same-instant
// tie-break: two producers (distinct scheduling contexts) push equal-time
// events, interleaved differently into the calendar queue and the heap
// oracle, and both must pop the identical (at, src, seq)-sorted order.
// Before the explicit total order, ties fell back to insertion order —
// identical across queues only as long as a single serial loop did all the
// pushing, and violated by
// parallel shards interleaving pushes nondeterministically.
func TestQueueTieBreakTwoProducers(t *testing.T) {
	// Two node contexts and one transmission context, colliding at two
	// instants. seq counts each context's own events.
	var evs []event
	for seq := uint64(1); seq <= 40; seq++ {
		for _, src := range []int32{3, 7, srcXmit(1)} {
			evs = append(evs, event{at: 1000, src: src, seq: seq})
			evs = append(evs, event{at: 2000, src: src, seq: seq})
		}
	}
	cal := newCalendarQueue()
	orc := &heapQueue{}
	// Producer-interleaved insertion into the calendar; the exact reverse
	// into the heap. If insertion order leaks into the pop order of either,
	// the sequences cannot match.
	for _, ev := range evs {
		cal.push(ev)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		orc.push(evs[i])
	}
	var prev event
	for n := 0; orc.len() > 0; n++ {
		a, b := cal.pop(), orc.pop()
		if a.at != b.at || a.src != b.src || a.seq != b.seq {
			t.Fatalf("pop %d: calendar=(%d,%d,%d) heap=(%d,%d,%d)",
				n, a.at, a.src, a.seq, b.at, b.src, b.seq)
		}
		if n > 0 && !less(&prev, &a) {
			t.Fatalf("pop %d: (%d,%d,%d) not after (%d,%d,%d)",
				n, a.at, a.src, a.seq, prev.at, prev.src, prev.seq)
		}
		prev = a
	}
	if cal.len() != 0 {
		t.Fatalf("calendar holds %d events after heap drained", cal.len())
	}
}

// TestCalendarSparseFarFuture exercises the direct-search fallback: a few
// events scattered across a span vastly wider than one calendar year.
func TestCalendarSparseFarFuture(t *testing.T) {
	q := newCalendarQueue()
	ats := []Time{5, 1 << 40, 1 << 30, 1 << 20, 7, 1 << 50}
	for i, at := range ats {
		q.push(event{at: at, seq: uint64(i)})
	}
	var prev Time = -1
	for q.len() > 0 {
		at := q.peekAt()
		if at < prev {
			t.Fatalf("out of order: %d after %d", at, prev)
		}
		ev := q.pop()
		if ev.at != at {
			t.Fatalf("pop %d != peek %d", ev.at, at)
		}
		prev = at
	}
}

// TestCancelledTimerCompaction is the regression test for cancelled timers
// occupying queue slots until their deadline: once stopped timers exceed
// half the queue, Stop must compact them out in place.
func TestCancelledTimerCompaction(t *testing.T) {
	e := NewEngine(1)

	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = e.AfterFunc(Time(1_000_000+i), func() {})
	}
	// A handful of live events that must survive compaction.
	live := 0
	for i := 0; i < 8; i++ {
		e.Schedule(Time(10+i), func() { live++ })
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if got := e.Pending(); got > n/2 {
		t.Fatalf("queue holds %d events after cancelling %d timers; compaction did not run", got, n)
	}
	if got := e.PendingWork(); got != 8 {
		t.Fatalf("PendingWork = %d, want 8", got)
	}
	e.Run()
	if live != 8 {
		t.Fatalf("ran %d live events, want 8", live)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after Run", e.Pending())
	}
}

// TestStoppedTimerNeverFires pins the semantics compaction must preserve:
// a stopped timer's callback never runs, whether its dead event is
// compacted away or pops at its deadline.
func TestStoppedTimerNeverFires(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.AfterFunc(100, func() { fired = true })
	tm.Stop()
	tm.Stop() // double-stop is a no-op
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.PendingWork() != 0 {
		t.Fatalf("PendingWork = %d after quiescence", e.PendingWork())
	}
}

// benchQueue measures steady-state hold throughput (pop one, push one) at a
// queue population of `size`: the access pattern of a big run, where the
// queue holds one in-flight event per busy node. Hold increments are drawn
// uniformly over ~4x the population so live events spread across the
// calendar the way a machine-wide run spreads them across virtual time
// (each node's next event lands somewhere in the whole in-flight horizon),
// rather than piling a million events onto a few thousand instants.
func benchQueue(b *testing.B, q interface {
	push(event)
	pop() event
}, size int) {
	// Deterministic LCG; rand.Rand in the loop would dominate the measurement.
	s := uint64(12345)
	next := func(bound Time) Time {
		s = s*6364136223846793005 + 1442695040888963407
		return Time(s>>33) % bound
	}
	span := Time(4 * size)
	var seq uint64
	for i := 0; i < size; i++ {
		seq++
		q.push(event{at: next(span), seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		seq++
		q.push(event{at: ev.at + 1 + next(span), seq: seq})
	}
}

// BenchmarkMillionEvents is the headline queue benchmark: hold operations at
// the scale run's population (4096 nodes, one in-flight event each). Run
// with -benchtime=1000000x to dispatch exactly one million events.
func BenchmarkMillionEvents(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchQueue(b, newCalendarQueue(), 4096) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 4096) })
}

// BenchmarkQueueHoldMillionPop stresses a million-event *population* — every
// operation is a DRAM miss for any structure, so the gap narrows; the
// calendar must still win.
func BenchmarkQueueHoldMillionPop(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchQueue(b, newCalendarQueue(), 1_000_000) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 1_000_000) })
}
