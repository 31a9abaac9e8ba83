package sim

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// heapQueue is a container/heap binary heap, kept here as the reference
// oracle: simple, O(log n), easy to trust. It has the radix queue's method
// set, so the tests below drive both with identical operation streams.
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

// checkLayout fails the test unless q keeps the radix queue's invariant:
// cur holds only events at now, every event in far[i] first differs from
// now in bit i, lo[i] is the earliest time in far[i], mask marks exactly the
// buckets that are not empty, and len counts every stored event.
func checkLayout(t *testing.T, q *radixQueue, where string) {
	t.Helper()
	n := len(q.cur)
	for j := range q.cur {
		if at := q.cur[j].at; at != q.now {
			t.Fatalf("%s: cur holds an event at %d, now is %d", where, at, q.now)
		}
	}
	for i, b := range q.far {
		n += len(b)
		if set := q.mask&(1<<i) != 0; set != (len(b) > 0) {
			t.Fatalf("%s: mask bit %d is %v with %d events in far[%d]", where, i, set, len(b), i)
		}
		if len(b) == 0 {
			continue
		}
		lo := b[0].at
		for j := range b {
			at := b[j].at
			if d := bits.Len64(uint64(at^q.now)) - 1; d != i {
				t.Fatalf("%s: far[%d] holds an event at %d, which first differs from now %d in bit %d",
					where, i, at, q.now, d)
			}
			lo = min(lo, at)
		}
		if q.lo[i] != lo {
			t.Fatalf("%s: lo[%d] = %d, earliest in far[%d] is %d", where, i, q.lo[i], i, lo)
		}
	}
	if q.len() != n {
		t.Fatalf("%s: len = %d, %d events stored", where, q.len(), n)
	}
}

// TestQueueMatchesHeapOracle drives the radix queue and the heap oracle
// with identical random insert/pop/cancel/compact workloads and asserts
// they dequeue identical (at, seq) orders and that the radix layout holds
// after every operation. Events are totally ordered, so any divergence is a
// queue bug, not a tie-break artifact.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		rq := &radixQueue{}
		orc := &heapQueue{}

		var now Time // engine invariant: no push below the last popped time
		var seq uint64
		push := func(at Time, tm *Timer) {
			seq++
			ev := event{at: at, seq: seq, p: func() {}, dst: kindCall}
			if tm != nil {
				ev.p, ev.dst = tm, kindTimer
				tm.seq = seq
			}
			rq.push(ev)
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
					timers[rng.Intn(len(timers))].seq = 0
				}
			case r < 8: // compact both queues
				if got, want := rq.compact(staleTimer), orc.compact(staleTimer); got != want {
					t.Fatalf("trial %d op %d: compact removed %d from the radix queue, %d from the oracle", trial, op, got, want)
				}
			default: // pop a burst
				for i := 0; i < 5 && orc.len() > 0; i++ {
					if rq.peekAt() != orc.peekAt() {
						t.Fatalf("trial %d op %d: peekAt radix=%d oracle=%d", trial, op, rq.peekAt(), orc.peekAt())
					}
					a, b := rq.pop(), orc.pop()
					if a.at != b.at || a.seq != b.seq {
						t.Fatalf("trial %d op %d: pop radix=(%d,%d) oracle=(%d,%d)",
							trial, op, a.at, a.seq, b.at, b.seq)
					}
					now = a.at
					checkLayout(t, rq, "pop")
				}
			}
			checkLayout(t, rq, "op")
			if rq.len() != orc.len() {
				t.Fatalf("trial %d op %d: len radix=%d oracle=%d", trial, op, rq.len(), orc.len())
			}
		}
		// Drain fully: the tail must come out in identical order too.
		for orc.len() > 0 {
			a, b := rq.pop(), orc.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d drain: pop radix=(%d,%d) oracle=(%d,%d)", trial, a.at, a.seq, b.at, b.seq)
			}
			checkLayout(t, rq, "drain")
		}
		if rq.len() != 0 {
			t.Fatalf("trial %d: radix queue holds %d events after the oracle drained", trial, rq.len())
		}
	}
}

// TestQueueOracleShapeShifts drives the radix queue and the heap oracle
// through streams that change shape mid-run: a dense front over a sparse
// far tail, same-instant spikes, long empty stretches that move now across
// many high bits at once, and population swings. Peeks are interleaved with
// pushes that land between now and the minimum, and with compactions that
// may remove the minimum itself. Every peek and pop must match the oracle,
// and the radix layout must hold after every operation.
func TestQueueOracleShapeShifts(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		rq := &radixQueue{}
		orc := &heapQueue{}
		var now Time
		var seq uint64
		push := func(at Time) {
			seq++
			ev := event{at: at, seq: seq, p: func() {}, dst: kindCall}
			if rng.Intn(4) == 0 {
				ev.p, ev.dst = &Timer{seq: seq}, kindTimer
			}
			rq.push(ev)
			orc.push(ev)
			checkLayout(t, rq, "push")
		}
		pop := func(where string) {
			if got, want := rq.peekAt(), orc.peekAt(); got != want {
				t.Fatalf("trial %d %s: peekAt radix=%d oracle=%d", trial, where, got, want)
			}
			a, b := rq.pop(), orc.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d %s: pop radix=(%d,%d) oracle=(%d,%d)", trial, where, a.at, a.seq, b.at, b.seq)
			}
			now = a.at
			checkLayout(t, rq, where)
		}
		for phase := 0; phase < 40; phase++ {
			switch phase % 5 {
			case 0: // dense front, sparse far tail, population swinging
				target := 16 << rng.Intn(9)
				for op := 0; op < 3000; op++ {
					if orc.len() < target || rng.Intn(2) == 0 {
						if rng.Intn(100) == 0 {
							push(now + 100_000 + Time(rng.Intn(10_000_000)))
						} else {
							push(now + Time(rng.Intn(40)))
						}
					} else if orc.len() > 0 {
						pop("dense")
					}
				}
			case 1: // a same-instant spike, drained part way
				at := now + Time(rng.Intn(1000))
				for i := rng.Intn(2000); i >= 0; i-- {
					push(at)
				}
				for i := rng.Intn(3000); i > 0 && orc.len() > 0; i-- {
					pop("spike")
				}
			case 2: // drain to a few events, then a long empty stretch
				for orc.len() > 3 {
					pop("drain")
				}
				gap := Time(1) << (20 + rng.Intn(30))
				for i := 0; i < 50; i++ {
					push(now + gap + Time(rng.Intn(1000)))
				}
			case 3: // peeks, then pushes between now and the minimum
				for op := 0; op < 500 && orc.len() > 0; op++ {
					min := rq.peekAt()
					if min > now {
						push(now + Time(rng.Int63n(int64(min-now))))
					} else {
						push(now)
					}
					if rng.Intn(3) == 0 {
						pop("below-min")
					}
				}
			case 4: // compaction right after a peek, often of the minimum
				for op := 0; op < 100; op++ {
					for op%4 == 0 && orc.len() > 0 {
						pop("drain before compact") // the timer below is then alone
					}
					seq++
					tm := &Timer{seq: seq}
					ev := event{at: now, seq: seq, p: tm, dst: kindTimer}
					rq.push(ev)
					orc.push(ev)
					rq.peekAt()
					if rng.Intn(2) == 0 {
						tm.seq = 0
					}
					for i := range orc.h {
						if ev := orc.h[i]; ev.dst == kindTimer && rng.Intn(20) == 0 {
							ev.p.(*Timer).seq = 0
						}
					}
					if got, want := rq.compact(staleTimer), orc.compact(staleTimer); got != want {
						t.Fatalf("trial %d phase %d: compact removed %d from the radix queue, %d from the oracle", trial, phase, got, want)
					}
					checkLayout(t, rq, "compact")
					if orc.len() > 0 {
						pop("compact")
					}
					push(now + Time(rng.Intn(1000)))
				}
			}
			if rq.len() != orc.len() {
				t.Fatalf("trial %d phase %d: len radix=%d oracle=%d", trial, phase, rq.len(), orc.len())
			}
		}
		for orc.len() > 0 {
			pop("final drain")
		}
		if rq.len() != 0 {
			t.Fatalf("trial %d: radix queue holds %d events after the oracle drained", trial, rq.len())
		}
	}
}

// TestQueueTieBreakTwoProducers is the regression test for the same-instant
// tie-break: two producers (distinct scheduling contexts) push equal-time
// events, interleaved differently into the radix queue and the heap oracle,
// and both must pop the identical (at, src, seq)-sorted order. Before the
// explicit total order, ties fell back to insertion order — identical
// across queues only as long as a single serial loop did all the pushing,
// and violated by parallel shards interleaving pushes nondeterministically.
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
	rq := &radixQueue{}
	orc := &heapQueue{}
	// Producer-interleaved insertion into the radix queue; the exact
	// reverse into the heap. If insertion order leaks into the pop order of
	// either, the sequences cannot match.
	for _, ev := range evs {
		rq.push(ev)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		orc.push(evs[i])
	}
	var prev event
	for n := 0; orc.len() > 0; n++ {
		a, b := rq.pop(), orc.pop()
		if a.at != b.at || a.src != b.src || a.seq != b.seq {
			t.Fatalf("pop %d: radix=(%d,%d,%d) heap=(%d,%d,%d)",
				n, a.at, a.src, a.seq, b.at, b.src, b.seq)
		}
		if n > 0 && !less(&prev, &a) {
			t.Fatalf("pop %d: (%d,%d,%d) not after (%d,%d,%d)",
				n, a.at, a.src, a.seq, prev.at, prev.src, prev.seq)
		}
		prev = a
	}
	if rq.len() != 0 {
		t.Fatalf("radix queue holds %d events after the heap drained", rq.len())
	}
}

// TestQueueSparseFarFuture: a few events scattered across forty bits of
// time, each alone in its bucket, pop in order and match their peeks.
func TestQueueSparseFarFuture(t *testing.T) {
	q := &radixQueue{}
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

// TestQueuePushBelowFloorPanics: an event earlier than the last pop would
// be filed in the wrong bucket and pop out of order, so push refuses it
// and names both times. A push at the floor itself is legal.
func TestQueuePushBelowFloorPanics(t *testing.T) {
	q := &radixQueue{}
	q.push(event{at: 100, seq: 1})
	q.push(event{at: 200, seq: 2})
	q.pop()
	q.push(event{at: 100, seq: 3})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "at 99 ") || !strings.Contains(msg, "floor 100") {
			t.Fatalf("push below the floor: recovered %v, want a panic naming 99 and the floor 100", r)
		}
	}()
	q.push(event{at: 99, seq: 4})
}

// TestCancelledTimerCompaction is the regression test for cancelled timers
// occupying queue slots until their deadline: once stopped timers exceed
// half the queue, Stop must compact them out in place.
func TestCancelledTimerCompaction(t *testing.T) {
	e := NewEngine(1)

	const n = 1000
	timers := make([]Timer, n)
	for i := range timers {
		timers[i].Init(e.Node(0), func() {})
		timers[i].Reset(Time(1_000_000 + i))
	}
	// A handful of live events that must survive compaction.
	live := 0
	for i := 0; i < 8; i++ {
		e.Schedule(Time(10+i), func() { live++ })
	}
	for i := range timers {
		timers[i].Stop()
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
	tm := newTimer(e.Node(0), func() { fired = true })
	tm.Reset(100)
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

// lcg is a deterministic generator for the queue streams below: rand.Rand in
// a benchmark loop would dominate the measurement.
type lcg uint64

// next returns a draw from [0, bound).
func (s *lcg) next(bound Time) Time {
	*s = *s*6364136223846793005 + 1442695040888963407
	return Time(*s>>33) % bound
}

// skewedInc draws a hold increment shaped like the sor-heap workload's
// queue: most events land within 800 cycles of now, and 3 in 1000 are
// timers and deadlines 1,000 to 131,000 cycles out. The far tail is what
// stretched span-sized buckets over the whole front.
func skewedInc(s *lcg) Time {
	if s.next(1000) < 3 {
		return 1000 + s.next(130_000)
	}
	return s.next(800)
}

// bucketSlots is the queue's stored event capacity: the current instant's
// heap and every bucket array.
func bucketSlots(q *radixQueue) int {
	n := cap(q.cur)
	for _, b := range q.far {
		n += cap(b)
	}
	return n
}

// swingQueue grows q to 4096 events and shrinks it back to 256. It pops the
// minimum and, while growing, pushes two events at the next free instants
// past the last one queued, so every instant holds one event and every
// swing is the same traffic at a later time. It returns the largest
// population reached.
func swingQueue(q *radixQueue, last *Time, seq *uint64) int {
	for grow := true; ; {
		q.pop()
		if grow {
			for i := 0; i < 2; i++ {
				*last++
				*seq++
				q.push(event{at: *last, seq: *seq})
			}
		}
		if grow && q.len() >= 4096 {
			grow = false
		} else if !grow && q.len() <= 256 {
			return 4096
		}
	}
}

// TestQueueStorageBounded: the queue's stored capacity (the bucket arrays
// and the current instant's heap, none of which ever shrinks) stays within
// 16 event slots per event of peak population through a hold at 320 on the
// sor-heap-shaped stream, population swings and same-instant spikes. It
// peaks near 15 here: a bucket keeps the capacity of the most events that
// ever shared its bit, and an event passes through several buckets on its
// way to the front.
func TestQueueStorageBounded(t *testing.T) {
	q := &radixQueue{}
	s := lcg(3)
	var seq uint64
	peak := 0
	check := func(phase string) {
		peak = max(peak, q.len())
		if slots := bucketSlots(q); slots > 16*peak {
			t.Fatalf("%s: %d event slots stored for a peak of %d events, want at most %d",
				phase, slots, peak, 16*peak)
		}
	}
	for ; seq < 320; seq++ {
		q.push(event{at: skewedInc(&s), seq: seq})
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 100_000; i++ {
			ev := q.pop()
			seq++
			q.push(event{at: ev.at + skewedInc(&s), seq: seq})
			if i%1000 == 0 {
				check("hold")
			}
		}
		last := q.peekAt() + 1000
		peak = max(peak, swingQueue(q, &last, &seq))
		check("swing")
		at := q.peekAt() + s.next(1000)
		for i := 0; i < 300; i++ {
			seq++
			q.push(event{at: at, seq: seq})
		}
		check("spike")
	}
}

// TestQueueWarmHoldAllocatesRarely: once warm, a hold at 320 events on the
// sor-heap-shaped stream re-files events into the bucket arrays it already
// has, and allocates less than once per 10,000 events. It is not zero: a
// bucket grows the first time the front crosses a higher bit than before
// and more events than ever share it.
func TestQueueWarmHoldAllocatesRarely(t *testing.T) {
	q := &radixQueue{}
	s := lcg(1)
	var seq uint64
	for ; seq < 320; seq++ {
		q.push(event{at: skewedInc(&s), seq: seq})
	}
	hold := func(n int) {
		for i := 0; i < n; i++ {
			ev := q.pop()
			seq++
			q.push(event{at: ev.at + skewedInc(&s), seq: seq})
		}
	}
	hold(100_000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const measured = 100_000
	hold(measured)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs*10_000 >= measured {
		t.Fatalf("a warm hold of %d events allocates %d times, want fewer than one per 10,000", measured, allocs)
	}
}

// benchQueue measures steady-state hold throughput (pop one, push one) at a
// queue population of `size`: the access pattern of a big run, where the
// queue holds one in-flight event per busy node. inc draws each event's
// distance from the event popped before it.
func benchQueue(b *testing.B, q interface {
	push(event)
	pop() event
}, size int, inc func(*lcg) Time) {
	s := lcg(12345)
	var seq uint64
	for i := 0; i < size; i++ {
		seq++
		q.push(event{at: inc(&s), seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		seq++
		q.push(event{at: ev.at + inc(&s), seq: seq})
	}
}

// uniformInc draws hold increments uniformly over ~4x the population so
// live events spread across virtual time the way a machine-wide run spreads
// them (each node's next event lands somewhere in the whole in-flight
// horizon), rather than piling a million events onto a few thousand
// instants.
func uniformInc(size int) func(*lcg) Time {
	return func(s *lcg) Time { return 1 + s.next(Time(4*size)) }
}

// BenchmarkMillionEvents is the headline queue benchmark: hold operations at
// the scale run's population (4096 nodes, one in-flight event each). Run
// with -benchtime=1000000x to dispatch exactly one million events.
func BenchmarkMillionEvents(b *testing.B) {
	b.Run("radix", func(b *testing.B) { benchQueue(b, &radixQueue{}, 4096, uniformInc(4096)) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 4096, uniformInc(4096)) })
}

// BenchmarkQueueHoldMillionPop stresses a million-event *population* — every
// operation is a DRAM miss for any structure, so the gap narrows; the
// radix queue must still win.
func BenchmarkQueueHoldMillionPop(b *testing.B) {
	b.Run("radix", func(b *testing.B) { benchQueue(b, &radixQueue{}, 1_000_000, uniformInc(1_000_000)) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 1_000_000, uniformInc(1_000_000)) })
}

// BenchmarkQueueSkewed holds the sor-heap-shaped stream (skewedInc) at that
// workload's mean population of 320 events: a dense front over a sparse far
// tail, the shape uniform increments never show.
func BenchmarkQueueSkewed(b *testing.B) {
	b.Run("radix", func(b *testing.B) { benchQueue(b, &radixQueue{}, 320, skewedInc) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 320, skewedInc) })
}
