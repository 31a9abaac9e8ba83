package sim

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"runtime"
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
				tm.seq = seq
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
					timers[rng.Intn(len(timers))].seq = 0
				}
			case r < 8: // compact both queues
				if got, want := cal.compact(staleTimer), orc.compact(staleTimer); got != want {
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

// TestCalendarOracleShapeShifts drives the calendar queue and the heap
// oracle through streams that change shape mid-run, so the width, the
// rebuild trigger and the remembered minimum all see their transitions: a
// dense front over a sparse far tail, same-instant spikes, long empty
// stretches, and population swings across several doublings and halvings.
// Peeks are interleaved with pushes that land below the remembered minimum,
// and with compactions that may remove the minimum itself. Every peek and
// pop must match the oracle.
func TestCalendarOracleShapeShifts(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		cal := newCalendarQueue()
		orc := &heapQueue{}
		var now Time
		var seq uint64
		push := func(at Time) {
			seq++
			ev := event{at: at, seq: seq, p: func() {}, dst: kindCall}
			if rng.Intn(4) == 0 {
				ev.p, ev.dst = &Timer{seq: seq}, kindTimer
			}
			cal.push(ev)
			orc.push(ev)
		}
		pop := func(where string) {
			if got, want := cal.peekAt(), orc.peekAt(); got != want {
				t.Fatalf("trial %d %s: peekAt calendar=%d oracle=%d", trial, where, got, want)
			}
			a, b := cal.pop(), orc.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("trial %d %s: pop calendar=(%d,%d) oracle=(%d,%d)", trial, where, a.at, a.seq, b.at, b.seq)
			}
			now = a.at
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
			case 3: // peeks, then pushes below the remembered minimum
				for op := 0; op < 500 && orc.len() > 0; op++ {
					min := cal.peekAt()
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
					cal.push(ev)
					orc.push(ev)
					cal.peekAt()
					if rng.Intn(2) == 0 {
						tm.seq = 0
					}
					for i := range orc.h {
						if ev := orc.h[i]; ev.dst == kindTimer && rng.Intn(20) == 0 {
							ev.p.(*Timer).seq = 0
						}
					}
					if got, want := cal.compact(staleTimer), orc.compact(staleTimer); got != want {
						t.Fatalf("trial %d phase %d: compact removed %d from calendar, %d from oracle", trial, phase, got, want)
					}
					if orc.len() > 0 {
						pop("compact")
					}
					push(now + Time(rng.Intn(1000)))
				}
			}
			if cal.len() != orc.len() {
				t.Fatalf("trial %d phase %d: len calendar=%d oracle=%d", trial, phase, cal.len(), orc.len())
			}
		}
		for orc.len() > 0 {
			pop("final drain")
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

// bucketSlots is the queue's stored event capacity: every bucket array,
// live or kept for a larger calendar, and the rebuild buffer.
func bucketSlots(q *calendarQueue) int {
	n := cap(q.spare)
	for _, b := range q.buckets[:cap(q.buckets)] {
		n += cap(b)
	}
	return n
}

// TestCalendarSkewedBucketLoad holds a sor-heap-shaped stream at 320 events
// and asserts that a pop takes from a bucket holding at most 4 events on
// average (2.7 here). Buckets sized from the span of everything queued held
// 103.
func TestCalendarSkewedBucketLoad(t *testing.T) {
	q := newCalendarQueue()
	s := lcg(1)
	var seq uint64
	for ; seq < 320; seq++ {
		q.push(event{at: skewedInc(&s), seq: seq})
	}
	const warm, measured = 100_000, 100_000
	events := 0
	for i := 0; i < warm+measured; i++ {
		if i >= warm {
			q.peekAt()
			events += len(q.buckets[q.minB])
		}
		ev := q.pop()
		seq++
		q.push(event{at: ev.at + skewedInc(&s), seq: seq})
	}
	if mean := float64(events) / measured; mean > 4 {
		t.Fatalf("mean events per popped bucket = %.1f, want at most 4", mean)
	}
}

// swingQueue grows q to 4096 events and shrinks it back to 256, four
// doublings and four halvings. It pops the minimum and, while growing,
// pushes two events at the next free instants past the last one queued, so
// every instant holds one event and every swing is the same traffic at a
// later time. It returns the largest population reached.
func swingQueue(q *calendarQueue, last *Time, seq *uint64) int {
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

// TestCalendarSwingAllocatesNothing: once every bucket has held its largest
// cluster, a run whose population swings across doublings and halvings
// allocates nothing: resizes re-file events into the arrays the buckets
// already have. A queue that drops its bucket arrays on each resize
// allocates on every one. (On a random stream a bucket now and then first
// holds a larger cluster than before, and that growth allocates.)
func TestCalendarSwingAllocatesNothing(t *testing.T) {
	q := newCalendarQueue()
	var last Time
	var seq uint64
	for ; seq < 256; seq++ {
		last++
		q.push(event{at: last, seq: seq})
	}
	swingQueue(q, &last, &seq)
	if allocs := testing.AllocsPerRun(10, func() { swingQueue(q, &last, &seq) }); allocs != 0 {
		t.Fatalf("a population swing allocates %.0f times after warm-up, want 0", allocs)
	}
}

// TestCalendarStorageBounded: the queue's stored capacity (bucket arrays,
// live or kept, plus the rebuild buffer) stays within 16 event slots per
// event of peak population through a hold at 320, population swings and
// same-instant spikes. It peaks near 11 here; right after a rebuild the
// queue guarantees at most calCapPerBucket+1. Buckets as wide as the whole
// front kept the capacity of the front's clusters: up to 218 slots per
// event on this stream.
func TestCalendarStorageBounded(t *testing.T) {
	q := newCalendarQueue()
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

// TestCalendarBurstThenHoldAllocatesNothing: a push burst filed before any
// pop sizes the buckets from the spacing of its earliest events, re-sampled
// at the first pop once the burst has grown the population by half, so the
// hold that follows pops from buckets of calWidthMul events and needs no
// rebuild; once the queue is warm from earlier cycles of the stream the
// hold allocates nothing. Popping a bucket of 3 events finds 3, 2 and then
// 1 in it, 2 on average; a width sampled before the burst's second half
// reads 3.3. The stream swings between a sparse trickle,
// 64 events 4096 cycles apart held for four turnovers and drained, and a
// dense burst: 16,384 events at distinct instants 4 apart, filed in
// bit-reversed order, so that every prefix the queue doubles at is evenly
// spaced, then held for one turnover, each event coming back one burst
// span later, and drained. Keeping the trickle's width through the burst
// piled thousands of events into a few buckets; the hold's first pops then
// re-derived the width, and that rebuild dropped the arrays the burst had
// grown, for the hold to grow new ones in every cycle.
func TestCalendarBurstThenHoldAllocatesNothing(t *testing.T) {
	const trickle, gap, burst = 64, 4096, 1 << 14
	q := newCalendarQueue()
	var seq uint64
	push := func(at Time) {
		seq++
		q.push(event{at: at, seq: seq})
	}
	var ev event
	drain := func() {
		for q.len() > 0 {
			ev = q.pop()
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var held uint64
	events := 0
	for cycle := 0; cycle < 4; cycle++ {
		for i := 1; i <= trickle; i++ {
			push(ev.at + Time(i*gap))
		}
		for i := 0; i < 4*trickle; i++ {
			ev = q.pop()
			push(ev.at + trickle*gap)
		}
		drain()
		for i := 0; i < burst; i++ {
			push(ev.at + 1 + 4*Time(bits.Reverse16(uint16(i))>>2))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < burst; i++ {
			q.peekAt()
			events += len(q.buckets[q.minB])
			ev = q.pop()
			push(ev.at + 4*burst)
		}
		runtime.ReadMemStats(&after)
		if cycle > 0 {
			held += after.Mallocs - before.Mallocs
		}
		drain()
	}
	if mean := float64(events) / (4 * burst); mean > 2.5 {
		t.Errorf("mean events per popped bucket in the holds = %.1f, want at most 2.5", mean)
	}
	if held != 0 {
		t.Fatalf("the holds after a burst allocate %d times once warm, want 0", held)
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
// live events spread across the calendar the way a machine-wide run spreads
// them across virtual time (each node's next event lands somewhere in the
// whole in-flight horizon), rather than piling a million events onto a few
// thousand instants. It is the calendar queue's best case.
func uniformInc(size int) func(*lcg) Time {
	return func(s *lcg) Time { return 1 + s.next(Time(4*size)) }
}

// BenchmarkMillionEvents is the headline queue benchmark: hold operations at
// the scale run's population (4096 nodes, one in-flight event each). Run
// with -benchtime=1000000x to dispatch exactly one million events.
func BenchmarkMillionEvents(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchQueue(b, newCalendarQueue(), 4096, uniformInc(4096)) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 4096, uniformInc(4096)) })
}

// BenchmarkQueueHoldMillionPop stresses a million-event *population* — every
// operation is a DRAM miss for any structure, so the gap narrows; the
// calendar must still win.
func BenchmarkQueueHoldMillionPop(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchQueue(b, newCalendarQueue(), 1_000_000, uniformInc(1_000_000)) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 1_000_000, uniformInc(1_000_000)) })
}

// BenchmarkQueueSkewed holds the sor-heap-shaped stream (skewedInc) at that
// workload's mean population of 320 events: a dense front over a sparse far
// tail, the shape uniform increments never show.
func BenchmarkQueueSkewed(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { benchQueue(b, newCalendarQueue(), 320, skewedInc) })
	b.Run("heap", func(b *testing.B) { benchQueue(b, &heapQueue{}, 320, skewedInc) })
}
