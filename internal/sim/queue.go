package sim

// The engine's pending-event store: a calendar queue (O(1) amortized push
// and pop). Events are totally ordered by (at, src, seq) — time, then
// scheduling context, then that context's own sequence counter — so any
// correct priority queue dequeues in exactly the same order regardless of
// insertion order. The context in the key is what makes the order
// shard-independent: the serial loop and the parallel engine's shards
// insert the same events in different interleavings, but compare them
// identically. queue_test.go keeps a container/heap binary heap as the
// reference oracle: TestCalendarMatchesHeapOracle asserts the two agree
// under random insert/cancel workloads, and TestQueueTieBreakTwoProducers
// pins the same-instant cross-producer order.

// less is the total event order: time, then scheduling context (the global
// context's srcGlobal, the minimum, ahead of transmission contexts ahead of
// node contexts; see srcXmit), then the context's own sequence. Insertion
// order never participates, so equal-time events from different producers —
// two shards, or the serial loop visiting the same producers in any order —
// always pop identically.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// ---------------------------------------------------------------------------
// calendarQueue: Brown's calendar queue with heap-ordered buckets.
//
// Virtual time is divided into bucket-width windows; bucket i of nb covers
// every window w with w % nb == i (the calendar "year" is nb*width). An
// event lands in the bucket of its window; dequeue walks the calendar from
// the current window forward, popping from a bucket only while its minimum
// lies inside the window under the cursor. Each bucket is itself a tiny
// binary heap on (at, src, seq), so the bucket minimum is its element 0 — the
// in-window test is one comparison — and pathological workloads (every
// event at one instant) degrade to a single bucket heap, i.e. a plain binary
// heap's O(log n), never worse.
//
// The queue resizes (doubling/halving nb, re-deriving width from the
// observed event-time span) to hold mean occupancy at O(1), giving O(1)
// amortized push and pop: the property the engine needs to dispatch
// hundreds of millions of events at 4096-node scale, where the global
// heap's log n cache-missing comparisons per operation dominate runtime.
// The far-future tail (retransmit deadlines, fault windows) shares buckets
// with near events via the year wrap and is skipped in O(1) by the
// in-window test.
//
// The dequeue cursor is derived entirely from lastAt, the time of the most
// recently popped event. The engine guarantees no push below the current
// event time (Schedule panics on it), so every queued or future event lies
// at or after lastAt's window: anchoring the walk there — instead of
// persisting a cursor that could advance past windows where later pushes
// still land — makes the scan position always correct by construction.

const calMinBuckets = 16

type calendarQueue struct {
	buckets []bucketHeap
	nb      int // power of two
	mask    int
	width   Time
	size    int
	lastAt  Time // time of the most recently popped event (the scan floor)
}

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{}
	q.reinit(calMinBuckets, 256)
	return q
}

// reinit replaces the bucket array: nb buckets of the given width.
func (q *calendarQueue) reinit(nb int, width Time) {
	if width < 1 {
		width = 1
	}
	q.buckets = make([]bucketHeap, nb)
	q.nb = nb
	q.mask = nb - 1
	q.width = width
}

func (q *calendarQueue) len() int { return q.size }

func (q *calendarQueue) push(ev event) {
	q.buckets[int(ev.at/q.width)&q.mask].push(ev)
	q.size++
	if q.size > 2*q.nb {
		q.resize(q.nb * 2)
	}
}

// pop removes and returns the minimum by (at, src, seq). The queue must be
// non-empty.
func (q *calendarQueue) pop() event {
	i := q.findMin()
	ev := q.buckets[i].pop()
	q.size--
	q.lastAt = ev.at
	if q.size < q.nb/2 && q.nb > calMinBuckets {
		q.resize(q.nb / 2)
	}
	return ev
}

// peekAt returns the at of the minimum without removing it. The queue must
// be non-empty.
func (q *calendarQueue) peekAt() Time {
	i := q.findMin()
	return q.buckets[i][0].at
}

// findMin returns the index of the bucket holding the global minimum. The
// queue must be non-empty. It mutates nothing: the scan is re-anchored at
// lastAt's window each call, which pop's lastAt update advances.
func (q *calendarQueue) findMin() int {
	// Walk at most one year forward from lastAt's window: a bucket's
	// minimum is its heap root, so the in-window test is one comparison.
	w := q.lastAt / q.width
	cur := int(w) & q.mask
	top := (w + 1) * q.width
	for i := 0; i < q.nb; i++ {
		if b := q.buckets[cur]; len(b) > 0 && b[0].at < top {
			return cur
		}
		cur = (cur + 1) & q.mask
		top += q.width
	}
	// Nothing within a year: the queue is sparse relative to its calendar.
	// Direct-search the bucket roots for the global minimum.
	best := -1
	for i := range q.buckets {
		b := q.buckets[i]
		if len(b) == 0 {
			continue
		}
		if best < 0 || less(&b[0], &q.buckets[best][0]) {
			best = i
		}
	}
	return best
}

// resize rebuilds the calendar with nb buckets and a width re-derived from
// the live events' time span, re-inserting everything. Amortized O(1): a
// resize at size s costs O(s) and cannot recur for another Θ(s) operations.
func (q *calendarQueue) resize(nb int) {
	old := q.buckets
	lo, hi, n := Time(0), Time(0), 0
	for i := range old {
		for j := range old[i] {
			at := old[i][j].at
			if n == 0 || at < lo {
				lo = at
			}
			if n == 0 || at > hi {
				hi = at
			}
			n++
		}
	}
	// Width targeting ~2 windows per event across the live span keeps mean
	// occupancy O(1); a same-instant spike (span 0) just concentrates in
	// one bucket heap, which is a binary heap's behavior anyway. The span is
	// measured from lastAt, not the queue minimum: the scan starts at
	// lastAt's window, so width must keep that distance bounded in windows.
	width := q.width
	if n > 1 {
		span := hi - q.lastAt
		if span > 0 {
			width = 2 * span / Time(n)
			if width < 1 {
				width = 1
			}
		}
	}
	q.reinit(nb, width)
	for i := range old {
		for j := range old[i] {
			ev := old[i][j]
			q.buckets[int(ev.at/q.width)&q.mask].push(ev)
		}
	}
}

// compact removes every event for which dead returns true, returning how
// many were removed. Used to reclaim cancelled-timer slots.
func (q *calendarQueue) compact(dead func(*event) bool) int {
	removed := 0
	for i := range q.buckets {
		b := q.buckets[i][:0]
		for j := range q.buckets[i] {
			if dead(&q.buckets[i][j]) {
				removed++
			} else {
				b = append(b, q.buckets[i][j])
			}
		}
		q.buckets[i] = b
		q.buckets[i].init()
	}
	q.size -= removed
	return removed
}

// bucketHeap is one bucket: a small binary min-heap on (at, src, seq), inlined
// (no container/heap indirection) because push/pop on 1-2 element buckets
// is the engine's hottest path.
type bucketHeap []event

func (b *bucketHeap) push(ev event) {
	h := append(*b, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*b = h
}

func (b *bucketHeap) pop() event {
	h := *b
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn/timer pointers
	h = h[:n]
	b.down(h, 0)
	*b = h
	return ev
}

func (b *bucketHeap) init() {
	h := *b
	for i := len(h)/2 - 1; i >= 0; i-- {
		b.down(h, i)
	}
}

func (b *bucketHeap) down(h []event, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && less(&h[r], &h[c]) {
			c = r
		}
		if !less(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
