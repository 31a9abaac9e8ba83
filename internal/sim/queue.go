package sim

// The engine's pending-event store: a calendar queue (O(1) amortized push
// and pop). Events are totally ordered by (at, src, seq) — time, then
// scheduling context, then that context's own sequence counter — so any
// correct priority queue dequeues in exactly the same order regardless of
// insertion order. The context in the key is what makes the order
// shard-independent: the serial loop and the parallel engine's shards
// insert the same events in different interleavings, but compare them
// identically. queue_test.go keeps a container/heap binary heap as the
// reference oracle: TestCalendarMatchesHeapOracle and
// TestCalendarOracleShapeShifts assert the two agree under random and
// shape-changing workloads, and TestQueueTieBreakTwoProducers pins the
// same-instant cross-producer order.

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
// The bucket count follows the population (doubling above 2 events per
// bucket, halving below 1/2), and the width follows the front: as in
// Brown's paper it is sized from the spacing of the events being dequeued,
// calWidthMul times the mean time between pops since the last rebuild, so a
// popped bucket holds about that many events. A push burst has no pops to
// go by, so a rebuild inside one reads the spacing of the earliest queued
// events instead, as Brown does at every resize, and the first pop after a
// burst that grew the population by half since re-reads it: the burst may
// have filled in the front its last doubling sampled. Sizing the width from
// the span of everything queued instead lets a far tail of timers and
// deadlines stretch the buckets until the whole front shares one. Every pop
// counts its work —
// the events in the popped bucket plus the buckets walked to find it — and
// when that work exceeds calMaxWork per pop within a window of nb pops, the
// queue rebuilds at the same bucket count with a re-derived width. A rebuild
// costs O(events + buckets) and is paid for by the work that triggered it
// (or by the Θ(nb) pushes or pops behind a resize), so push and pop stay
// O(1) amortized: the property the engine needs to dispatch hundreds of
// millions of events at 4096-node scale, where a global heap's log n
// cache-missing comparisons per operation dominated runtime. The
// far-future tail shares buckets with near events via the year wrap and is
// skipped in O(1) by the in-window test.
//
// The dequeue cursor is derived entirely from lastAt, the time of the most
// recently popped event. The engine guarantees no push below the current
// event time (Schedule panics on it), so every queued or future event lies
// at or after lastAt's window: anchoring the walk there — instead of
// persisting a cursor that could advance past windows where later pushes
// still land — makes the scan position always correct by construction. What
// the queue does keep between calls is minB, the bucket holding the
// minimum: peekAt finds it, pop takes from it, and a push landing below the
// minimum moves it to the pushed event's bucket. The parallel engine peeks
// every shard each round and again before each pop, so without the memo
// every peek would repeat the walk.
//
// Bucket arrays are kept across rebuilds (a rebuild clears their slots and
// re-files the events), and the buckets a halving retires keep theirs for
// the next doubling, so a run whose population swings stops allocating once
// every bucket has held its largest cluster. Stored capacity is bounded: a
// rebuild drops any array with room for more than calCapPerBucket events,
// such as one left by a same-instant spike.

const (
	calMinBuckets = 16
	// calWidthMul is the bucket width in mean pop spacings: about this many
	// events per popped bucket.
	calWidthMul = 3
	// calMaxWork is the mean work per pop (events in the popped bucket plus
	// buckets walked) above which the queue re-derives its width.
	calMaxWork = 4
	// calCapPerBucket is the largest bucket array, in events, that a
	// rebuild keeps. A bucket that once held 9 to 16 events has room for 17.
	calCapPerBucket = 24
)

type calendarQueue struct {
	// buckets holds the nb live buckets; the capacity beyond nb keeps the
	// buckets of a larger calendar, with their arrays, for the next growth.
	buckets []bucketHeap
	nb      int // power of two
	mask    int
	width   Time
	size    int
	lastAt  Time // time of the most recently popped event (the scan floor)
	minB    int  // bucket holding the minimum, or -1 if not yet found

	// pops counts the pops since the last rebuild, which left lastAt at
	// from: their mean spacing sizes the next width. work sums the pop work
	// over the current window of `window` pops (at most nb).
	pops, window, work int
	from               Time
	// built is the population at the last rebuild.
	built int

	// spare is the buffer for re-filing events, kept across rebuilds. It is
	// allocated with room for 2*nb events, the most the queue holds before
	// its next doubling.
	spare []event
}

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{width: 256, minB: -1}
	q.rebuild(calMinBuckets)
	return q
}

func (q *calendarQueue) len() int { return q.size }

func (q *calendarQueue) push(ev event) {
	i := int(ev.at/q.width) & q.mask
	if q.minB >= 0 && less(&ev, &q.buckets[q.minB][0]) {
		q.minB = i
	}
	q.buckets[i].push(ev)
	q.size++
	if q.size > 2*q.nb {
		q.rebuild(2 * q.nb)
	}
}

// pop removes and returns the minimum by (at, src, seq). The queue must be
// non-empty.
func (q *calendarQueue) pop() event {
	if q.pops == 0 && 2*q.size > 3*q.built {
		// The first pop after pushes that grew the population by half
		// since the last rebuild: size the width from the front they
		// filed.
		q.rebuild(q.nb)
	}
	i := q.minB
	if i < 0 {
		i = q.findMin()
	}
	q.minB = -1
	q.work += len(q.buckets[i])
	ev := q.buckets[i].pop()
	q.size--
	q.lastAt = ev.at
	q.pops++
	q.window++
	switch {
	case q.size < q.nb/2 && q.nb > calMinBuckets:
		q.rebuild(q.nb / 2)
	case q.work > calMaxWork*q.nb:
		q.rebuild(q.nb)
	case q.window >= q.nb:
		q.window, q.work = 0, 0
	}
	return ev
}

// peekAt returns the at of the minimum without removing it. The queue must
// be non-empty.
func (q *calendarQueue) peekAt() Time {
	if q.minB < 0 {
		q.minB = q.findMin()
	}
	return q.buckets[q.minB][0].at
}

// findMin returns the index of the bucket holding the global minimum,
// adding the buckets it walked to the pop work. The queue must be
// non-empty. The scan is re-anchored at lastAt's window each call, which
// pop's lastAt update advances.
func (q *calendarQueue) findMin() int {
	// Walk at most one year forward from lastAt's window: a bucket's
	// minimum is its heap root, so the in-window test is one comparison.
	w := q.lastAt / q.width
	cur := int(w) & q.mask
	top := (w + 1) * q.width
	for i := 0; i < q.nb; i++ {
		if b := q.buckets[cur]; len(b) > 0 && b[0].at < top {
			q.work += i
			return cur
		}
		cur = (cur + 1) & q.mask
		top += q.width
	}
	// Nothing within a year: the queue is sparse relative to its calendar.
	// Direct-search the bucket roots for the global minimum.
	q.work += 2 * q.nb
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

// rebuild re-files every event into nb buckets whose width is calWidthMul
// mean pop spacings since the last rebuild, clamped to at least 1 and small
// enough that a year's walk cannot overflow Time. If nothing was popped
// since, the spacing is that of the earliest queued events (frontSpacing),
// and if they are one instant the width stays. It keeps the bucket arrays
// up to calCapPerBucket, and does nothing if neither nb nor the width would
// change.
func (q *calendarQueue) rebuild(nb int) {
	width := q.width
	if q.pops > 0 {
		width = calWidthMul * min(q.lastAt-q.from, 1<<60) / Time(q.pops)
	} else if span, gaps := q.frontSpacing(); span > 0 {
		width = calWidthMul * min(span, 1<<60) / Time(gaps)
	}
	width = min(max(width, 1), Time(1<<60)/Time(nb))
	q.window, q.work = 0, 0
	if nb == q.nb && width == q.width {
		return
	}
	q.pops, q.from = 0, q.lastAt
	q.minB = -1
	q.built = q.size
	if cap(q.spare) < q.size {
		q.spare = make([]event, 0, 2*nb)
	}
	all := q.spare[:0]
	for i, b := range q.buckets {
		all = append(all, b...)
		if cap(b) > calCapPerBucket {
			b = nil
		}
		clear(b)
		q.buckets[i] = b[:0]
	}
	if nb <= cap(q.buckets) {
		q.buckets = q.buckets[:nb]
	} else {
		grown := make([]bucketHeap, nb)
		copy(grown, q.buckets[:cap(q.buckets)])
		q.buckets = grown
	}
	q.nb, q.mask, q.width = nb, nb-1, width
	for i := range all {
		q.buckets[int(all[i].at/width)&q.mask].push(all[i])
	}
	clear(all) // release the fn/timer pointers
	q.spare = all[:0]
}

// calSample is how many of the earliest queued events frontSpacing reads.
const calSample = 16

// frontSpacing returns the span from the earliest to the latest of the
// calSample earliest queued events and the number of gaps in it, as Brown
// sizes a calendar that has no pop history: the spacing of the events
// about to be dequeued. It keeps the sample sorted in a fixed array, so it
// allocates nothing, and it returns a zero span if fewer than two events
// are queued or the sample is one instant.
func (q *calendarQueue) frontSpacing() (span Time, gaps int) {
	var at [calSample]Time
	n := 0
	for _, b := range q.buckets {
		for j := range b {
			t := b[j].at
			if n == calSample {
				if t >= at[n-1] {
					continue
				}
				n--
			}
			i := n
			for ; i > 0 && at[i-1] > t; i-- {
				at[i] = at[i-1]
			}
			at[i] = t
			n++
		}
	}
	if n < 2 {
		return 0, 0
	}
	return at[n-1] - at[0], n - 1
}

// compact removes every event for which dead returns true, returning how
// many were removed. Used to reclaim cancelled-timer slots. The minimum may
// be among them, so the memo goes.
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
		clear(q.buckets[i][len(b):])
		q.buckets[i] = b
		q.buckets[i].init()
	}
	q.size -= removed
	q.minB = -1
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
