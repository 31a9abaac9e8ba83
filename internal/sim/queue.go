package sim

import (
	"fmt"
	"math/bits"
)

// The engine's pending-event store: a monotone radix queue (O(1) push and
// peek, amortized O(1) pop). Events are totally ordered by (at, src, seq) —
// time, then scheduling context, then that context's own sequence counter —
// so any correct priority queue dequeues in exactly the same order
// regardless of insertion order. The context in the key is what makes the
// order shard-independent: the serial loop and the parallel engine's shards
// insert the same events in different interleavings, but compare them
// identically. queue_test.go keeps a container/heap binary heap as the
// reference oracle: TestQueueMatchesHeapOracle and
// TestQueueOracleShapeShifts assert the two agree under random and
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

// radixQueue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan,
// "Faster algorithms for the shortest path problem", JACM 1990) keyed on
// now, the time of the last pop. It rests on one rule the engine keeps: no
// event is pushed before now. Schedule checks that for the host and for
// node code; push checks it again, because an event below now would be
// filed in the wrong bucket and pop out of order.
//
// The events at now wait in cur, a binary heap, so they pop in (src, seq)
// order. Every later event waits unsorted in far[i], where i is the highest
// bit in which its time differs from now; lo[i] is the earliest time in
// far[i], and mask marks the buckets that are not empty. An event in far[i]
// agrees with now above bit i and has bit i set where now has it clear, so
// every event in far[i] is earlier than every event in far[j] when i < j:
// the minimum is cur's root, or else lo of the lowest bucket. A peek reads
// it without moving now, so a push between a peek and a pop stays legal;
// RunUntil and the parallel engine's rounds do that.
//
// When cur runs dry, pop moves now to lo of the lowest bucket i and re-files
// that bucket. Its events agree with the new now on bit i and above, so each
// goes to cur or to a bucket below i, and the events of the higher buckets
// keep theirs. An event is therefore filed at most once per bit of its
// time, and there is no bucket width to size, no resize and nothing to
// tune. A bucket holding one event is returned directly.
type radixQueue struct {
	now  Time
	cur  bucketHeap
	far  [64][]event
	lo   [64]Time
	mask uint64
	size int
}

func (q *radixQueue) len() int { return q.size }

func (q *radixQueue) push(ev event) {
	if ev.at < q.now {
		panic(fmt.Sprintf("sim: event at %d pushed below the queue's floor %d", ev.at, q.now))
	}
	q.size++
	if ev.at == q.now {
		q.cur.push(ev)
		return
	}
	q.file(ev)
}

// file puts ev, later than now, in the bucket of the highest bit in which
// its time differs from now.
func (q *radixQueue) file(ev event) {
	i := bits.Len64(uint64(ev.at^q.now)) - 1
	if q.mask&(1<<i) == 0 || ev.at < q.lo[i] {
		q.lo[i] = ev.at
	}
	q.mask |= 1 << i
	q.far[i] = append(q.far[i], ev)
}

// pop removes and returns the minimum by (at, src, seq). The queue must be
// non-empty.
func (q *radixQueue) pop() event {
	q.size--
	if len(q.cur) == 0 {
		i := bits.TrailingZeros64(q.mask)
		b := q.far[i]
		q.far[i] = b[:0]
		q.mask &^= 1 << i
		q.now = q.lo[i]
		if len(b) == 1 {
			ev := b[0]
			b[0] = event{} // release the fn/timer pointers
			return ev
		}
		for j := range b {
			if b[j].at == q.now {
				q.cur = append(q.cur, b[j])
			} else {
				q.file(b[j])
			}
		}
		clear(b)
		q.cur.init()
	}
	return q.cur.pop()
}

// peekAt returns the at of the minimum without removing it. The queue must
// be non-empty.
func (q *radixQueue) peekAt() Time {
	if len(q.cur) > 0 {
		return q.now
	}
	return q.lo[bits.TrailingZeros64(q.mask)]
}

// compact removes every event for which dead returns true, returning how
// many were removed. Used to reclaim cancelled-timer slots.
func (q *radixQueue) compact(dead func(*event) bool) int {
	before := q.size
	q.cur = sweep(q.cur, dead)
	q.cur.init()
	q.size = len(q.cur)
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := sweep(q.far[i], dead)
		q.far[i] = b
		q.size += len(b)
		if len(b) == 0 {
			q.mask &^= 1 << i
			continue
		}
		q.lo[i] = b[0].at
		for j := range b {
			q.lo[i] = min(q.lo[i], b[j].at)
		}
	}
	return before - q.size
}

// sweep removes the events for which dead returns true from b in place.
func sweep(b []event, dead func(*event) bool) []event {
	keep := b[:0]
	for j := range b {
		if !dead(&b[j]) {
			keep = append(keep, b[j])
		}
	}
	clear(b[len(keep):]) // release the fn/timer pointers
	return keep
}

// bucketHeap is the queue's current instant: a small binary min-heap on
// (at, src, seq), inlined (no container/heap indirection) because its push
// and pop are on the engine's hottest path.
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
