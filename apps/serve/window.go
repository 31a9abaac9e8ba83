package serve

import "repro/internal/load"

// window holds the requests that an attempt can still run, indexed by
// request id. Its ring runs from base, the oldest unfinished request, to
// next-1, the newest; the ring's length is a power of two that doubles when
// it is full. launch counts an attempt in before starting it, and the
// attempt's completion counts it out. When base advances past a finished
// request whose attempt is still running (a hedged duplicate, or one that a
// crash killed and that never completes), the request becomes a straggler
// in stray until that attempt completes. A straggler's keys are copied out
// of the generator's block, so it keeps no block of 4096 requests alive.
// Ids below base read as finished.
//
// Host memory is therefore O(requests in flight plus crash-killed
// stragglers) instead of O(requests issued). An unfinished request never
// leaves the ring, because a retry or a probe may still launch it: a request
// lost for good in a run without recovery holds base back, and from then on
// the ring keeps every request issued after it, as a run-long table would.
//
// The window changes only in ordered context: in global events (launch,
// inject) and in completions, which run inline on the serial engine and at
// the parallel engine's ordered-commit point. Request bodies running inside
// a parallel window only read it. Callers hold ids, never slot pointers: a
// slot moves when the ring doubles and is reused once its request retires.
type window struct {
	slots []slot
	base  int // oldest unfinished request, or next if there is none
	next  int // id of the next request filed
	stray map[int]*slot
}

// slot is one request of the window.
type slot struct {
	rq      load.Req
	running int32 // attempts started and not yet completed
	done    bool  // the request's first completion is recorded
}

// minSlots is the ring's first length.
const minSlots = 16

// add files the next request; requests arrive in id order.
func (w *window) add(rq load.Req) {
	if w.next-w.base == len(w.slots) {
		w.grow()
	}
	w.slots[w.next&(len(w.slots)-1)] = slot{rq: rq}
	w.next++
}

// grow doubles the ring, keeping every slot from base to next.
func (w *window) grow() {
	slots := make([]slot, max(minSlots, 2*len(w.slots)))
	for id := w.base; id < w.next; id++ {
		slots[id&(len(slots)-1)] = w.slots[id&(len(w.slots)-1)]
	}
	w.slots = slots
}

// at returns the slot of a request that an attempt can still run: an
// unfinished one, or one with an attempt still running.
func (w *window) at(id int) *slot {
	if id >= w.base {
		return &w.slots[id&(len(w.slots)-1)]
	}
	return w.stray[id]
}

// req returns request id, which an attempt can still run.
func (w *window) req(id int) *load.Req { return &w.at(id).rq }

// finished reports whether request id has completed.
func (w *window) finished(id int) bool {
	return id < w.base || w.slots[id&(len(w.slots)-1)].done
}

// start counts in one attempt of request id.
func (w *window) start(id int) { w.at(id).running++ }

// end counts out one attempt of request id and reports whether it is the
// request's first completion. A first completion advances base past every
// finished request at the front of the ring.
func (w *window) end(id int) bool {
	s := w.at(id)
	s.running--
	if s.done {
		if id < w.base && s.running == 0 {
			delete(w.stray, id)
		}
		return false
	}
	s.done = true
	for ; w.base < w.next; w.base++ {
		s := &w.slots[w.base&(len(w.slots)-1)]
		if !s.done {
			break
		}
		if s.running > 0 {
			st := *s
			st.rq.Keys = append([]int(nil), s.rq.Keys...)
			if w.stray == nil {
				w.stray = make(map[int]*slot)
			}
			w.stray[w.base] = &st
		}
		*s = slot{}
	}
	return true
}
