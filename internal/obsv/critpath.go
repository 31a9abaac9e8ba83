// Critical-path profiling: walk backward from the run's completion through
// busy intervals and matched message send/receive pairs, and partition the
// whole span into compute, network flight, and wait categories.
package obsv

import (
	"fmt"
	"io"
	"sort"
)

// PathReport is the longest dependency chain of a completed run: the one
// sequence of activations and messages whose durations sum to the parallel
// completion time. Total == Compute + Network + FutureWait + LockWait +
// Idle, exactly — the walker partitions every cycle of the critical span.
type PathReport struct {
	Total      int64 // the span walked: the maximum node clock
	Compute    int64 // busy execution on the path
	Network    int64 // message flight (send to effective arrival)
	FutureWait int64 // resume delay after a reply arrived (blocked on futures)
	LockWait   int64 // quiet gaps entered by parking on an object lock
	Idle       int64 // quiet gaps with no blocking cause (out of work)
	Hops       int   // network hops on the path
	Steps      int   // path segments walked
	// Incomplete is set when the walk could not follow an edge (a detail
	// log was truncated, or an arrival had no matching send); the
	// unexplained remainder is counted under Idle so the partition still
	// holds.
	Incomplete bool
}

// CriticalPath walks the longest dependency chain. It needs the detailed
// logs; with Truncated() the result is flagged Incomplete.
func (m *Metrics) CriticalPath() PathReport {
	if len(m.nodes) == 0 {
		return PathReport{}
	}
	node := 0
	for id, np := range m.nodes {
		if np.total > m.nodes[node].total {
			node = id
		}
	}
	return m.walk(node, m.nodes[node].total, 0)
}

// PartitionWindow partitions the dependency chain ending at (node, end) back
// to the time floor start: the walk follows busy intervals and message edges
// exactly like CriticalPath, but stops at the floor, crediting only the
// portion of each segment inside the window. Used to explain an individual
// tail request: what was its frontend's chain doing between the request's
// arrival and its completion. An out-of-range node or empty window returns a
// zero report.
func (m *Metrics) PartitionWindow(node int, start, end int64) PathReport {
	if node < 0 || node >= len(m.nodes) || end <= start {
		return PathReport{}
	}
	return m.walk(node, end, start)
}

// PartitionRequest partitions one completed serving request's span on its
// frontend node.
func (m *Metrics) PartitionRequest(rq ReqRecord) PathReport {
	return m.PartitionWindow(int(rq.Node), rq.Arrive, rq.Done)
}

// walk traces the dependency chain backward from time t on node down to the
// time floor, partitioning every cycle of [floor, t]. floor 0 is the
// whole-run critical path.
func (m *Metrics) walk(node int, t, floor int64) PathReport {
	r := PathReport{Total: t - floor}
	if m.truncated {
		r.Incomplete = true
		r.Idle = r.Total
		return r
	}

	for t > floor {
		r.Steps++
		np := m.nodes[node]
		// Latest interval starting strictly before t.
		var iv *interval
		ivs := &np.intervals
		if i := sort.Search(ivs.len(), func(k int) bool { return ivs.at(k).start >= t }) - 1; i >= 0 {
			iv = ivs.at(i)
		}
		if iv != nil && iv.end() >= t {
			// Busy at t: consume the interval portion inside the window.
			s := max(iv.start, floor)
			r.Compute += t - s
			t = s
			continue
		}
		// Quiet gap below t. pe is the end of the preceding busy interval.
		var pe int64
		if iv != nil {
			pe = iv.end()
		}
		// The latest delivery at or before t that falls inside the gap (and
		// the window) is what ended the wait; follow the message back to its
		// sender.
		if a := latestArrival(&np.arrivals, t); a != nil && a.at >= pe && a.at >= floor {
			wait := t - a.at
			if a.reply {
				r.FutureWait += wait
			} else {
				r.Idle += wait
			}
			if a.sent && a.sendAt < a.at {
				r.Hops++
				if a.sendAt < floor {
					// The send predates the window: the flight fills the rest.
					r.Network += a.at - floor
					return r
				}
				r.Network += a.at - a.sendAt
				t = a.sendAt
				node = int(a.from)
				continue
			}
			// No usable matching send: charge the rest to Idle and stop.
			r.Incomplete = true
			r.Idle += a.at - floor
			return r
		}
		// No delivery explains the gap. If the node's last act before going
		// quiet included parking an invocation on a lock, the gap is lock
		// wait; otherwise it was simply out of work.
		lo := pe
		if lo < floor {
			lo = floor
		}
		if iv != nil && hasLockBlockIn(&np.lockBlocks, iv.start, pe) {
			r.LockWait += t - lo
		} else {
			r.Idle += t - lo
		}
		t = lo
		if iv == nil || pe < floor {
			return r // reached the floor (or clock zero) through a gap
		}
	}
	return r
}

// latestArrival returns the latest arrival with at <= t (nil if none).
func latestArrival(as *chunkLog[arrival], t int64) *arrival {
	i := sort.Search(as.len(), func(k int) bool { return as.at(k).at > t }) - 1
	if i < 0 {
		return nil
	}
	return as.at(i)
}

// hasLockBlockIn reports whether a lock-park was recorded in [lo, hi].
func hasLockBlockIn(ts *chunkLog[int64], lo, hi int64) bool {
	i := sort.Search(ts.len(), func(k int) bool { return *ts.at(k) >= lo })
	return i < ts.len() && *ts.at(i) <= hi
}

// WritePath renders the partition as a short report.
func (r PathReport) WritePath(w io.Writer, seconds func(int64) float64) {
	fmt.Fprintf(w, "critical path: %d instr over %d segments, %d network hops\n", r.Total, r.Steps, r.Hops)
	if r.Incomplete {
		fmt.Fprintln(w, "  (incomplete: detail log truncated or an edge was unmatched)")
	}
	part := func(name string, v int64) {
		if r.Total == 0 {
			return
		}
		fmt.Fprintf(w, "  %-12s %12d  (%5.1f%%", name, v, 100*float64(v)/float64(r.Total))
		if seconds != nil {
			fmt.Fprintf(w, ", %.6fs", seconds(v))
		}
		fmt.Fprintln(w, ")")
	}
	part("compute", r.Compute)
	part("network", r.Network)
	part("future wait", r.FutureWait)
	part("lock wait", r.LockWait)
	part("idle", r.Idle)
}
