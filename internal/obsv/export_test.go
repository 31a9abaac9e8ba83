package obsv

import "slices"

// Test-only views of the registry's detail logs, and a setter for its
// interval cap, for the external tests.

// SetMaxIntervals lowers the busy-interval cap so a small run truncates.
func (m *Metrics) SetMaxIntervals(n int) { m.maxIntervals = n }

// RetainedInterval is one retained busy interval: its span and the method it
// ran ("" for the runtime).
type RetainedInterval struct {
	Start, End int64
	Method     string
}

// RetainedIntervals returns node id's retained busy intervals in time order.
func (m *Metrics) RetainedIntervals(id int) []RetainedInterval {
	var out []RetainedInterval
	for _, c := range m.nodes[id].intervals.chunks {
		for _, iv := range c {
			out = append(out, RetainedInterval{Start: iv.start, End: iv.end(), Method: m.name(iv.method)})
		}
	}
	return out
}

// RetainedInstants returns a copy of the retained instants in record order.
func (m *Metrics) RetainedInstants() []Instant { return slices.Concat(m.instants.chunks...) }

// WalkerLogs returns how many arrivals and lock blocks the registry holds
// across all nodes, and how many sends wait in its in-flight table.
func (m *Metrics) WalkerLogs() (arrivals, lockBlocks, inFlight int) {
	for _, np := range m.nodes {
		arrivals += np.arrivals.len()
		lockBlocks += np.lockBlocks.len()
	}
	return arrivals, lockBlocks, len(m.inFlight)
}
