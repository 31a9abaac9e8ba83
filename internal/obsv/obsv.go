// Package obsv is the observability layer over a simulated run: a metrics
// registry fed by the runtime's tracer and charge-observer hooks, a
// critical-path profiler over the completed trace, and a Perfetto/Chrome
// trace_event exporter.
//
// The paper's whole argument is an accounting argument — Table 2 attributes
// cycles to calling schemas, and §4 explains every kernel result by where
// invocations fell back, suspended, or crossed the network. This package
// surfaces that accounting for any run: install a Metrics as both
// Config.Tracer and Config.Metrics (Install does both), run, then render
// the attribution table, walk the critical path, or export the run for
// ui.perfetto.dev.
//
// Observation is passive: neither hook adds virtual charges, so a run's
// simulated results are bit-identical with observability on or off (the
// cmd/tables golden test enforces this). The attribution is exact: per
// node, the observed charges are contiguous and sum to the node's final
// virtual clock (CheckAttribution verifies both properties).
//
// The registry keeps only what something reads. A message's send time waits
// in an in-flight table until its receive takes it out, so the table holds
// only messages still on the wire. Once a retention cap truncates the run,
// the critical path is unavailable, so the logs only the walker reads
// (arrivals, lock blocks and the in-flight table) are released and no longer
// recorded. The detail logs grow in chunks that are never copied (chunkLog),
// and a busy interval is a 16-byte record that names its method by id, so the
// collector has no pointer to scan in it. WritePerfetto streams the export
// instead of building it in memory.
package obsv

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Default retention caps. Aggregates (counters, cycle attribution,
// histograms) are always exact; only the detailed logs that feed the
// critical-path walker and the Perfetto exporter are bounded.
const (
	defaultMaxIntervals = 1 << 21
	defaultMaxInstants  = 1 << 17
)

// Metrics aggregates one run. It implements both core.Tracer (counters,
// message correlation, suspend pairing, instant events) and
// core.MetricsSink (cycle attribution, busy intervals). Not safe for
// concurrent use: give every run its own instance.
type Metrics struct {
	// maxIntervals / maxInstants bound the detailed logs (New sets the
	// defaults). When a cap is hit Truncated() reports true, further
	// detail is dropped, and the critical path is unavailable — the
	// aggregate tables remain exact. Truncation also releases the arrivals,
	// lock blocks and in-flight sends, which only the walker reads, and
	// stops recording them; retained intervals and instants still export.
	maxIntervals int
	maxInstants  int

	nodes     []*nodeProfile
	methods   map[string]*MethodProfile
	byID      []*MethodProfile // methods by id, in first-seen order; id 0 is the runtime (nil)
	inFlight  map[uint64]int64 // (from,to,seq) -> send time, until received
	instants  chunkLog[Instant]
	intervals int // retained busy intervals across all nodes
	truncated bool
	kinds     [trace.NumKinds]int64
	msgWords  summary
	suspend   summary
	err       error // first attribution-contiguity violation

	// Serving-request tracking (KReqArrive/KReqDone pairs). The latency
	// histogram is always exact; only the per-request records that feed the
	// tail-partition walker are bounded (by maxInstants), with overflow
	// counted in reqDropped rather than flagged as truncation — aggregate
	// tables and the whole-run critical path stay available.
	reqOpen    map[int64]openReq
	reqs       chunkLog[ReqRecord]
	reqLat     stats.LatencyHist
	reqDropped int64
}

// openReq is an arrived-but-unfinished serving request.
type openReq struct {
	node int32
	at   int64
}

// ReqRecord is one completed serving request: where it ran and its arrival
// and completion times on the virtual clock (latency = Done - Arrive,
// queueing included — the arrival stamp is the modeled arrival, not the
// moment the frontend got to it).
type ReqRecord struct {
	ID     int64
	Node   int32
	Arrive int64
	Done   int64
}

// nodeProfile is the per-node side of the registry.
type nodeProfile struct {
	total      int64 // attributed cycles; equals the final clock
	end        int64 // end of the last observed charge (contiguity cursor)
	ops        [instr.NumOps]int64
	last       *MethodProfile             // the node's last method (see profile)
	intervals  chunkLog[interval]         // non-idle execution, coalesced, time-ordered
	arrivals   chunkLog[arrival]          // message deliveries, time-ordered
	lockBlocks chunkLog[int64]            // KLockBlock times, time-ordered
	pending    map[*MethodProfile][]int64 // open suspends per method (FIFO)
}

// interval is a maximal run of contiguous same-method busy charges, up to
// math.MaxUint32 cycles: a longer run continues in a new record. It is 16
// bytes and holds no pointer.
type interval struct {
	start  int64
	dur    uint32
	method uint32 // the method's id, 0 for the runtime
}

// end returns the end of the interval.
func (iv *interval) end() int64 { return iv.start + int64(iv.dur) }

// arrival is one delivery-side message event, with the send time its
// receive took out of the in-flight table.
type arrival struct {
	at     int64 // effective arrival
	sendAt int64 // matched send time; meaningful only when sent is set
	from   int32
	sent   bool // a recorded send matched this receive
	reply  bool
}

// Instant is a point event worth showing on a timeline (drop, retransmit,
// migration, hop-limit, stall...).
type Instant struct {
	At     int64
	Node   int32
	Kind   trace.Kind
	Method string
	Aux    int64
}

// MethodProfile is the per-method aggregate.
type MethodProfile struct {
	Name   string
	Cycles int64 // attributed body cycles
	ByOp   [instr.NumOps]int64

	Invokes, StackCalls, Fallbacks, CtxAllocs int64
	Suspends, Wakes, Wrappers, LockBlocks     int64

	SuspendSum   int64 // total suspend->wake virtual time
	SuspendPairs int64

	id uint32 // index in Metrics.byID
}

// New creates an empty registry.
func New() *Metrics {
	return &Metrics{
		maxIntervals: defaultMaxIntervals,
		maxInstants:  defaultMaxInstants,
		methods:      map[string]*MethodProfile{},
		byID:         []*MethodProfile{nil},
		inFlight:     map[uint64]int64{},
		reqOpen:      map[int64]openReq{},
	}
}

// Install wires m into cfg as both the tracer and the metrics sink. Any
// previously configured tracer is replaced.
func (m *Metrics) Install(cfg *core.Config) {
	cfg.Tracer = m
	cfg.Metrics = m
}

func (m *Metrics) node(id int) *nodeProfile {
	for len(m.nodes) <= id {
		m.nodes = append(m.nodes, &nodeProfile{pending: map[*MethodProfile][]int64{}})
	}
	return m.nodes[id]
}

func (m *Metrics) method(name string) *MethodProfile {
	mp := m.methods[name]
	if mp == nil {
		mp = &MethodProfile{Name: name, id: uint32(len(m.byID))}
		m.methods[name] = mp
		m.byID = append(m.byID, mp)
	}
	return mp
}

// name returns the name of method id, "" for the runtime.
func (m *Metrics) name(id uint32) string {
	if id == 0 {
		return ""
	}
	return m.byID[id].Name
}

// profile returns the named method's profile through the node's one-entry
// cache: a node's consecutive charges and events mostly name one method.
func (m *Metrics) profile(np *nodeProfile, name string) *MethodProfile {
	if np.last == nil || np.last.Name != name {
		np.last = m.method(name)
	}
	return np.last
}

// truncate marks the run truncated and releases the logs that only the
// critical-path walker reads: walk returns Incomplete on a truncated run
// before it reads them.
func (m *Metrics) truncate() {
	if m.truncated {
		return
	}
	m.truncated = true
	m.inFlight = nil
	for _, np := range m.nodes {
		np.arrivals, np.lockBlocks = chunkLog[arrival]{}, chunkLog[int64]{}
	}
}

// sendKey packs a directed link and sequence number.
func sendKey(from, to int32, seq uint32) uint64 {
	return uint64(uint16(from))<<40 | uint64(uint16(to))<<24 | uint64(seq&0xFFFFFF)
}

// ObserveCharge implements core.MetricsSink: one call per clock advance.
func (m *Metrics) ObserveCharge(node int, start instr.Instr, method string, op uint8, cost int64) {
	np := m.node(node)
	s := int64(start)
	if np.end != s && m.err == nil {
		m.err = fmt.Errorf("obsv: node %d charge at %d is not contiguous with previous end %d",
			node, s, np.end)
	}
	np.end = s + cost
	np.total += cost
	var mp *MethodProfile
	var id uint32
	if method != "" {
		mp = m.profile(np, method)
		mp.Cycles += cost
		id = mp.id
	}
	if instr.Op(op) < instr.NumOps {
		np.ops[op] += cost
		if mp != nil {
			mp.ByOp[op] += cost
		}
	}
	if instr.Op(op) == instr.OpIdle {
		return
	}
	// Busy interval, coalesced with the previous one when contiguous and
	// same-method (heap bodies re-enter the runtime between charges, so
	// coalescing keeps the log roughly one entry per activation segment).
	if last := np.intervals.last(); last != nil && last.end() == s && last.method == id &&
		int64(last.dur)+cost <= math.MaxUint32 {
		last.dur += uint32(cost)
		return
	}
	// Otherwise open records of at most 2^32-1 cycles each.
	for end := s + cost; ; {
		if m.intervals >= m.maxIntervals {
			m.truncate()
			return
		}
		d := min(end-s, math.MaxUint32)
		np.intervals.add(interval{start: s, dur: uint32(d), method: id})
		m.intervals++
		if s += d; s == end {
			return
		}
	}
}

// Record implements core.Tracer.
func (m *Metrics) Record(node int, at instr.Instr, kind uint8, method string, aux int64) {
	k := trace.Kind(kind)
	if k < trace.NumKinds {
		m.kinds[k]++
	}
	np := m.node(node)
	t := int64(at)
	switch k {
	case trace.KInvoke:
		m.profile(np, method).Invokes++
	case trace.KStackCall:
		m.profile(np, method).StackCalls++
	case trace.KFallback:
		m.profile(np, method).Fallbacks++
	case trace.KCtxAlloc:
		m.profile(np, method).CtxAllocs++
	case trace.KWrapper:
		m.profile(np, method).Wrappers++
	case trace.KLockBlock:
		m.profile(np, method).LockBlocks++
		if !m.truncated {
			np.lockBlocks.add(t)
		}
	case trace.KSuspend:
		mp := m.profile(np, method)
		mp.Suspends++
		np.pending[mp] = append(np.pending[mp], t)
	case trace.KWake:
		mp := m.profile(np, method)
		mp.Wakes++
		if q := np.pending[mp]; len(q) > 0 {
			d := t - q[0]
			np.pending[mp] = q[1:]
			mp.SuspendSum += d
			mp.SuspendPairs++
			m.suspend.add(d)
		}
	case trace.KMsgSend:
		peer, seq, words := trace.UnpackMsg(aux)
		m.msgWords.add(int64(words))
		if !m.truncated {
			m.inFlight[sendKey(int32(node), int32(peer), seq)] = t
		}
	case trace.KMsgRecv:
		if m.truncated {
			return
		}
		// Match the receive to its send now and forget the send: each
		// transmission is received at most once (the reliable layer
		// suppresses duplicates before delivery).
		peer, seq, _ := trace.UnpackMsg(aux)
		key := sendKey(int32(peer), int32(node), seq)
		sendAt, sent := m.inFlight[key]
		delete(m.inFlight, key)
		np.arrivals.add(arrival{
			at: t, sendAt: sendAt, from: int32(peer), sent: sent, reply: method == ""})
	case trace.KReqArrive:
		m.reqOpen[aux] = openReq{node: int32(node), at: t}
	case trace.KReqDone:
		o, ok := m.reqOpen[aux]
		if !ok {
			return // done without arrive: ignore rather than invent a latency
		}
		delete(m.reqOpen, aux)
		m.reqLat.Add(t - o.at)
		if m.reqs.len() >= m.maxInstants {
			m.reqDropped++
			return
		}
		m.reqs.add(ReqRecord{ID: aux, Node: int32(node), Arrive: o.at, Done: t})
	case trace.KDrop, trace.KDupWire, trace.KDupSuppressed, trace.KRetransmit,
		trace.KStall, trace.KMigrateStart, trace.KMigrateArrive, trace.KForwardHop,
		trace.KHopLimit:
		if m.instants.len() >= m.maxInstants {
			m.truncate()
			return
		}
		m.instants.add(Instant{At: t, Node: int32(node), Kind: k, Method: method, Aux: aux})
	}
}

// Count returns the total occurrences of a trace kind.
func (m *Metrics) Count(k trace.Kind) int64 { return m.kinds[k] }

// Truncated reports whether a detail log hit its cap; aggregates are still
// exact, but the critical path and the exported trace are incomplete.
func (m *Metrics) Truncated() bool { return m.truncated }

// NumNodes returns the number of nodes observed.
func (m *Metrics) NumNodes() int { return len(m.nodes) }

// MaxClock returns the maximum attributed node clock — the parallel
// completion time of the run.
func (m *Metrics) MaxClock() int64 {
	var max int64
	for _, np := range m.nodes {
		if np.total > max {
			max = np.total
		}
	}
	return max
}

// TotalAttributed returns the machine-wide attributed cycles (the sum of
// all nodes' final clocks, idle included).
func (m *Metrics) TotalAttributed() int64 {
	var sum int64
	for _, np := range m.nodes {
		sum += np.total
	}
	return sum
}

// Methods returns the per-method profiles in first-seen order.
func (m *Metrics) Methods() []*MethodProfile {
	out := make([]*MethodProfile, 0, len(m.byID))
	for _, mp := range m.byID[1:] {
		if mp.Name != "" {
			out = append(out, mp)
		}
	}
	return out
}

// RequestLatencies returns the log-bucketed histogram over every completed
// serving request's latency. The histogram is exact (never truncated).
func (m *Metrics) RequestLatencies() *stats.LatencyHist { return &m.reqLat }

// Requests returns the retained per-request records in completion order.
// When more requests completed than the record cap, the excess beyond it
// is absent here (see RequestsDropped) but still counted in the histogram.
// The records are a copy.
func (m *Metrics) Requests() []ReqRecord { return slices.Concat(m.reqs.chunks...) }

// RequestsDropped returns how many completed requests exceeded the record
// cap. Their latencies are in RequestLatencies; only their identities and
// windows are gone.
func (m *Metrics) RequestsDropped() int64 { return m.reqDropped }

// TailRequests returns the retained requests whose latency reaches the
// q-quantile of all request latencies — the population to hand to
// PartitionRequest when explaining the tail.
func (m *Metrics) TailRequests(q float64) []ReqRecord {
	if m.reqLat.Count() == 0 {
		return nil
	}
	thr := m.reqLat.Quantile(q)
	var out []ReqRecord
	for _, c := range m.reqs.chunks {
		for _, r := range c {
			if r.Done-r.Arrive >= thr {
				out = append(out, r)
			}
		}
	}
	return out
}

// CheckAttribution verifies the accounting invariant: on every node the
// observed charges were contiguous from clock zero, so per-op attribution
// sums to the node's final virtual clock exactly. A non-nil error means a
// charge bypassed the observer — an accounting bug in the runtime.
func (m *Metrics) CheckAttribution() error {
	if m.err != nil {
		return m.err
	}
	for id, np := range m.nodes {
		if np.total != np.end {
			return fmt.Errorf("obsv: node %d attributed %d cycles but clock cursor is %d", id, np.total, np.end)
		}
		var byOp int64
		for _, c := range np.ops {
			byOp += c
		}
		if byOp != np.total {
			return fmt.Errorf("obsv: node %d per-op attribution %d != total %d", id, byOp, np.total)
		}
	}
	return nil
}

// summary is the count, sum and maximum of non-negative values.
type summary struct {
	count, sum, max int64
}

// add records v (negative values are clamped to zero).
func (h *summary) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// mean returns the average recorded value (0 when empty).
func (h *summary) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}
