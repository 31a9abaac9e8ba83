package machine

import "repro/internal/instr"

// Network is an optional topology model. The default (no Network installed)
// is the flat model the paper's tables use: every message pays
// NetLatency + NetPerWord*words regardless of which pair of nodes exchanges
// it. A Network instead computes the latency of each physical transmission
// from the endpoint pair, the payload size, and the departure time — which
// lets it model distance (hop count) and link contention.
//
// Delay is called once per physical transmission (originals, retransmissions
// and acks alike), in deterministic simulation order, and may mutate
// internal link state (busy-until reservations): an implementation is
// single-run state and must not be shared between concurrent simulations.
type Network interface {
	// Delay returns the network latency, in instructions, for a
	// words-word payload departing src toward dst at time depart.
	Delay(src, dst, words int, depart instr.Instr) instr.Instr

	// MinDelay returns a static positive lower bound on Delay over every
	// (src, dst, words, depart): the cheapest transmission the topology can
	// produce. The parallel engine uses it as the conservative lookahead —
	// no message can cross shards in less virtual time — so the bound must
	// hold unconditionally, not just for typical traffic.
	MinDelay() instr.Instr
}

// FatTree models a folded-Clos (fat-tree) interconnect of the given radix:
// nodes are leaves, switches above them in ceil(log_radix(nodes)) levels.
// A message climbs to the lowest common ancestor of source and destination
// and back down, paying a per-switch hop latency plus a one-time per-word
// serialization (wormhole routing: payload words stream behind the header,
// so serialization is not multiplied by distance).
//
// Contention is charged per aggregated link. Each subtree at each level has
// one up-link toward its parent and one down-link from it, each carrying
// words*NetPerWord of occupancy per message crossing it. A link holds a
// deterministic busy-until horizon; a message arriving at a busy link waits
// out the horizon before occupying it. Horizons only ever advance from
// simulated transmissions processed in event order, so runs remain
// deterministic.
//
// Costs derive from the Model: the flat NetLatency is interpreted as the
// cost of an average-distance route, so hopLat = NetLatency/4 makes a
// three-switch route (nearby traffic, lca level 2) cost 3/4 of the flat
// latency while a full-height route at 4096 nodes costs more — locality in
// placement now shows up in transport time, not only in message counts.
type FatTree struct {
	radix   int
	hopLat  instr.Instr
	perWord instr.Instr
	// up[l][g] / down[l][g]: busy-until horizon of the up-link out of (and
	// the down-link into) subtree g at level l. Level 0 (a single node) has
	// no aggregated link; index 0 is unused padding so up[l] aligns with l.
	up, down [][]instr.Instr

	// Contention counters, for reporting: messages that waited, and the
	// total instructions of waiting charged.
	Waits     int64
	WaitInstr int64
}

// DefaultRadix is the switch radix used when none is specified: 8-port
// switches reach 4096 nodes in four levels.
const DefaultRadix = 8

// NewFatTree builds a fat-tree network for the given node count with
// per-hop and per-word costs derived from the model m. radix <= 1 selects
// DefaultRadix.
func NewFatTree(nodes, radix int, m *Model) *FatTree {
	if radix <= 1 {
		radix = DefaultRadix
	}
	levels := 0
	for span := 1; span < nodes; span *= radix {
		levels++
	}
	if levels == 0 {
		levels = 1 // degenerate 1-node machine: one switch, no links
	}
	hop := m.NetLatency / 4
	if hop < 1 {
		hop = 1
	}
	ft := &FatTree{
		radix:   radix,
		hopLat:  hop,
		perWord: m.NetPerWord,
		up:      make([][]instr.Instr, levels),
		down:    make([][]instr.Instr, levels),
	}
	span := 1
	for l := 1; l < levels; l++ {
		span *= radix
		groups := (nodes + span - 1) / span
		ft.up[l] = make([]instr.Instr, groups)
		ft.down[l] = make([]instr.Instr, groups)
	}
	return ft
}

// MinDelay implements Network: every route crosses at least one switch
// (even src == dst pays one hop), and contention and per-word serialization
// only add to that.
func (ft *FatTree) MinDelay() instr.Instr { return ft.hopLat }

// Delay implements Network.
func (ft *FatTree) Delay(src, dst, words int, depart instr.Instr) instr.Instr {
	if src == dst {
		return ft.hopLat + ft.perWord*instr.Instr(words)
	}
	// lca: the lowest level at which src and dst share a subtree.
	lca, s, d := 1, src/ft.radix, dst/ft.radix
	for s != d {
		lca++
		s /= ft.radix
		d /= ft.radix
	}
	occ := ft.perWord * instr.Instr(words)
	t := depart
	// Climb: the up-link out of src's subtree at levels 1..lca-1, then
	// descend: the down-link into dst's subtree at levels lca-1..1. Each
	// switch on the route (2*lca-1 of them) adds a hop; each aggregated
	// link reserves occ of bandwidth at the time the header crosses it.
	g := src
	for l := 1; l < lca; l++ {
		g /= ft.radix
		t = ft.cross(&ft.up[l][g], t, occ)
	}
	t += ft.hopLat // the lca switch itself
	div := 1
	for l := 1; l < lca; l++ {
		div *= ft.radix
	}
	for l := lca - 1; l >= 1; l-- {
		div /= ft.radix
		t = ft.cross(&ft.down[l][dst/(div*ft.radix)], t, occ)
	}
	return t - depart + occ
}

// cross charges one aggregated link: wait out its busy horizon, reserve occ
// behind the header, and pay the switch hop.
func (ft *FatTree) cross(busy *instr.Instr, t, occ instr.Instr) instr.Instr {
	if *busy > t {
		ft.Waits++
		ft.WaitInstr += int64(*busy - t)
		t = *busy
	}
	*busy = t + occ
	return t + ft.hopLat
}

// Hops returns the number of switch hops between src and dst (diagnostics
// and tests).
func (ft *FatTree) Hops(src, dst int) int {
	if src == dst {
		return 1
	}
	lca, s, d := 1, src/ft.radix, dst/ft.radix
	for s != d {
		lca++
		s /= ft.radix
		d /= ft.radix
	}
	return 2*lca - 1
}
