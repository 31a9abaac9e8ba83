// Package mdforce implements the irregular kernel of the paper's Table 5:
// the nonbonded force computation phase of a molecular dynamics simulation.
// The computation iterates over atom pairs within a spatial cutoff radius;
// each pair updates the force fields of both atoms from their current
// coordinates. Data access is irregular because sharing is spatial.
//
// As in the paper, communication demand is reduced by locally caching the
// coordinates of remote atoms and combining force increments bound for the
// same remote atom. The hybrid model's three regimes appear exactly as
// Section 4.3.2 describes:
//
//   - both atoms local: the pair computation is speculatively inlined;
//   - partner remote but its coordinates cached: the computation is larger
//     but completes entirely on the stack;
//   - cache miss: communication is required and the stack invocation falls
//     back to the parallel version for latency tolerance. The fetch is a
//     forwarded chain (owner tail-forwards to a cache-fill on the
//     requester, whose ack determines the original continuation).
//
// Table 7's migration extension (RunCells) runs this same kernel with a
// different Plan: one chunk per spatial cluster (a cell) instead of one per
// node, several iterations, and a migration policy free to move chunks
// mid-run. Positions never change, so every iteration repeats the same
// communication graph: the steady-state traffic an adaptive policy can
// learn from. Cross-chunk pairs always take the fetch/cache/pending-increment
// path, even when both chunks share a node, so any placement and any
// migration history yields the same forces up to message-arrival summation
// order.
//
// The paper used a 10503-atom protein input from CEDAR; we substitute a
// synthetic clustered 3-D atom distribution with the same atom count (the
// layout comparison — uniform random versus orthogonal recursive bisection
// — is the experimental variable, and it is preserved).
package mdforce

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/sim"
)

// pairWork is the useful work of one pair-force evaluation.
const pairWork instr.Instr = 60

// cacheWork is the bookkeeping cost of a cache lookup/insert.
const cacheWork instr.Instr = 8

// Pair is one cutoff pair, stored on the chunk that owns atom I.
type Pair struct {
	I       int // local atom index within the owning chunk
	JChunk  core.Ref
	JIdx    int  // index within JChunk
	JGlobal int  // global atom id (cache key)
	JLocal  bool // atom J is in the same chunk
}

// Chunk is the kernel's object: a group of atoms, their pair list, the
// remote coordinate cache, and the combined pending force increments.
// Table 5 puts one chunk on each node; Table 7 (RunCells) makes each
// spatial cluster a chunk, which a migration policy may move mid-run.
type Chunk struct {
	Self    core.Ref
	Pos     [][3]float64
	Force   [][3]float64
	Global  []int // local index -> global atom id
	Pairs   []Pair
	Cache   map[int][3]float64
	Pending map[int]*pendingForce // global id -> combined increment

	flushCache []*pendingForce
}

// MigrateWords models the chunk's serialized size: positions and forces
// (6 words per atom), the pair list (5 words per pair), and a header. This
// is what a migration message is charged for.
func (c *Chunk) MigrateWords() int { return 2 + 6*len(c.Pos) + 5*len(c.Pairs) }

type pendingForce struct {
	chunk core.Ref
	idx   int
	f     [3]float64
}

// Coord is the coordinator object driving the phases.
type Coord struct {
	Chunks []core.Ref
	Iters  int
}

// Methods bundles the MD-Force program.
type Methods struct {
	Prog *core.Program
	Main *core.Method

	pairForce   *core.Method
	fetchCoords *core.Method
	fillCache   *core.Method
	addForce    *core.Method
	chunkReset  *core.Method
	chunkPairs  *core.Method
	chunkFlush  *core.Method
}

// Build registers the MD-Force methods.
func Build() *Methods {
	p := core.NewProgram()
	m := &Methods{Prog: p}

	// fillCache(gid, x, y, z): store fetched coordinates in the requester's
	// cache; the ack reply determines the original fetch continuation.
	m.fillCache = &core.Method{Name: "md.fillCache", NArgs: 4}
	m.fillCache.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		c.Cache[int(fr.Arg(0).Int())] = [3]float64{fr.Arg(1).Float(), fr.Arg(2).Float(), fr.Arg(3).Float()}
		rt.Work(fr, cacheWork)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(m.fillCache)

	// fetchCoords(idx, gid, requester): the atom owner forwards its reply
	// obligation to a cache fill on the requesting chunk — a single
	// continuation travels owner -> requester, and the fill's ack goes
	// straight back to the suspended pair computation. Forwarding is not a
	// capture: the obligation flows through the Forwards edge, and since
	// fillCache never captures, fetchCoords stays NB.
	m.fetchCoords = &core.Method{Name: "md.fetchCoords", NArgs: 3,
		Forwards: []*core.Method{m.fillCache}}
	m.fetchCoords.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		idx := int(fr.Arg(0).Int())
		pos := c.Pos[idx]
		return rt.ForwardTail(fr, m.fillCache, fr.Arg(2).Ref(),
			fr.Arg(1), core.FloatW(pos[0]), core.FloatW(pos[1]), core.FloatW(pos[2]))
	}
	p.Add(m.fetchCoords)

	// addForce(idx, fx, fy, fz): apply a combined remote force increment.
	m.addForce = &core.Method{Name: "md.addForce", NArgs: 4}
	m.addForce.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		idx := int(fr.Arg(0).Int())
		c.Force[idx][0] += fr.Arg(1).Float()
		c.Force[idx][1] += fr.Arg(2).Float()
		c.Force[idx][2] += fr.Arg(3).Float()
		rt.Work(fr, cacheWork)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(m.addForce)

	// pairForce(pairIdx): evaluate one cutoff pair. Future slot 0 receives
	// the fetch ack on a cache miss. A pair across chunks always takes the
	// fetch/cache/pending path, even when both chunks share a node, so the
	// arithmetic does not depend on where the chunks live.
	m.pairForce = &core.Method{Name: "md.pairForce", NArgs: 1, NFutures: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.fetchCoords}}
	m.pairForce.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		pr := &c.Pairs[fr.Arg(0).Int()]
		switch fr.PC {
		case 0:
			if pr.JLocal {
				// Both atoms local: small computation, speculatively inlined.
				f := force(c.Pos[pr.I], c.Pos[pr.JIdx])
				for d := 0; d < 3; d++ {
					c.Force[pr.I][d] += f[d]
					c.Force[pr.JIdx][d] -= f[d]
				}
				rt.Work(fr, pairWork)
				rt.Reply(fr, 0)
				return core.Done
			}
			rt.Work(fr, cacheWork)
			if _, ok := c.Cache[pr.JGlobal]; ok {
				fr.PC = 2
				return m.pairForce.Body(rt, fr)
			}
			// Cache miss: fetch the remote coordinates.
			st := rt.Invoke(fr, m.fetchCoords, pr.JChunk, 0,
				core.IntW(int64(pr.JIdx)), core.IntW(int64(pr.JGlobal)), core.RefW(c.Self))
			fr.PC = 1
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, core.Mask(0)) {
				return core.Unwound
			}
			fr.PC = 2
			fallthrough
		case 2:
			// Remote partner with cached coordinates: larger computation,
			// completes on the stack.
			jp := c.Cache[pr.JGlobal]
			f := force(c.Pos[pr.I], jp)
			for d := 0; d < 3; d++ {
				c.Force[pr.I][d] += f[d]
			}
			pf := c.Pending[pr.JGlobal]
			if pf == nil {
				pf = &pendingForce{chunk: pr.JChunk, idx: pr.JIdx}
				c.Pending[pr.JGlobal] = pf
			}
			for d := 0; d < 3; d++ {
				pf.f[d] -= f[d]
			}
			rt.Work(fr, pairWork+cacheWork)
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("md.pairForce: bad pc")
	}
	p.Add(m.pairForce)

	// chunkReset: clear the per-iteration cache and pending tables.
	m.chunkReset = &core.Method{Name: "md.chunkReset"}
	m.chunkReset.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		c.Cache = map[int][3]float64{}
		c.Pending = map[int]*pendingForce{}
		c.flushCache = nil
		rt.Work(fr, cacheWork)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(m.chunkReset)

	// chunkPairs: evaluate every owned pair, join.
	m.chunkPairs = &core.Method{Name: "md.chunkPairs", NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.pairForce}}
	m.chunkPairs.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(c.Pairs) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				st := rt.Invoke(fr, m.pairForce, fr.Self, core.JoinDiscard, core.IntW(int64(i)))
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("md.chunkPairs: bad pc")
	}
	p.Add(m.chunkPairs)

	// chunkFlush: deliver the combined force increments, one message per
	// remote atom touched, join the acks.
	m.chunkFlush = &core.Method{Name: "md.chunkFlush", NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.addForce}}
	m.chunkFlush.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(c.flushList()) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				pf := c.flushList()[i]
				st := rt.Invoke(fr, m.addForce, pf.chunk, core.JoinDiscard,
					core.IntW(int64(pf.idx)),
					core.FloatW(pf.f[0]), core.FloatW(pf.f[1]), core.FloatW(pf.f[2]))
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("md.chunkFlush: bad pc")
	}
	p.Add(m.chunkFlush)

	// main: Iters times, the pair phase then the flush phase, each a join
	// barrier across all chunks. A run of several iterations opens every
	// iteration, the first included, with a reset phase clearing each
	// chunk's coordinate cache and pending increments, so every iteration
	// repeats the same traffic; a single iteration starts from empty tables
	// and needs none.
	main := &core.Method{Name: "md.main", NLocals: 2,
		MayBlockLocal: true, Calls: []*core.Method{m.chunkReset, m.chunkPairs, m.chunkFlush}}
	main.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Coord)
		// Phase 0 is reset, 1 pairs, 2 flush; a single iteration starts
		// at phase 1.
		first := 0
		if c.Iters == 1 {
			first = 1
		}
		perIter := 3 - first
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				step := int(fr.Local(1).Int())
				if step >= c.Iters*perIter {
					rt.Reply(fr, 0)
					return core.Done
				}
				var meth *core.Method
				switch first + step%perIter {
				case 0:
					meth = m.chunkReset
				case 1:
					meth = m.chunkPairs
				case 2:
					meth = m.chunkFlush
				}
				for {
					i := int(fr.Local(0).Int())
					if i >= len(c.Chunks) {
						break
					}
					fr.SetLocal(0, core.IntW(int64(i+1)))
					st := rt.Invoke(fr, meth, c.Chunks[i], core.JoinDiscard)
					if st == core.NeedUnwind {
						return rt.Unwind(fr)
					}
				}
				if !rt.TouchJoin(fr) {
					return core.Unwound
				}
				fr.SetLocal(0, 0)
				fr.SetLocal(1, core.IntW(int64(step+1)))
			}
		}
		panic("md.main: bad pc")
	}
	p.Add(main)
	m.Main = main
	return m
}

// flushList returns the pending increments in deterministic (global id)
// order, built lazily once per flush.
func (c *Chunk) flushList() []*pendingForce {
	if c.flushCache != nil {
		return c.flushCache
	}
	keys := make([]int, 0, len(c.Pending))
	for k := range c.Pending {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]*pendingForce, len(keys))
	for i, k := range keys {
		out[i] = c.Pending[k]
	}
	c.flushCache = out
	return out
}

// force is the simple bounded pair force used for verification: a smooth
// repulsive kernel along the separation vector.
func force(a, b [3]float64) [3]float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	r2 := dx*dx + dy*dy + dz*dz
	s := 1.0 / (r2 + 0.25)
	return [3]float64{s * dx, s * dy, s * dz}
}

// Params configures one MD-Force run.
type Params struct {
	Atoms    int
	Clusters int
	Box      float64
	Cutoff   float64
	Nodes    int
	// Scatter is the fraction of atoms placed uniformly in the box rather
	// than inside a cluster — solvent-like stragglers whose pairs cross
	// node boundaries even under the spatial layout.
	Scatter float64
	Spatial bool // true: ORB layout; false: uniform random
	Seed    int64
}

// DefaultParams matches the paper's problem: 10503 atoms, one iteration, 64
// nodes, with a cutoff giving a protein-like pair density.
func DefaultParams() Params {
	return Params{Atoms: 10503, Clusters: 128, Box: 96, Cutoff: 2.4, Nodes: 64, Scatter: 0.1, Seed: 1995}
}

// Instance is a generated problem: positions and the cutoff pair list.
type Instance struct {
	Params  Params
	Pos     []layout.Point3
	Cluster []int // atom -> cluster id
	Centers []layout.Point3
	Pairs   [][2]int // global index pairs, i < j
}

// Generate builds a clustered synthetic atom set and its cutoff pair list
// (via spatial binning).
func Generate(pr Params) *Instance {
	rng := rand.New(rand.NewSource(pr.Seed))
	pos := make([]layout.Point3, pr.Atoms)
	// Cluster centers on a jittered lattice, then Gaussian scatter around
	// them: protein-like clumping (so ORB has locality to find) with
	// near-uniform cluster spacing (so the per-node pair load is balanced,
	// as the paper's production pair lists were).
	side := 1
	for side*side*side < pr.Clusters {
		side++
	}
	cell := pr.Box / float64(side)
	centers := make([]layout.Point3, pr.Clusters)
	for i := range centers {
		cx, cy, cz := i%side, (i/side)%side, i/(side*side)
		centers[i] = layout.Point3{
			X: (float64(cx)+0.5)*cell + rng.NormFloat64()*cell*0.05,
			Y: (float64(cy)+0.5)*cell + rng.NormFloat64()*cell*0.05,
			Z: (float64(cz)+0.5)*cell + rng.NormFloat64()*cell*0.05,
		}
	}
	cluster := make([]int, pr.Atoms)
	for i := range pos {
		cluster[i] = i % pr.Clusters
		if rng.Float64() < pr.Scatter {
			// A solvent-like straggler: uniform position, but ownership
			// still follows its nominal cluster.
			pos[i] = layout.Point3{
				X: rng.Float64() * pr.Box,
				Y: rng.Float64() * pr.Box,
				Z: rng.Float64() * pr.Box,
			}
			continue
		}
		c := centers[cluster[i]]
		pos[i] = layout.Point3{
			X: clamp(c.X+rng.NormFloat64()*1.3, pr.Box),
			Y: clamp(c.Y+rng.NormFloat64()*1.3, pr.Box),
			Z: clamp(c.Z+rng.NormFloat64()*1.3, pr.Box),
		}
	}
	return &Instance{
		Params:  pr,
		Pos:     pos,
		Cluster: cluster,
		Centers: centers,
		Pairs:   cutoffPairs(pos, pr.Box, pr.Cutoff),
	}
}

func clamp(v, box float64) float64 {
	if v < 0 {
		return 0
	}
	if v > box {
		return box
	}
	return v
}

// cutoffPairs builds the pair list with cell binning: O(atoms * density).
func cutoffPairs(pos []layout.Point3, box, cutoff float64) [][2]int {
	cells := int(box / cutoff)
	if cells < 1 {
		cells = 1
	}
	cw := box / float64(cells)
	bin := func(p layout.Point3) (int, int, int) {
		cx, cy, cz := int(p.X/cw), int(p.Y/cw), int(p.Z/cw)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		if cz >= cells {
			cz = cells - 1
		}
		return cx, cy, cz
	}
	grid := make(map[[3]int][]int)
	for i, p := range pos {
		cx, cy, cz := bin(p)
		grid[[3]int{cx, cy, cz}] = append(grid[[3]int{cx, cy, cz}], i)
	}
	cut2 := cutoff * cutoff
	var pairs [][2]int
	for i, p := range pos {
		cx, cy, cz := bin(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range grid[[3]int{cx + dx, cy + dy, cz + dz}] {
						if j <= i {
							continue
						}
						q := pos[j]
						ddx, ddy, ddz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
						if ddx*ddx+ddy*ddy+ddz*ddz <= cut2 {
							pairs = append(pairs, [2]int{i, j})
						}
					}
				}
			}
		}
	}
	return pairs
}

// Result is one MD-Force execution's measurements.
type Result struct {
	Seconds       float64
	LocalFraction float64
	Stats         core.NodeStats
	Counters      instr.Counters
	Messages      int64
	Forces        [][3]float64 // by global atom id
	PairCount     int
}

// Assignment returns the atom placement inst would use under its Spatial
// flag: either ORB over the cluster centers (whole clusters follow their
// center's node, so spatially proximate atoms are grouped without slicing
// tight clusters apart) or uniform random.
func Assignment(inst *Instance, spatial bool) []int {
	pr := inst.Params
	if spatial {
		centerAssign := layout.ORB(inst.Centers, pr.Nodes)
		assign := make([]int, len(inst.Pos))
		for i, c := range inst.Cluster {
			assign[i] = centerAssign[c]
		}
		return assign
	}
	return layout.Random(len(inst.Pos), pr.Nodes, pr.Seed+7)
}

// Run executes the kernel over inst under cfg on the given machine, using
// the layout selected by inst's Spatial flag.
func Run(mdl *machine.Model, cfg core.Config, inst *Instance) Result {
	return RunWithAssign(mdl, cfg, inst, Assignment(inst, inst.Params.Spatial))
}

// RunWithAssign executes the kernel with an explicit atom placement — the
// hook automatic layout selection (layout.AutoSelect) probes through. Node
// n's chunk holds the atoms assign puts on n.
func RunWithAssign(mdl *machine.Model, cfg core.Config, inst *Instance, assign []int) Result {
	home := make([]int, inst.Params.Nodes)
	for n := range home {
		home[n] = n
	}
	return RunPlan(mdl, cfg, inst, Plan{Owner: assign, Home: home, Iters: 1})
}

// Plan lays a run out: Owner maps each atom to the chunk holding it, Home
// maps each chunk to the node it starts on, and Iters counts the force
// evaluations (each iteration adds every pair's forces once more).
type Plan struct {
	Owner []int
	Home  []int
	Iters int
}

// RunPlan executes the kernel laid out by pl under cfg (whose Migration
// field may move chunks mid-run). It returns the measurements, with forces
// read back from wherever each chunk ended up.
func RunPlan(mdl *machine.Model, cfg core.Config, inst *Instance, pl Plan) Result {
	m := Build()
	if err := m.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(inst.Params.Nodes)
	rt := core.NewRT(eng, mdl, m.Prog, cfg)

	chunks := make([]*Chunk, len(pl.Home))
	chunkRefs := make([]core.Ref, len(pl.Home))
	for ci, node := range pl.Home {
		chunks[ci] = &Chunk{Cache: map[int][3]float64{}, Pending: map[int]*pendingForce{}}
		chunkRefs[ci] = rt.Node(node).NewObject(chunks[ci])
		chunks[ci].Self = chunkRefs[ci]
	}
	localIdx := make([]int, len(inst.Pos))
	for gid, p := range inst.Pos {
		c := chunks[pl.Owner[gid]]
		localIdx[gid] = len(c.Pos)
		c.Pos = append(c.Pos, [3]float64{p.X, p.Y, p.Z})
		c.Force = append(c.Force, [3]float64{})
		c.Global = append(c.Global, gid)
	}
	for _, pair := range inst.Pairs {
		i, j := pair[0], pair[1]
		ci, cj := pl.Owner[i], pl.Owner[j]
		chunks[ci].Pairs = append(chunks[ci].Pairs, Pair{
			I:       localIdx[i],
			JChunk:  chunkRefs[cj],
			JIdx:    localIdx[j],
			JGlobal: j,
			JLocal:  ci == cj,
		})
	}
	coord := &Coord{Chunks: chunkRefs, Iters: pl.Iters}
	coordRef := rt.Node(0).NewObject(coord)

	var res core.Result
	rt.StartOn(0, m.Main, coordRef, &res)
	rt.Run()
	if !res.Done {
		panic("mdforce: did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		panic(err)
	}

	forces := make([][3]float64, len(inst.Pos))
	for _, c := range chunks {
		for li, gid := range c.Global {
			forces[gid] = c.Force[li]
		}
	}
	st := rt.TotalStats()
	return Result{
		Seconds:       mdl.Seconds(eng.MaxClock()),
		Counters:      eng.TotalCounters(),
		LocalFraction: float64(st.LocalInvokes) / float64(st.LocalInvokes+st.RemoteInvokes),
		Stats:         st,
		Messages:      eng.TotalMessages(),
		Forces:        forces,
		PairCount:     len(inst.Pairs),
	}
}

// DefaultCellParams is Table 7's instance. It packs the clusters tightly
// (lattice spacing comparable to the cluster diameter) so cluster
// peripheries interact across the cutoff: the communication graph has
// strong spatial affinity for ORB — and for an adaptive policy — to
// exploit, while random placement makes most cross-cell traffic remote.
func DefaultCellParams() Params {
	return Params{Atoms: 4000, Clusters: 64, Box: 24, Cutoff: 2.4, Nodes: 16, Scatter: 0.05, Seed: 1995}
}

// CellAssignment places cells (clusters) on nodes: ORB over the cluster
// centers (the informed static layout) or uniformly at random (the
// uninformed one an adaptive policy must repair).
func CellAssignment(inst *Instance, spatial bool) []int {
	if spatial {
		return layout.ORB(inst.Centers, inst.Params.Nodes)
	}
	return layout.Random(len(inst.Centers), inst.Params.Nodes, inst.Params.Seed+13)
}

// RunCells executes iters iterations of the kernel over inst, one chunk per
// cell starting on cellAssign's node, under cfg (whose Migration field
// selects the policy, nil for static).
func RunCells(mdl *machine.Model, cfg core.Config, inst *Instance, iters int, cellAssign []int) Result {
	return RunPlan(mdl, cfg, inst, Plan{Owner: inst.Cluster, Home: cellAssign, Iters: iters})
}

// Native computes the same forces in plain Go (pair order = instance
// order), repeating the per-iteration increments iters times exactly as the
// simulated kernel does. Summation order differs from the distributed
// execution, so comparisons use a small tolerance.
func Native(inst *Instance, iters int) [][3]float64 {
	forces := make([][3]float64, len(inst.Pos))
	pos := make([][3]float64, len(inst.Pos))
	for i, p := range inst.Pos {
		pos[i] = [3]float64{p.X, p.Y, p.Z}
	}
	for it := 0; it < iters; it++ {
		for _, pr := range inst.Pairs {
			f := force(pos[pr[0]], pos[pr[1]])
			for d := 0; d < 3; d++ {
				forces[pr[0]][d] += f[d]
				forces[pr[1]][d] -= f[d]
			}
		}
	}
	return forces
}

// MaxRelError returns the maximum relative force error between two force
// sets (with an absolute floor to avoid dividing by tiny magnitudes).
func MaxRelError(a, b [][3]float64) float64 {
	var worst float64
	for i := range a {
		for d := 0; d < 3; d++ {
			diff := math.Abs(a[i][d] - b[i][d])
			mag := math.Max(math.Abs(a[i][d]), math.Abs(b[i][d]))
			rel := diff / math.Max(mag, 1e-6)
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst
}
