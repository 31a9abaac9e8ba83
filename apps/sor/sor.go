// Package sor implements the regular parallel kernel of the paper's
// Table 4: successive over-relaxation on a square grid with a 5-point
// stencil, structured as two half-iterations (compute new values, then
// update) over fine-grained grid-point objects.
//
// Each grid point is an object; its compute method invokes get() on its
// four neighbors and touches the four futures at once. Under a block-cyclic
// layout, interior points of a block have all-local neighbors and — under
// the hybrid model — execute entirely on the stack; only the block
// perimeter creates heap contexts (the paper's Figure 9). The parallel-only
// baseline creates a heap context per grid element per half-iteration.
package sor

import (
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/sim"
)

// stencilWork is the useful work of one stencil evaluation, in virtual
// instructions (floating-point adds/multiplies plus addressing on the
// modeled 33 MHz SPARC). Its ratio to invocation overhead bounds the
// achievable hybrid speedup, as the paper's Section 4.3.1 discusses.
const stencilWork instr.Instr = 100

// updateWork is the useful work of the update half-iteration per point.
const updateWork instr.Instr = 10

// omega is the over-relaxation factor.
const omega = 0.9

// Elem is one grid-point object.
type Elem struct {
	V, NewV float64
	// Neighbors in fixed order N, S, W, E; NilRef at the grid boundary.
	Nbr [4]core.Ref
}

// Chunk is the per-node driver object: the grid points this node owns.
type Chunk struct {
	Elems []core.Ref
}

// Coord is the coordinator object on node 0.
type Coord struct {
	Chunks []core.Ref
}

// Methods bundles the SOR program.
type Methods struct {
	Prog                      *core.Program
	Get, Compute, Update      *core.Method
	ChunkCompute, ChunkUpdate *core.Method
	Main                      *core.Method
}

// Build registers the SOR methods.
func Build() *Methods {
	p := core.NewProgram()
	m := &Methods{Prog: p}

	get := &core.Method{Name: "sor.get"}
	get.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		rt.Reply(fr, core.FloatW(fr.Node.State(fr.Self).(*Elem).V))
		return core.Done
	}
	p.Add(get)
	m.Get = get

	// compute: gather up to four neighbor values, evaluate the stencil into
	// NewV. Local 0 tracks the next neighbor to request (for resume).
	compute := &core.Method{Name: "sor.compute", NLocals: 1, NFutures: 4,
		MayBlockLocal: true, Calls: []*core.Method{get}}
	compute.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		e := fr.Node.State(fr.Self).(*Elem)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= 4 {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				if e.Nbr[i].IsNil() {
					continue
				}
				st := rt.Invoke(fr, m.Get, e.Nbr[i], i)
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			mask := uint64(0)
			for i := 0; i < 4; i++ {
				if !e.Nbr[i].IsNil() {
					mask |= 1 << uint(i)
				}
			}
			if mask != 0 && !rt.TouchAll(fr, mask) {
				return core.Unwound
			}
			var sum float64
			for i := 0; i < 4; i++ {
				if !e.Nbr[i].IsNil() {
					sum += fr.Fut(i).Float()
				}
			}
			e.NewV = (1-omega)*e.V + omega*0.25*sum
			rt.Work(fr, stencilWork)
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("sor.compute: bad pc")
	}
	p.Add(compute)
	m.Compute = compute

	update := &core.Method{Name: "sor.update"}
	update.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		e := fr.Node.State(fr.Self).(*Elem)
		e.V = e.NewV
		rt.Work(fr, updateWork)
		rt.Reply(fr, 0)
		return core.Done
	}
	p.Add(update)
	m.Update = update

	m.ChunkCompute = buildChunkLoop(p, "sor.chunkCompute", func() *core.Method { return m.Compute })
	m.ChunkUpdate = buildChunkLoop(p, "sor.chunkUpdate", func() *core.Method { return m.Update })

	// main: for each iteration, run the compute half-iteration on every
	// chunk, join, then the update half-iteration, join.
	// Locals: 0 = remaining iterations, 1 = phase (0 compute / 1 update),
	// 2 = next chunk index.
	main := &core.Method{Name: "sor.main", NArgs: 1, NLocals: 3,
		MayBlockLocal: true, Calls: []*core.Method{m.ChunkCompute, m.ChunkUpdate}}
	main.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Coord)
		switch fr.PC {
		case 0:
			fr.SetLocal(0, fr.Arg(0)) // iterations remaining
			fr.PC = 1
			fallthrough
		case 1:
			for {
				if fr.Local(0).Int() == 0 {
					rt.Reply(fr, 0)
					return core.Done
				}
				phase := fr.Local(1).Int()
				meth := m.ChunkCompute
				if phase == 1 {
					meth = m.ChunkUpdate
				}
				for {
					i := int(fr.Local(2).Int())
					if i >= len(c.Chunks) {
						break
					}
					fr.SetLocal(2, core.IntW(int64(i+1)))
					st := rt.Invoke(fr, meth, c.Chunks[i], core.JoinDiscard)
					if st == core.NeedUnwind {
						return rt.Unwind(fr)
					}
				}
				if !rt.TouchJoin(fr) {
					return core.Unwound
				}
				fr.SetLocal(2, 0)
				if phase == 0 {
					fr.SetLocal(1, core.IntW(1))
				} else {
					fr.SetLocal(1, 0)
					fr.SetLocal(0, core.IntW(fr.Local(0).Int()-1))
				}
			}
		}
		panic("sor.main: bad pc")
	}
	p.Add(main)
	m.Main = main
	return m
}

// buildChunkLoop registers a per-node driver method that invokes elem()
// on every owned grid point and joins. Local 0 is the next element index.
func buildChunkLoop(p *core.Program, name string, elem func() *core.Method) *core.Method {
	ch := &core.Method{Name: name, NLocals: 1, MayBlockLocal: true}
	ch.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		c := fr.Node.State(fr.Self).(*Chunk)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(c.Elems) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				st := rt.Invoke(fr, elem(), c.Elems[i], core.JoinDiscard)
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
		panic(name + ": bad pc")
	}
	p.Add(ch)
	// The driver loop calls whichever element method it is built over; edges
	// are attached by Build's caller order (elem() is registered already).
	ch.Calls = []*core.Method{elem()}
	return ch
}

// Params configures one SOR run.
type Params struct {
	G     int // grid is G x G
	P     int // processor grid is P x P (nodes = P*P)
	B     int // block-cyclic block size
	Iters int // full iterations (each = two half-iterations)
}

// Result is one SOR execution's measurements.
type Result struct {
	Seconds       float64
	LocalFraction float64 // measured local / (local+remote) invocations
	Stats         core.NodeStats
	Counters      instr.Counters
	Messages      int64
	Checksum      float64 // sum of final grid values
}

// Run builds the grid under the block-cyclic layout, runs iters iterations
// under cfg on the given machine model, and reports time and locality.
func Run(mdl *machine.Model, cfg core.Config, pr Params) Result {
	m := Build()
	if err := m.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(pr.P * pr.P)
	rt := core.NewRT(eng, mdl, m.Prog, cfg)
	g := NewGrid(rt, pr)

	var res core.Result
	rt.StartOn(0, m.Main, g.Coord, &res, core.IntW(int64(pr.Iters)))
	rt.Run()
	if !res.Done {
		panic("sor: did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		panic(err)
	}

	st := rt.TotalStats()
	var sum float64
	for _, row := range g.Elems {
		for _, e := range row {
			sum += e.V
		}
	}
	return Result{
		Seconds:       mdl.Seconds(eng.MaxClock()),
		LocalFraction: float64(st.LocalInvokes) / float64(st.LocalInvokes+st.RemoteInvokes),
		Stats:         st,
		Counters:      eng.TotalCounters(),
		Messages:      eng.TotalMessages(),
		Checksum:      sum,
	}
}

// Grid is a SOR grid laid out on a runtime's nodes: the coordinator object
// sor.main runs on, plus every grid point's ref and state, indexed [i][j],
// so callers can read results or map a ref back to its grid position.
type Grid struct {
	Coord core.Ref
	Refs  [][]core.Ref
	Elems [][]*Elem
}

// NewGrid builds the pr.G x pr.G grid on rt's pr.P x pr.P nodes under the
// block-cyclic layout of block size pr.B: one object per grid point on its
// owning node, linked to its four neighbors, one chunk driver per node, and
// the coordinator on node 0. pr.Iters is not used.
func NewGrid(rt *core.RT, pr Params) *Grid {
	nodes := pr.P * pr.P
	dist := layout.BlockCyclic{G: pr.G, P: pr.P, B: pr.B}
	g := &Grid{Refs: make([][]core.Ref, pr.G), Elems: make([][]*Elem, pr.G)}
	chunks := make([]*Chunk, nodes)
	for n := range chunks {
		chunks[n] = &Chunk{}
	}
	// Every grid point is carved out of one pointer-free array: a
	// million-point grid is one allocation the garbage collector never
	// scans, not a million small ones.
	elems := make([]Elem, pr.G*pr.G)
	for i := 0; i < pr.G; i++ {
		g.Refs[i] = make([]core.Ref, pr.G)
		g.Elems[i] = make([]*Elem, pr.G)
		for j := 0; j < pr.G; j++ {
			node := dist.Node(i, j)
			e := &elems[i*pr.G+j]
			e.V = initValue(i, j)
			g.Elems[i][j] = e
			g.Refs[i][j] = rt.Node(node).NewObject(e)
			chunks[node].Elems = append(chunks[node].Elems, g.Refs[i][j])
		}
	}
	for i := 0; i < pr.G; i++ {
		for j := 0; j < pr.G; j++ {
			e := g.Elems[i][j]
			e.Nbr[0] = at(g.Refs, i-1, j, pr.G)
			e.Nbr[1] = at(g.Refs, i+1, j, pr.G)
			e.Nbr[2] = at(g.Refs, i, j-1, pr.G)
			e.Nbr[3] = at(g.Refs, i, j+1, pr.G)
		}
	}
	coord := &Coord{}
	for n := 0; n < nodes; n++ {
		coord.Chunks = append(coord.Chunks, rt.Node(n).NewObject(chunks[n]))
	}
	g.Coord = rt.Node(0).NewObject(coord)
	return g
}

func at(refs [][]core.Ref, i, j, g int) core.Ref {
	if i < 0 || i >= g || j < 0 || j >= g {
		return core.NilRef
	}
	return refs[i][j]
}

func initValue(i, j int) float64 {
	return float64((i*31+j*17)%100) / 100.0
}

// Native runs the same computation in plain Go and returns the checksum,
// for bit-exact verification of the simulated execution.
func Native(g, iters int) float64 {
	v := make([][]float64, g)
	nv := make([][]float64, g)
	for i := range v {
		v[i] = make([]float64, g)
		nv[i] = make([]float64, g)
		for j := range v[i] {
			v[i][j] = initValue(i, j)
		}
	}
	val := func(i, j int) float64 {
		if i < 0 || i >= g || j < 0 || j >= g {
			return 0
		}
		return v[i][j]
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				sum := val(i-1, j) + val(i+1, j) + val(i, j-1) + val(i, j+1)
				nv[i][j] = (1-omega)*v[i][j] + omega*0.25*sum
			}
		}
		v, nv = nv, v
	}
	var sum float64
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			sum += v[i][j]
		}
	}
	return sum
}
