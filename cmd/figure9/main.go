// Command figure9 regenerates the paper's Figure 9: "heap contexts are
// only created on the perimeter of the block, all internal chunks execute
// on the stack". It runs SOR under the hybrid model with a trace attached,
// maps every fallback (lazy heap-context creation) back to its grid point,
// and draws the grid — '#' marks points whose compute method fell back to
// a heap context during the first iteration, '.' marks points that ran
// entirely on the stack. With a block-cyclic layout the '#' points form
// exactly the block perimeters.
//
// Usage:
//
//	figure9 [-grid 32] [-procs 2] [-block 8]
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"

	"repro/apps/sor"
)

func main() {
	grid := flag.Int("grid", 32, "grid side")
	procs := flag.Int("procs", 2, "processor grid side (procs^2 nodes)")
	block := flag.Int("block", 8, "block-cyclic block size")
	flag.Parse()

	m := sor.Build()
	if err := m.Prog.Resolve(core.Interfaces3); err != nil {
		panic(err)
	}
	buf := trace.NewBuffer(1 << 20)
	cfg := core.DefaultHybrid()
	cfg.Tracer = buf

	rt := core.NewRT(sim.NewEngine(*procs**procs), machine.CM5(), m.Prog, cfg)
	g := sor.NewGrid(rt, sor.Params{G: *grid, P: *procs, B: *block})
	// Map every grid point's ref back to its (i, j) position.
	pos := map[core.Word][2]int{}
	for i, row := range g.Refs {
		for j, ref := range row {
			pos[core.RefW(ref)] = [2]int{i, j}
		}
	}
	var res core.Result
	rt.StartOn(0, m.Main, g.Coord, &res, core.IntW(1))
	rt.Run()
	if !res.Done {
		panic("sor did not complete")
	}

	fell := map[[2]int]bool{}
	buf.Each(func(ev trace.Event) bool {
		if ev.Kind == trace.KFallback && ev.Method == "sor.compute" {
			if p, ok := pos[core.Word(ev.Aux)]; ok {
				fell[p] = true
			}
		}
		return true
	})
	fmt.Printf("Figure 9 — SOR %dx%d grid, %dx%d processors, block size %d (hybrid, CM-5)\n",
		*grid, *grid, *procs, *procs, *block)
	fmt.Println("'#' = compute fell back to a heap context; '.' = ran entirely on the stack")
	fmt.Println()
	for i := 0; i < *grid; i++ {
		for j := 0; j < *grid; j++ {
			if fell[[2]int{i, j}] {
				fmt.Print("#")
			} else {
				fmt.Print(".")
			}
		}
		fmt.Println()
	}
	total := 0
	for range fell {
		total++
	}
	fmt.Printf("\n%d of %d grid points created heap contexts (%.1f%%)\n",
		total, *grid**grid, 100*float64(total)/float64(*grid**grid))
}
