// Package cellsharebad seeds every cell-isolation violation the cellshare
// analyzer must catch at exp.Map call sites.
package cellsharebad

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obsv"
)

// sharedCounter mutates a captured accumulator from inside parallel cells.
func sharedCounter(rows []int) int {
	total := 0
	exp.Map(0, len(rows), func(i int) int {
		total += rows[i] // want:unsound
		return rows[i]
	})
	return total
}

// sharedAppend grows a captured slice from inside parallel cells.
func sharedAppend(n int) []int {
	var out []int
	exp.Map(0, n, func(i int) int {
		out = append(out, i*i) // want:unsound want:unsound (the assign and the append both fire)
		return i
	})
	return out
}

// sharedIncDec increments a captured counter.
func sharedIncDec(n int) int {
	hits := 0
	exp.Map(0, n, func(i int) int {
		if i%2 == 0 {
			hits++ // want:unsound
		}
		return i
	})
	return hits
}

// sharedRand hands one generator to every cell: even reads advance it, so
// each cell's stream depends on worker scheduling.
func sharedRand(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	return exp.Map(0, n, func(i int) int {
		return rng.Intn(100) // want:unsound
	})
}

// sharedTracer builds per-cell Configs that all alias one trace buffer.
func sharedTracer(n int) []float64 {
	tr := obsv.NewTracer()
	return exp.Map(0, n, func(i int) float64 {
		cfg := core.Config{
			Seed:   int64(i),
			Tracer: tr, // want:unsound
		}
		return run(cfg)
	})
}

// sharedNetworkAssign stores a captured handle into a cell-local Config.
func sharedNetworkAssign(n int, net core.Network) []float64 {
	return exp.Map(0, n, func(i int) float64 {
		cfg := core.Config{Seed: int64(i)}
		cfg.Network = net // want:unsound
		return run(cfg)
	})
}

// fixedSlot writes every cell into the same element: slot collisions are
// sharing even though each write is "per-slot" in shape.
func fixedSlot(n int) []int {
	buf := make([]int, 1)
	exp.Map(0, n, func(i int) int {
		buf[0] = i // want:unsound
		return buf[0]
	})
	return buf
}

func run(core.Config) float64 { return 0 }
