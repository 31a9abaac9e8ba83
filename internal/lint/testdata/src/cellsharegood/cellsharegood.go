// Package cellsharegood holds the blessed cell idioms the cellshare analyzer
// must never flag: per-slot writes, per-cell RNGs, fresh per-cell handles.
package cellsharegood

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obsv"
)

// perSlot writes through the captured slice only at the cell's own index —
// each cell owns its slot, so there is no sharing.
func perSlot(rows []int) []int {
	out := make([]int, len(rows))
	exp.Map(0, len(rows), func(i int) int {
		out[i] = rows[i] * rows[i]
		return out[i]
	})
	return out
}

// perCellRand seeds a private generator inside each cell.
func perCellRand(seed int64, n int) []int {
	return exp.Map(0, n, func(i int) int {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		return rng.Intn(100)
	})
}

// freshHandles constructs the Config's mutable handles per cell: a call and
// a function literal are both fresh, not captured.
func freshHandles(n int) []float64 {
	return exp.Map(0, n, func(i int) float64 {
		cfg := core.Config{
			Seed:   int64(i),
			Tracer: obsv.NewTracer(),
			Network: func() core.Network {
				return core.NewNetwork()
			},
		}
		cfg.Metrics = obsv.New()
		return run(cfg)
	})
}

// localState keeps every mutation cell-local and returns the result.
func localState(rows []int) []int {
	return exp.Map(0, len(rows), func(i int) int {
		sum := 0
		for v := 0; v < rows[i]; v++ {
			sum += v
		}
		return sum
	})
}

func run(core.Config) float64 { return 0 }
