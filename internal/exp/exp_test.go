package exp_test

import (
	"sync/atomic"
	"testing"

	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
)

func TestMapOrderedAndComplete(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		var calls atomic.Int64
		got := exp.Map(workers, 100, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 100 {
			t.Fatalf("workers=%d: fn called %d times, want 100", workers, calls.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := exp.Map(8, 0, func(i int) int { t.Fatal("fn called"); return 0 })
	if len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

// TestCellSetDeterministicAcrossWorkers is the runner's core guarantee on a
// real cell set: the same SOR cells collected at -j 1 and -j 8 are
// identical, field for field — per-run engines, RNG and trace buffers share
// nothing, so worker count cannot perturb a simulation.
func TestCellSetDeterministicAcrossWorkers(t *testing.T) {
	mdl := machine.CM5()
	cells := []sor.Params{
		{G: 24, P: 4, B: 1, Iters: 2},
		{G: 24, P: 4, B: 2, Iters: 2},
		{G: 24, P: 4, B: 4, Iters: 2},
		{G: 32, P: 4, B: 2, Iters: 3},
	}
	type res struct {
		Seconds  float64
		Checksum float64
		Messages int64
		Stats    core.NodeStats
	}
	runAt := func(workers int) []res {
		return exp.Map(workers, 2*len(cells), func(i int) res {
			cfg := core.DefaultHybrid()
			if i >= len(cells) {
				cfg = core.ParallelOnly()
			}
			r := sor.Run(mdl, cfg, cells[i%len(cells)])
			return res{r.Seconds, r.Checksum, r.Messages, r.Stats}
		})
	}
	serial := runAt(1)
	parallel := runAt(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d differs between -j 1 and -j 8:\n%+v\nvs\n%+v",
				i, serial[i], parallel[i])
		}
	}
}

// TestCellPanicRethrownOnCaller: a panic inside a worker cell must surface
// on the calling goroutine (so callers' deferred cleanup runs), carrying
// the cell index and the original stack.
func TestCellPanicRethrownOnCaller(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers == 1 {
					return // j=1 runs on the caller; raw panic is fine
				}
				cp, ok := r.(*exp.CellPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *exp.CellPanic", workers, r)
				}
				if cp.Value != "kaboom" || len(cp.Stack) == 0 {
					t.Fatalf("workers=%d: bad CellPanic: %+v", workers, cp)
				}
			}()
			exp.Map(workers, 10, func(i int) int {
				if i == 5 {
					panic("kaboom")
				}
				return i
			})
		}()
	}
}
