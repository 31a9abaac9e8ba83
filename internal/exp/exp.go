// Package exp is the parallel experiment runner: a bounded worker pool that
// fans independent simulation cells across GOMAXPROCS goroutines with
// deterministic, submission-ordered result collection.
//
// The simulator itself is sequential by design — each run's virtual clocks
// demand a single deterministic event order — but the experiment drivers
// (cmd/tables, apps/chaos) execute dozens to hundreds of *independent*
// (model, config, params) cells. Each cell builds its own engine, runtime,
// RNG and trace/metrics buffers, so cells share no mutable state and can
// run concurrently; only the collection order matters for reproducible
// output. Map therefore returns results indexed by submission order
// regardless of worker count, and the drivers expose that as a -j flag with
// a golden guarantee: -j 1 and -j N output is byte-identical.
package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// CellPanic is re-thrown on the calling goroutine when a cell panics in a
// worker: the caller's deferred handlers (flushing partial output, cleanup)
// still run, which a raw worker-goroutine panic would bypass.
type CellPanic struct {
	Index int
	Value any
	Stack []byte // the panicking cell's stack, captured at recover time
}

func (p *CellPanic) Error() string {
	return fmt.Sprintf("exp: cell %d panicked: %v\n\ncell stack:\n%s", p.Index, p.Value, p.Stack)
}

// panicTrap collects the lowest-index cell panic across workers.
type panicTrap struct {
	mu  sync.Mutex
	hit atomic.Bool
	p   *CellPanic
}

func (t *panicTrap) record(i int, val any) {
	t.hit.Store(true)
	t.mu.Lock()
	if t.p == nil || i < t.p.Index {
		t.p = &CellPanic{Index: i, Value: val, Stack: debug.Stack()}
	}
	t.mu.Unlock()
}

// rethrow re-panics on the calling goroutine if any cell panicked.
func (t *panicTrap) rethrow() {
	if t.p != nil {
		panic(t.p)
	}
}

// DefaultWorkers is the default fan-out width: GOMAXPROCS, the number of
// simulation cells the host can actually execute at once.
func DefaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// Map runs fn(i) for every i in [0, n) on up to `workers` goroutines and
// returns the results in index order. workers <= 0 means DefaultWorkers();
// workers == 1 degenerates to a plain sequential loop on the calling
// goroutine (the -j 1 reference execution). fn must not share mutable state
// across indices; it is called at most once per index — exactly once unless
// a cell panics, which stops dispatch and re-panics a *CellPanic on the
// calling goroutine after the running cells drain.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	next.Store(-1)
	var trap panicTrap
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !trap.hit.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							trap.record(i, r)
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	trap.rethrow()
	return out
}
