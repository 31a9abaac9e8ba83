// Package detrandgood holds the sanctioned counterparts of every detrandbad
// case: the analyzer must stay silent on all of them.
package detrandgood

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
)

type reg struct {
	byName map[string]int
	names  []string
}

// printSorted is the blessed idiom: collect keys, sort, then emit.
func printSorted(r *reg, w *os.File) {
	var keys []string
	for k := range r.byName {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, r.byName[k])
	}
}

// sumValues aggregates commutatively: order cannot reach the result.
func sumValues(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// localSortHelper launders through a same-package sort helper.
func localSortHelper(m map[int]bool) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sortInts(ids)
	return ids
}

func sortInts(xs []int) { sort.Ints(xs) }

// loopLocalAppend builds a slice that dies with the iteration: per-key
// scratch, no cross-iteration order.
func loopLocalAppend(m map[string][]int, w *os.File) {
	for _, vs := range m {
		var sq []int
		for _, v := range vs {
			sq = append(sq, v*v)
		}
		_ = sq
	}
}

// seededRand builds a private, experiment-seeded source — the constructor
// calls are not global draws.
func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// sliceRange prints in slice order, which is deterministic.
func sliceRange(xs []string, w *os.File) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}
