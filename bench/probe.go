package main

import (
	"math/rand"
	"time"
)

// The end-to-end times are reported in reference seconds: host seconds
// scaled by probeRefS / (the probe's host time measured around the rep).
// On a shared host the speed of a core drifts by tens of percent over
// minutes, and the simulator slows with it; the probe, timed in its own
// child process just before and just after each rep, slows in step, so the
// scaled time measures the simulator's cost rather than the host's load.
// The raw host seconds are reported beside them as host.*.
//
// probeRefS and probe define the unit: changing either changes every
// reported time, so neither may change without re-measuring the baseline.
const probeRefS = 0.3

// probeBuf is the pointer-chase table: a fixed permutation of 2Mi slots
// (16 MiB), bigger than the caches, as the simulator's object graphs are.
func probeBuf() []int {
	return rand.New(rand.NewSource(1)).Perm(2 << 20)
}

type probeNode struct {
	next *probeNode
	_    [6]int64
}

// probeSink keeps the probe's results live, so no part of it is optimized
// away.
var (
	probeSink int
	probeHead *probeNode
)

// probe times a fixed mix of the work the simulator does: dependent loads
// through a large table, small-object allocation under the garbage
// collector, and map updates.
func probe(perm []int) time.Duration {
	start := now()
	j := 0
	for i := 0; i < 2_000_000; i++ {
		j = perm[j]
	}
	var head *probeNode
	for i := 0; i < 1_000_000; i++ {
		head = &probeNode{next: head}
		if i%1000 == 0 {
			head = nil
		}
	}
	m := map[int]int{}
	for i := 0; i < 200_000; i++ {
		m[i*7919%100003] += i
	}
	probeSink += j + len(m)
	probeHead = head
	return now().Sub(start)
}
