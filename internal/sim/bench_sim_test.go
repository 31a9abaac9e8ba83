package sim

import (
	"testing"

	"repro/internal/instr"
)

// BenchmarkEventDispatch measures raw engine throughput: schedule-and-run
// of chained events.
func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	newFifo(eng, 1)
	var chain func(at Time, left int)
	chain = func(at Time, left int) {
		if left == 0 {
			return
		}
		eng.Schedule(at, func() { chain(at+1, left-1) })
	}
	b.ResetTimer()
	chain(eng.Now(), b.N)
	eng.Run()
}

// BenchmarkNodePump measures the per-task pump cycle (wake, charge, run).
func BenchmarkNodePump(b *testing.B) {
	eng := NewEngine(1)
	r := newFifo(eng, 10)
	n := eng.Node(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.push(0, func(*Node) {})
		eng.Wake(n)
		eng.Run()
	}
	if n.Counters.Get(instr.OpWork) != instr.Instr(b.N)*10 {
		b.Fatal("work accounting wrong")
	}
}

// BenchmarkMessageTransport measures SendAt through delivery.
func BenchmarkMessageTransport(b *testing.B) {
	eng := NewEngine(2)
	r := newFifo(eng, 1)
	src, dst := eng.Node(0), eng.Node(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SendAt(src, dst, src.Clock, 100, 4, func() { r.push(1, func(*Node) {}) })
		eng.Run()
	}
}
