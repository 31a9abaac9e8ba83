package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Host-side microbenchmarks of the runtime's hot paths (wall-clock, as
// opposed to the simulated-time benchmarks at the repository root).

func benchRun(b *testing.B, cfg Config, nodes int, arg int64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewProgram()
		fib := buildFib(p)
		if err := p.Resolve(cfg.Interfaces); err != nil {
			b.Fatal(err)
		}
		eng := sim.NewEngine(nodes)
		rt := NewRT(eng, machine.CM5(), p, cfg)
		self := rt.Node(0).NewObject(nil)
		var res Result
		rt.StartOn(0, fib, self, &res, IntW(arg))
		rt.Run()
		if !res.Done {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkHybridStackExecution measures the speculative-inline path: all
// invocations complete on the (pooled) stack.
func BenchmarkHybridStackExecution(b *testing.B) {
	benchRun(b, DefaultHybrid(), 1, 16)
}

// BenchmarkParallelHeapExecution measures heap-context scheduling: every
// invocation allocates, enqueues and dispatches a context.
func BenchmarkParallelHeapExecution(b *testing.B) {
	benchRun(b, ParallelOnly(), 1, 16)
}

// BenchmarkRemoteRoundtrip measures two request/reply pairs through the
// simulated network and the wrapper path, on a warm runtime (see
// warmRemoteSum), so allocs/op counts the message path and not NewRT.
func BenchmarkRemoteRoundtrip(b *testing.B) {
	run := warmRemoteSum(b, DefaultHybrid())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFramePoolCheckout isolates frame recycling.
func BenchmarkFramePoolCheckout(b *testing.B) {
	m := &Method{Name: "bench", NArgs: 2, NLocals: 2, NFutures: 2}
	var pool framePool
	args := []Word{1, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr := pool.checkout(m, nil, Ref{}, args)
		pool.release(fr)
	}
	if pool.Allocs > 2 {
		b.Fatalf("pool failed to recycle: %d allocs", pool.Allocs)
	}
}
