package main

import (
	"fmt"
	"io"

	"repro/apps/serve"
	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// workload is one set of inputs the benchmark runs: one call into a public
// app entry point.
type workload struct {
	name string
	why  string
	// seeded marks workloads whose inputs depend on -seed. The SOR
	// workloads have no randomness, so their pinned fingerprint holds on
	// every seed.
	seeded bool
	run    func(in input) output
}

// input is what one rep of a workload is run with.
type input struct {
	seed int64
	// setup asks for the same call with zero simulated work (SOR Iters 0,
	// serve Horizon 1, since the load generator rejects 0): it times the
	// set-up alone.
	setup bool
	// tiny shrinks the inputs so the tests can run every workload in-process.
	tiny bool
	// lay, when non-nil, wraps the layers' public interfaces to time them.
	lay *layers
}

// output is what a rep hands back for timing, checking and fingerprinting.
type output struct {
	res      any // the app's Result with pointer fields cleared
	busy     instr.Instr
	stats    core.NodeStats
	messages int64
	// report, when non-nil, is the post-run observer work timed as part of
	// the call (serve-profile).
	report func() error
	// check verifies the app's output against the repo's own oracle.
	check func() error
}

var workloads = []*workload{
	{name: "sor-scale", run: sorScale,
		why: "the make scale config: 1M NewObject calls in set-up, a 4096-node event queue, fat-tree Delay and the hybrid stack path"},
	{name: "sor-scale-pdes2", run: func(in input) (out output) {
		withParallelEngine(2, func() { out = sorScale(in) })
		return out
	}, why: "sor-scale on the parallel engine at 2 shards: the only workload that runs windows and barrier replay"},
	{name: "sor-heap", run: sorHeap,
		why: "the parallel-only baseline: heap contexts, frame pool and run queue, with a tiny set-up"},
	{name: "serve-open", seeded: true, run: serveOpen,
		why: "open-loop serving at 64 nodes, message-bound, with threshold migration: exercises the migrate layer"},
	{name: "serve-crash", seeded: true, run: serveCrash,
		why: "fail-stop crashes with checkpoints and retries: sim timers armed and stopped, snapshots, restores, dedup"},
	{name: "serve-profile", seeded: true, run: serveProfile,
		why: "serve-open with the obsv profiler and its report: the observer layer does most of the work"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// withParallelEngine runs fn on the parallel engine at the given shard count
// and restores the previous defaults. It is the bench's only use of sim's
// process-global engine knobs.
func withParallelEngine(shards int, fn func()) {
	prevEngine := sim.SetDefaultEngine(sim.EngineParallel)
	prevShards := sim.SetDefaultShards(shards)
	defer func() {
		sim.SetDefaultEngine(prevEngine)
		sim.SetDefaultShards(prevShards)
	}()
	fn()
}

func sorScale(in input) output {
	mdl := machine.CM5()
	cfg := core.DefaultHybrid()
	cfg.Network = in.lay.network(func(n int) machine.Network { return machine.NewFatTree(n, 0, mdl) })
	pr := sor.Params{G: 1024, P: 64, B: 8, Iters: 1}
	if in.tiny {
		pr = sor.Params{G: 64, P: 8, B: 8, Iters: 1}
	}
	return runSOR(mdl, cfg, pr, in.setup)
}

func sorHeap(in input) output {
	pr := sor.Params{G: 256, P: 16, B: 8, Iters: 8}
	if in.tiny {
		pr = sor.Params{G: 32, P: 4, B: 8, Iters: 2}
	}
	return runSOR(machine.CM5(), core.ParallelOnly(), pr, in.setup)
}

func runSOR(mdl *machine.Model, cfg core.Config, pr sor.Params, setup bool) output {
	if setup {
		pr.Iters = 0
	}
	r := sor.Run(mdl, cfg, pr)
	return output{res: r, busy: r.Counters.Busy(), stats: r.Stats, messages: r.Messages,
		check: func() error {
			if want := sor.Native(pr.G, pr.Iters); r.Checksum != want {
				return fmt.Errorf("checksum %v, native %v", r.Checksum, want)
			}
			return nil
		}}
}

// openParams is serve-open's traffic: 64 nodes, 64Ki keys, 200k req/s at
// 33 MHz for 2 simulated seconds, with the default hotspot flip.
func openParams(in input) serve.Params {
	p := serve.DefaultParams(in.seed)
	p.Nodes, p.Keys = 64, 65536
	p.Load.MeanGap = 165
	p.Load.Horizon = 66_000_000
	if in.tiny {
		// Same per-node rate on 8 nodes.
		p.Nodes, p.Keys = 8, 1024
		p.Load.MeanGap = 165 * 8
		p.Load.Horizon = 400_000
	}
	if in.setup {
		p.Load.Horizon = 1
	}
	return p
}

func serveOpen(in input) output {
	cfg := core.DefaultHybrid()
	cfg.Migration = in.lay.policy(serve.ThresholdPolicy())
	return serveOutput(serve.Run(machine.CM5(), cfg, openParams(in)), false)
}

// serveCrash is Table 10's ckpt+retry cell stretched to 240M cycles.
func serveCrash(in input) output {
	p := serve.DefaultParams(in.seed)
	p.Load.Flips = nil
	p.Load.MeanGap = 1000
	p.SLO = 40_000
	p.Load.Horizon = 240_000_000
	if in.tiny {
		p.Load.Horizon = 3_000_000
	}
	if in.setup {
		p.Load.Horizon = 1
	}
	p.RetryAfter, p.MaxRetries = 80_000, 8
	cfg := core.DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = &sim.Faults{Seed: uint64(in.seed), CrashEvery: 400_000, CrashLen: 8_000}
	cfg.CheckpointPeriod = 5_000
	return serveOutput(serve.Run(machine.CM5(), cfg, p), true)
}

// serveProfile is serve-open plus the `concert -profile` path: the observer
// installed for the run, then its checks and reports.
func serveProfile(in input) output {
	mdl := machine.CM5()
	cfg := core.DefaultHybrid()
	cfg.Migration = in.lay.policy(serve.ThresholdPolicy())
	m := obsv.New()
	m.Install(&cfg)
	in.lay.observe(&cfg)
	out := serveOutput(serve.Run(mdl, cfg, openParams(in)), false)
	out.report = func() error { return profileReport(m, mdl) }
	return out
}

// profileReport mirrors what `concert -profile` does after a serve run: the
// attribution check, the aggregated critical-path partition of the p99
// tail, the attribution report and the Perfetto export.
func profileReport(m *obsv.Metrics, mdl *machine.Model) error {
	err := m.CheckAttribution()
	seconds := func(v int64) float64 { return mdl.Seconds(instr.Instr(v)) }
	var sum obsv.PathReport
	for _, rq := range m.TailRequests(0.99) {
		pr := m.PartitionRequest(rq)
		sum.Total += pr.Total
		sum.Compute += pr.Compute
		sum.Network += pr.Network
		sum.FutureWait += pr.FutureWait
		sum.LockWait += pr.LockWait
		sum.Idle += pr.Idle
		sum.Hops += pr.Hops
		sum.Steps += pr.Steps
	}
	sum.WritePath(io.Discard, seconds)
	m.WriteReport(io.Discard, "cycle attribution: serve", seconds)
	if perr := m.WritePerfetto(io.Discard); err == nil {
		err = perr
	}
	return err
}

// serveOutput checks exactly-once RMWs and no lost requests; wantCrashes
// also requires that crashes were injected, so the crash workload cannot
// pass by being inert.
func serveOutput(r serve.Result, wantCrashes bool) output {
	r.Hist = nil
	return output{res: r, busy: r.Counters.Busy(), stats: r.Stats, messages: r.Messages,
		check: func() error {
			switch {
			case r.Applied != r.RMWs:
				return fmt.Errorf("%d of %d RMWs applied", r.Applied, r.RMWs)
			case r.Lost != 0:
				return fmt.Errorf("%d of %d requests lost", r.Lost, r.Requests)
			case wantCrashes && r.Recovery.Crashes == 0:
				return fmt.Errorf("no crashes injected")
			}
			return nil
		}}
}

// fingerprint is exp.Fingerprint over every value field of an app Result.
func fingerprint(res any) string {
	return exp.Fingerprint(fmt.Sprintf("%+v", res))
}
