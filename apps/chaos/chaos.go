// Package chaos is the evaluation harness for the fault-injected network
// and the reliable-delivery layer (Table 8): the existing verified kernels —
// SOR (regular, barrier-phased) and MD-Force with dynamic migration (the
// protocol with the most in-flight protocol state to lose) — re-run over a
// network that drops, duplicates, reorders and jitters messages and subjects
// nodes to periodic brown-outs and stalls.
//
// Every run is verified against the same native references the clean tables
// use: the SOR checksum must match bit-exactly (its phase barriers make the
// arithmetic timing-independent), and the MD forces must match the plain-Go
// reference to a tight relative tolerance regardless of how often the
// network mangled the traffic. What the table then reports is the *cost* of
// surviving: messages (including retransmissions and acks), recovery
// counters, and virtual time relative to the fault-free run.
package chaos

import (
	"fmt"

	"repro/apps/mdforce"
	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	policy "repro/internal/migrate"
	"repro/internal/sim"
)

// Faults builds the standard chaos fault configuration for one message-loss
// rate: drops at the given rate, duplicates at half of it, reordering with
// jitter at the same rate, plus mild periodic brown-outs and full stalls on
// every node. A non-positive loss returns nil (a clean network).
func Faults(seed uint64, loss float64) *sim.Faults {
	if loss <= 0 {
		return nil
	}
	return &sim.Faults{
		Seed:      seed,
		Drop:      loss,
		Dup:       loss / 2,
		Reorder:   loss,
		JitterMax: 2000,
		// Brown-outs: ~5% of each node's time at 3x cost.
		SlowEvery: 400_000, SlowLen: 20_000, SlowFactor: 3,
		// Full stalls: short freezes, a little over 1% of the time.
		StallEvery: 800_000, StallLen: 10_000,
	}
}

// Params sizes the chaos workloads.
type Params struct {
	Sor     sor.Params
	MD      mdforce.Params
	MDIters int
	// Adorn, when non-nil, decorates every configuration the kernels build
	// before use (e.g. to install observability). It must not change
	// execution-model options.
	Adorn func(core.Config) core.Config
}

// DefaultParams is a modest instance of both kernels: large enough that a
// 5%-loss run injects thousands of faults, small enough for CI.
func DefaultParams(seed int64) Params {
	return Params{
		Sor: sor.Params{G: 48, P: 4, B: 4, Iters: 4},
		MD: mdforce.Params{Atoms: 1200, Clusters: 27, Box: 18, Cutoff: 2.4,
			Nodes: 8, Scatter: 0.05, Seed: seed},
		MDIters: 3,
	}
}

// RunResult is one kernel execution under one fault configuration.
type RunResult struct {
	Seconds  float64
	Messages int64
	Stats    core.NodeStats
	// Err is non-nil if the result failed verification against the native
	// reference — the one thing faults must never change.
	Err error
}

// Kernel is one chaos workload: Run executes it under the given fault
// configuration (nil = clean network) with or without the reliable layer.
type Kernel struct {
	Name string
	Run  func(faults *sim.Faults, reliable bool) RunResult
}

// Kernels builds the Table 8 workloads on mdl: SOR under both execution
// models, and MD-Force-with-migration with static and adaptive placement.
// Instances and native references are generated once and shared by every
// fault configuration.
func Kernels(mdl *machine.Model, p Params) []Kernel {
	sorNative := sor.Native(p.Sor.G, p.Sor.Iters)
	inst := mdforce.Generate(p.MD)
	mdNative := mdforce.Native(inst, p.MDIters)
	randAssign := mdforce.CellAssignment(inst, false)

	adorn := func(cfg core.Config) core.Config {
		if p.Adorn != nil {
			return p.Adorn(cfg)
		}
		return cfg
	}
	sorKernel := func(name string, base func() core.Config) Kernel {
		return Kernel{Name: name, Run: func(faults *sim.Faults, reliable bool) RunResult {
			cfg := base()
			cfg.Faults = faults
			cfg.Reliable = reliable
			cfg = adorn(cfg)
			r := sor.Run(mdl, cfg, p.Sor)
			res := RunResult{Seconds: r.Seconds, Messages: r.Messages, Stats: r.Stats}
			if r.Checksum != sorNative {
				res.Err = fmt.Errorf("%s: checksum %g != native %g", name, r.Checksum, sorNative)
			}
			return res
		}}
	}
	mdKernel := func(name string, pol func() core.MigrationPolicy) Kernel {
		return Kernel{Name: name, Run: func(faults *sim.Faults, reliable bool) RunResult {
			cfg := core.DefaultHybrid()
			cfg.Faults = faults
			cfg.Reliable = reliable
			if pol != nil {
				cfg.Migration = pol()
			}
			cfg = adorn(cfg)
			r := mdforce.RunCells(mdl, cfg, inst, p.MDIters, randAssign)
			res := RunResult{Seconds: r.Seconds, Messages: r.Messages, Stats: r.Stats}
			if err := mdforce.MaxRelError(r.Forces, mdNative); err > 1e-9 {
				res.Err = fmt.Errorf("%s: force error %g exceeds 1e-9", name, err)
			}
			return res
		}}
	}
	return []Kernel{
		sorKernel("SOR hybrid", core.DefaultHybrid),
		sorKernel("SOR parallel-only", core.ParallelOnly),
		mdKernel("MD-migrate static", nil),
		mdKernel("MD-migrate adaptive", func() core.MigrationPolicy { return policy.DefaultThreshold() }),
	}
}

// SweepCell is one (kernel, network) cell of a chaos sweep: the plain
// unreliable baseline or one reliable run at a given loss rate.
type SweepCell struct {
	Kernel   string
	Network  string // "plain" for the baseline, else e.g. "1.0% loss"
	Baseline bool
	Result   RunResult
}

// Sweep runs, for every kernel, the plain (unreliable, fault-free) baseline
// plus one reliable run per loss rate — the full Table 8 cell set — fanning
// the independent runs across `workers` goroutines via the exp runner. Each
// run builds its own engine, runtime and fault RNG, so cells share no
// mutable state; the returned slice is in deterministic kernel-major,
// baseline-first order regardless of worker count.
func Sweep(kernels []Kernel, seed uint64, losses []float64, workers int) []SweepCell {
	type spec struct {
		kernel   int
		network  string
		loss     float64
		baseline bool
	}
	specs := make([]spec, 0, len(kernels)*(1+len(losses)))
	for ki := range kernels {
		specs = append(specs, spec{kernel: ki, network: "plain", baseline: true})
		for _, loss := range losses {
			specs = append(specs, spec{kernel: ki,
				network: fmt.Sprintf("%.1f%% loss", loss*100), loss: loss})
		}
	}
	results := exp.Map(workers, len(specs), func(i int) RunResult {
		s := specs[i]
		if s.baseline {
			return kernels[s.kernel].Run(nil, false)
		}
		return kernels[s.kernel].Run(Faults(seed, s.loss), true)
	})
	cells := make([]SweepCell, len(specs))
	for i, s := range specs {
		cells[i] = SweepCell{Kernel: kernels[s.kernel].Name, Network: s.network,
			Baseline: s.baseline, Result: results[i]}
	}
	return cells
}
