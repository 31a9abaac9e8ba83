// Command concert runs one of the paper's application kernels on a
// simulated multicomputer with full control over the machine model, the
// execution-model configuration, and the data layout, and prints timing,
// locality and execution-model statistics for the run.
//
// Usage:
//
//	concert -app sor     [-machine cm5|t3d|sparc] [-mode hybrid|parallel]
//	                     [-nodes N] [-size G] [-block B] [-iters I]
//	concert -app mdforce [-machine ...] [-mode ...] [-nodes N] [-size atoms]
//	                     [-layout random|spatial]
//	concert -app em3d    [-machine ...] [-mode ...] [-nodes N] [-size graphnodes]
//	                     [-variant pull|push|forward] [-layout random|blocked]
//	                     [-degree D] [-iters I]
//	concert -app serve   [-machine ...] [-mode ...] [-nodes N] [-size keys]
//	                     [-rate REQ/S] [-duration-ms MS] [-slo-us US]
//	                     [-policy none|threshold|rebalance] [-loss P]
//
// Every app accepts -net fattree [-radix R] to route messages through a
// simulated fat-tree interconnect (hop-count latency plus per-link
// contention) instead of the flat uniform-latency model, and -engine
// serial|parallel [-shards N] to pick the execution engine (results are
// byte-identical across engines; the choice is host-side performance only).
//
// Add -verify to cross-check the simulated result against the native Go
// reference implementation (for serve: every read-modify-write applied
// exactly once). Add -profile for the per-method cycle attribution table
// and the critical-path breakdown (for serve, additionally the aggregated
// compute/network/wait partition of the p99 tail requests), and -trace-out
// FILE to export the run as Chrome trace_event JSON for ui.perfetto.dev.
//
// Every number printed comes from virtual time and is deterministic. Host
// wall-clock cost is measured only by the bench/ module, the repo's
// sanctioned wall-clock user: BENCHMARK.json declares its workloads and
// bench/README.md describes how to run and compare them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/apps/chaos"
	"repro/apps/em3d"
	"repro/apps/mdforce"
	"repro/apps/serve"
	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

func main() {
	app := flag.String("app", "sor", "kernel: sor, mdforce, em3d, serve")
	machineName := flag.String("machine", "cm5", "machine model: cm5, t3d, sparc")
	mode := flag.String("mode", "hybrid", "execution model: hybrid, parallel")
	interfaces := flag.Int("interfaces", 3, "sequential interfaces for hybrid mode: 1, 2 or 3")
	nodes := flag.Int("nodes", 64, "number of simulated processors")
	size := flag.Int("size", 0, "problem size (grid side / atoms / graph nodes); 0 = default")
	block := flag.Int("block", 8, "sor: block-cyclic block size")
	iters := flag.Int("iters", 10, "sor/em3d: iterations")
	layoutName := flag.String("layout", "spatial", "mdforce: random|spatial; em3d: random|blocked")
	variant := flag.String("variant", "pull", "em3d: pull, push, forward")
	degree := flag.Int("degree", 16, "em3d: in-degree")
	seed := flag.Int64("seed", 1995, "workload seed")
	rate := flag.Float64("rate", 0, "serve: offered load in requests/second (0 = default)")
	durationMS := flag.Float64("duration-ms", 0, "serve: traffic horizon in simulated milliseconds (0 = default)")
	sloUS := flag.Float64("slo-us", 0, "serve: latency SLO in microseconds (0 = default)")
	policyName := flag.String("policy", "none", "serve: placement policy: none, threshold, rebalance")
	loss := flag.Float64("loss", 0, "serve: message-loss rate; > 0 injects faults and enables the reliable layer")
	crashEvery := flag.Float64("crash-every", 0, "serve: mean microseconds between fail-stop node crashes (0 = none)")
	crashLen := flag.Float64("crash-len", 250, "serve: microseconds a crashed node stays down before rejoining")
	ckptPeriod := flag.Float64("ckpt-period", 0, "serve: checkpoint period in microseconds (0 = no checkpointing)")
	retries := flag.Int("retries", 0, "serve: max deadline-based retries per request (0 = none)")
	netName := flag.String("net", "flat", "interconnect model: flat (uniform latency) or fattree (hop count + per-link contention)")
	radix := flag.Int("radix", 0, "fattree: switch radix (0 = default)")
	engineName := flag.String("engine", "serial", "execution engine: serial or parallel (byte-identical results; host performance only)")
	shards := flag.Int("shards", 0, "parallel engine: worker count (0 = one per CPU)")
	verify := flag.Bool("verify", false, "check the result against the native reference")
	profile := flag.Bool("profile", false, "print per-method cycle attribution and the critical path")
	traceOut := flag.String("trace-out", "", "write the run as Chrome trace_event JSON to FILE")
	flag.Parse()

	if k, ok := sim.EngineByName(*engineName); ok {
		sim.SetDefaultEngine(k)
		sim.SetDefaultShards(*shards)
	} else {
		fatalf("unknown engine %q (want serial or parallel)", *engineName)
	}

	mdl := machine.ByName(*machineName)
	if mdl == nil {
		fatalf("unknown machine %q", *machineName)
	}
	cfg := core.DefaultHybrid()
	switch *mode {
	case "hybrid":
		switch *interfaces {
		case 1:
			cfg.Interfaces = core.Interfaces1
		case 2:
			cfg.Interfaces = core.Interfaces2
		case 3:
			cfg.Interfaces = core.Interfaces3
		default:
			fatalf("interfaces must be 1, 2 or 3")
		}
	case "parallel":
		cfg = core.ParallelOnly()
	default:
		fatalf("unknown mode %q", *mode)
	}

	switch *netName {
	case "flat":
	case "fattree":
		r := *radix
		cfg.Network = func(nodes int) machine.Network { return machine.NewFatTree(nodes, r, mdl) }
	default:
		fatalf("unknown network model %q (want flat or fattree)", *netName)
	}

	var metrics *obsv.Metrics
	if *profile || *traceOut != "" {
		metrics = obsv.New()
		metrics.Install(&cfg)
	}

	switch *app {
	case "sor":
		g := orDefault(*size, 128)
		p := intSqrt(*nodes)
		if p*p != *nodes {
			fatalf("sor needs a square node count, got %d", *nodes)
		}
		pr := sor.Params{G: g, P: p, B: *block, Iters: *iters}
		r := sor.Run(mdl, cfg, pr)
		report(mdl, r.Seconds, r.LocalFraction, r.Messages, r.Stats, r.Counters)
		if *verify {
			want := sor.Native(pr.G, pr.Iters)
			verdict(r.Checksum == want, fmt.Sprintf("checksum %v vs native %v", r.Checksum, want))
		}
	case "mdforce":
		pr := mdforce.DefaultParams()
		pr.Nodes = *nodes
		pr.Seed = *seed
		pr.Spatial = *layoutName == "spatial"
		if *size > 0 {
			pr.Atoms = *size
		}
		inst := mdforce.Generate(pr)
		r := mdforce.Run(mdl, cfg, inst)
		fmt.Printf("pairs: %d\n", r.PairCount)
		report(mdl, r.Seconds, r.LocalFraction, r.Messages, r.Stats, r.Counters)
		if *verify {
			err := mdforce.MaxRelError(r.Forces, mdforce.Native(inst, 1))
			verdict(err < 1e-9, fmt.Sprintf("max relative force error %.2e", err))
		}
	case "em3d":
		pr := em3d.Params{
			N:               orDefault(*size, 2048),
			Degree:          *degree,
			Iters:           *iters,
			Nodes:           *nodes,
			PLocal:          0.99,
			RandomPlacement: *layoutName == "random",
			Seed:            *seed,
		}
		var v em3d.Variant
		switch *variant {
		case "pull":
			v = em3d.Pull
		case "push":
			v = em3d.Push
		case "forward":
			v = em3d.Forward
		default:
			fatalf("unknown em3d variant %q", *variant)
		}
		g := em3d.Generate(pr)
		r := em3d.Run(mdl, cfg, v, g)
		report(mdl, r.Seconds, r.LocalFraction, r.Messages, r.Stats, r.Counters)
		if *verify {
			want := em3d.Native(g)
			verdict(r.Checksum == want, fmt.Sprintf("checksum %v vs native %v", r.Checksum, want))
		}
	case "serve":
		p := serve.DefaultParams(*seed)
		p.Nodes = *nodes
		if *size > 0 {
			p.Keys = *size
		}
		// User-facing units are wall-clock at the machine's clock rate; the
		// generator wants virtual instructions.
		perSec := mdl.MHz * 1e6
		if *rate > 0 {
			p.Load.MeanGap = perSec / *rate
		}
		if *durationMS > 0 {
			p.Load.Horizon = int64(*durationMS / 1e3 * perSec)
		}
		if *sloUS > 0 {
			p.SLO = int64(*sloUS / 1e6 * perSec)
		}
		switch *policyName {
		case "none":
		case "threshold":
			cfg.Migration = serve.ThresholdPolicy()
		case "rebalance":
			cfg.Migration = serve.RebalancePolicy()
			cfg.MigrationPeriod = serve.RebalancePeriod
		default:
			fatalf("unknown serve policy %q", *policyName)
		}
		if *loss > 0 {
			cfg.Faults = chaos.Faults(uint64(*seed), *loss)
			cfg.Reliable = true
		}
		if *crashEvery > 0 {
			if cfg.Faults == nil {
				cfg.Faults = &sim.Faults{Seed: uint64(*seed)}
			}
			cfg.Faults.CrashEvery = sim.Time(*crashEvery / 1e6 * perSec)
			cfg.Faults.CrashLen = sim.Time(*crashLen / 1e6 * perSec)
			// Crash rejoin needs the link layer's incarnation epochs.
			cfg.Reliable = true
		}
		if *ckptPeriod > 0 {
			cfg.CheckpointPeriod = instr.Instr(*ckptPeriod / 1e6 * perSec)
		}
		if *retries > 0 {
			// Deadline at four SLO budgets: far enough above the congested
			// tail that retries chase losses, not slow replies, yet early
			// enough to mask a crash window within a few attempts.
			p.RetryAfter = instr.Instr(4 * p.SLO)
			p.MaxRetries = *retries
		}
		r := serve.Run(mdl, cfg, p)
		us := func(v int64) float64 { return mdl.Seconds(instr.Instr(v)) * 1e6 }
		fmt.Printf("requests: %d   ops: %d   rmws: %d   moves: %d\n", r.Requests, r.Ops, r.RMWs, r.Moves)
		fmt.Printf("latency: p50 %.0f us   p99 %.0f us   p999 %.0f us   SLO(<=%.0f us): %.1f%%\n",
			us(r.P50), us(r.P99), us(r.P999), us(p.SLO), 100*r.SLOFrac)
		report(mdl, r.Seconds, r.LocalFraction, r.Messages, r.Stats, r.Counters)
		if *verify {
			verdict(r.Applied == r.RMWs,
				fmt.Sprintf("%d of %d RMWs applied exactly once", r.Applied, r.RMWs))
		}
		if metrics != nil && *profile {
			tailPartition(os.Stdout, metrics, mdl)
		}
	default:
		fatalf("unknown app %q", *app)
	}

	if metrics != nil {
		finishObservability(metrics, mdl, *app, *profile, *traceOut)
	}
}

// tailPartition aggregates the critical-path partitions of every p99-tail
// request and writes the combined split to w: how much of the stragglers'
// time was compute, network flight, or waiting.
func tailPartition(w io.Writer, m *obsv.Metrics, mdl *machine.Model) {
	tail := m.TailRequests(0.99)
	if len(tail) == 0 {
		return
	}
	var sum obsv.PathReport
	for _, rq := range tail {
		pr := m.PartitionRequest(rq)
		sum.Total += pr.Total
		sum.Compute += pr.Compute
		sum.Network += pr.Network
		sum.FutureWait += pr.FutureWait
		sum.LockWait += pr.LockWait
		sum.Idle += pr.Idle
		sum.Hops += pr.Hops
		sum.Steps += pr.Steps
		sum.Incomplete = sum.Incomplete || pr.Incomplete
	}
	// Requests that completed past the record cap have no window to
	// partition; say how many the tail may be missing.
	left := ""
	if n := m.RequestsDropped(); n > 0 {
		left = fmt.Sprintf("; %d requests past the record cap left out", n)
	}
	fmt.Fprintf(w, "\ntail requests (p99 and above, %d of them%s) — aggregated partition:\n", len(tail), left)
	sum.WritePath(w, func(v int64) float64 { return mdl.Seconds(instr.Instr(v)) })
}

// finishObservability renders the post-run observability outputs: the
// attribution report and/or the Perfetto export. The export is read back
// and parsed so an invalid file fails the run instead of failing later in
// the viewer.
func finishObservability(m *obsv.Metrics, mdl *machine.Model, title string, profile bool, traceOut string) {
	if err := m.CheckAttribution(); err != nil {
		fatalf("%v", err)
	}
	if profile {
		fmt.Println()
		m.WriteReport(os.Stdout, "cycle attribution: "+title, func(v int64) float64 {
			return mdl.Seconds(instr.Instr(v))
		})
	}
	if traceOut == "" {
		return
	}
	if err := writeTrace(os.Stdout, m, traceOut); err != nil {
		fatalf("trace-out: %v", err)
	}
}

// writeTrace exports m to path, reads the file back to check it and count
// its events, and reports the count on w. When a detail-log cap truncated
// the run, the line says the export stops there.
func writeTrace(w io.Writer, m *obsv.Metrics, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	events, err := countTraceEvents(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("wrote invalid JSON: %v", err)
	}
	if events == 0 {
		return fmt.Errorf("export contains no events")
	}
	cut := ""
	if m.Truncated() {
		cut = "; truncated: the export stops at the detail-log cap"
	}
	fmt.Fprintf(w, "trace: %d events -> %s (open in ui.perfetto.dev)%s\n", events, path, cut)
	return nil
}

// countTraceEvents reads a trace_event document back in one streaming pass
// and returns how many entries its traceEvents array holds. Only one entry
// is held in memory at a time. Anything but a single valid JSON object whose
// traceEvents, if present, is an array, is an error.
func countTraceEvents(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return 0, err
	}
	events := 0
	var v json.RawMessage // reused: Decode overwrites it in place
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return 0, err
		}
		if key != "traceEvents" {
			if err := dec.Decode(&v); err != nil {
				return 0, err
			}
			continue
		}
		if err := expectDelim(dec, '['); err != nil {
			return 0, err
		}
		for ; dec.More(); events++ {
			if err := dec.Decode(&v); err != nil {
				return 0, err
			}
		}
		if err := expectDelim(dec, ']'); err != nil {
			return 0, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return 0, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return 0, fmt.Errorf("data after the top-level object")
	}
	return events, nil
}

// expectDelim reads the next token and requires it to be want.
func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != want {
		return fmt.Errorf("found %v where %v was expected", tok, want)
	}
	return nil
}

func report(mdl *machine.Model, seconds, localFrac float64, msgs int64, st core.NodeStats, c instr.Counters) {
	fmt.Printf("machine: %s   time: %.6f s   local fraction: %.3f   messages: %d\n",
		mdl.Name, seconds, localFrac, msgs)
	fmt.Printf("invocations: %d (local %d, remote %d)\n", st.Invokes, st.LocalInvokes, st.RemoteInvokes)
	fmt.Printf("stack calls: %d   heap contexts: %d   fallbacks: %d   suspends: %d   wrapper runs: %d\n",
		st.StackCalls, st.HeapInvokes, st.Fallbacks, st.Suspends, st.WrapperRuns)
	if c.Busy() > 0 {
		fmt.Printf("instruction breakdown:")
		for op := instr.Op(0); op < instr.NumOps; op++ {
			if c[op] != 0 {
				fmt.Printf(" %s=%d", op, c[op])
			}
		}
		fmt.Println()
	}
}

func verdict(ok bool, detail string) {
	if ok {
		fmt.Printf("verify: OK (%s)\n", detail)
		return
	}
	fmt.Printf("verify: FAILED (%s)\n", detail)
	os.Exit(1)
}

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	for r*r < n {
		r++
	}
	for r*r > n {
		r--
	}
	return r
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
