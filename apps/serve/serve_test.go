package serve

import (
	"testing"
	"time"

	"repro/apps/chaos"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// scalars strips the Result down to its comparable fields (the Hist pointer
// aside, everything is a value).
func scalars(r Result) Result {
	r.Hist = nil
	return r
}

func TestDeterministic(t *testing.T) {
	mdl := machine.CM5()
	p := DefaultParams(1995)
	cfg := core.DefaultHybrid()
	cfg.Migration = ThresholdPolicy()
	a := Run(mdl, cfg, p)
	cfg.Migration = ThresholdPolicy()
	b := Run(mdl, cfg, p)
	if scalars(a) != scalars(b) {
		t.Fatalf("same Params produced different results:\n%+v\n%+v", scalars(a), scalars(b))
	}
	if *a.Hist != *b.Hist {
		t.Fatal("same Params produced different latency histograms")
	}
	if a.Requests == 0 || a.Ops == 0 {
		t.Fatalf("empty run: %+v", scalars(a))
	}
}

// TestExactlyOnce: every generated read-modify-write (each adds exactly 1)
// is present in the final KV state exactly once.
func TestExactlyOnce(t *testing.T) {
	r := Run(machine.CM5(), core.DefaultHybrid(), DefaultParams(1995))
	if r.RMWs == 0 || r.Applied != r.RMWs {
		t.Fatalf("applied %d of %d issued RMWs", r.Applied, r.RMWs)
	}
}

// TestObservabilityZeroPerturbation: installing the metrics registry must
// not change the simulated results, the attribution must be exact, and the
// registry's request-latency histogram must agree with the app's own,
// sample for sample.
func TestObservabilityZeroPerturbation(t *testing.T) {
	mdl := machine.CM5()
	p := DefaultParams(1995)

	cfg := core.DefaultHybrid()
	cfg.Migration = ThresholdPolicy()
	bare := Run(mdl, cfg, p)

	m := obsv.New()
	cfg = core.DefaultHybrid()
	cfg.Migration = ThresholdPolicy()
	m.Install(&cfg)
	observed := Run(mdl, cfg, p)

	if scalars(bare) != scalars(observed) {
		t.Fatalf("observability perturbed the run:\n%+v\n%+v", scalars(bare), scalars(observed))
	}
	if err := m.CheckAttribution(); err != nil {
		t.Fatal(err)
	}
	if *m.RequestLatencies() != *observed.Hist {
		t.Fatal("registry request-latency histogram differs from the app's")
	}
	if got := len(m.Requests()); got != observed.Requests {
		t.Fatalf("registry retained %d request records, run completed %d", got, observed.Requests)
	}

	// The tail partition must explain each straggler's whole span exactly.
	tail := m.TailRequests(0.99)
	if len(tail) == 0 {
		t.Fatal("no tail requests at p99")
	}
	for _, rq := range tail[:3] {
		pr := m.PartitionRequest(rq)
		if pr.Total != rq.Done-rq.Arrive {
			t.Fatalf("partition total %d != request span %d", pr.Total, rq.Done-rq.Arrive)
		}
		if sum := pr.Compute + pr.Network + pr.FutureWait + pr.LockWait + pr.Idle; sum != pr.Total {
			t.Fatalf("partition does not sum: %d != %d (%+v)", sum, pr.Total, pr)
		}
	}
}

// TestAdaptiveBeatsStaticP99 is Table 9's headline claim: under a hotspot
// flip, the adaptive policies repair locality mid-run and cut the p99 well
// below static placement, with better SLO attainment.
func TestAdaptiveBeatsStaticP99(t *testing.T) {
	mdl := machine.CM5()
	p := DefaultParams(1995)

	static := Run(mdl, core.DefaultHybrid(), p)

	cfg := core.DefaultHybrid()
	cfg.Migration = ThresholdPolicy()
	thresh := Run(mdl, cfg, p)

	cfg = core.DefaultHybrid()
	cfg.Migration = RebalancePolicy()
	cfg.MigrationPeriod = RebalancePeriod
	rebal := Run(mdl, cfg, p)

	if thresh.Moves == 0 || rebal.Moves == 0 {
		t.Fatalf("adaptive policies moved nothing: threshold %d, rebalance %d", thresh.Moves, rebal.Moves)
	}
	// Require a clear margin, not a tie: the flip roughly doubles static's
	// tail, and migration should recover most of it.
	if float64(thresh.P99) > 0.8*float64(static.P99) {
		t.Fatalf("threshold p99 %d vs static %d: no clear win", thresh.P99, static.P99)
	}
	if float64(rebal.P99) > 0.8*float64(static.P99) {
		t.Fatalf("rebalance p99 %d vs static %d: no clear win", rebal.P99, static.P99)
	}
	if thresh.SLOFrac <= static.SLOFrac {
		t.Fatalf("threshold SLO %.3f did not beat static %.3f", thresh.SLOFrac, static.SLOFrac)
	}
}

// crashParams is the reference crash-recovery workload: the Table 9 traffic
// without the hotspot flip (crashes are evaluated under static placement,
// which ValidateConfig enforces), with deadline retries armed.
func crashParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Load.Flips = nil
	// Availability runs operate with capacity headroom: the durable
	// protocol's checkpoint traffic plus a crash's downtime and restore
	// work tip a near-saturated open loop into metastable collapse (the
	// backlog outlives the outage and retries amplify it), which would
	// measure congestion, not recovery. The retry deadline sits above the
	// healthy p99 so retries fire only for requests an outage actually hurt.
	p.Load.MeanGap = 1000
	p.RetryAfter = 80_000
	p.MaxRetries = 8
	return p
}

// crashConfig is the checkpoint+retry configuration: fail-stop crashes on a
// reliable network with periodic checkpoints.
func crashConfig(seed uint64) core.Config {
	cfg := core.DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = &sim.Faults{Seed: seed, CrashEvery: 400_000, CrashLen: 8_000}
	cfg.CheckpointPeriod = 5_000
	return cfg
}

// TestCrashRecoveryExactlyOnce: under fail-stop crashes with checkpointing
// and retries, every request eventually completes, every lost object is
// restored, and every RMW applies exactly once (Run itself also checks the
// per-key Val == len(ids) invariant).
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	r := Run(machine.CM5(), crashConfig(11), crashParams(1995))
	if r.Recovery.Crashes == 0 {
		t.Fatal("crash injection inert: no crash windows opened")
	}
	if r.Recovery.RestoredObjects != r.Recovery.LostObjects {
		t.Fatalf("restored %d of %d lost objects", r.Recovery.RestoredObjects, r.Recovery.LostObjects)
	}
	if r.Lost != 0 {
		t.Fatalf("%d requests lost despite checkpoint+retry", r.Lost)
	}
	if r.Applied != r.RMWs {
		t.Fatalf("applied %d of %d issued RMWs", r.Applied, r.RMWs)
	}
	if r.Retries == 0 {
		t.Fatal("no retries fired under crashes")
	}
}

// TestCrashDeterministic: equal seeds reproduce the crash/recovery run
// byte for byte.
func TestCrashDeterministic(t *testing.T) {
	a := Run(machine.CM5(), crashConfig(11), crashParams(1995))
	b := Run(machine.CM5(), crashConfig(11), crashParams(1995))
	if scalars(a) != scalars(b) {
		t.Fatalf("same Params produced different results:\n%+v\n%+v", scalars(a), scalars(b))
	}
	if *a.Hist != *b.Hist {
		t.Fatal("same Params produced different latency histograms")
	}
}

// TestCrashNoRecoveryLosesRequests: the no-recovery baseline — crashes with
// neither checkpoints nor retries — must lose requests outright (the
// availability gap Table 10 quantifies).
func TestCrashNoRecoveryLosesRequests(t *testing.T) {
	p := crashParams(1995)
	p.RetryAfter, p.MaxRetries = 0, 0
	cfg := crashConfig(11)
	cfg.CheckpointPeriod = 0
	r := Run(machine.CM5(), cfg, p)
	if r.Recovery.Crashes == 0 {
		t.Fatal("crash injection inert")
	}
	if r.Lost == 0 {
		t.Fatal("no-recovery configuration lost nothing — crash windows are not destructive")
	}
}

// TestCrashSetupRunReturns runs the benchmark's serve-crash configuration
// (crashParams with a 40,000-cycle SLO, crashes, checkpoints and retries)
// at Horizon 1, the call bench/workloads.go makes to time the set-up alone,
// at four seeds. Such a run issues no request, so only the engine's
// services are left: the checkpoint tick and the crash generator
// reschedule themselves while PendingWork counts real work, and an
// over-count would keep them going forever. Each run must return within a
// minute and lose nothing.
func TestCrashSetupRunReturns(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1995} {
		p := crashParams(seed)
		p.SLO = 40_000
		p.Load.Horizon = 1
		done := make(chan Result, 1)
		go func() { done <- Run(machine.CM5(), crashConfig(uint64(seed)), p) }()
		select {
		case r := <-done:
			if r.Lost != 0 || r.Applied != r.RMWs {
				t.Errorf("seed %d: %d of %d requests lost, %d of %d RMWs applied",
					seed, r.Lost, r.Requests, r.Applied, r.RMWs)
			}
		case <-time.After(time.Minute):
			t.Fatalf("seed %d: the set-up run did not return within a minute", seed)
		}
	}
}

// TestChaosReliable: on a lossy, stalling, browning-out network with the
// reliable layer on, every request still completes and every RMW applies
// exactly once — drops surface as tail latency, not lost or doubled writes.
func TestChaosReliable(t *testing.T) {
	cfg := core.DefaultHybrid()
	cfg.Faults = chaos.Faults(7, 0.01)
	cfg.Reliable = true
	cfg.Migration = ThresholdPolicy()
	r := Run(machine.CM5(), cfg, DefaultParams(1995))
	if r.Applied != r.RMWs {
		t.Fatalf("under faults: applied %d of %d issued RMWs", r.Applied, r.RMWs)
	}
	if r.Stats.DropsSeen == 0 || r.Stats.Retransmits == 0 {
		t.Fatalf("fault injection inert: drops=%d retx=%d", r.Stats.DropsSeen, r.Stats.Retransmits)
	}
}
