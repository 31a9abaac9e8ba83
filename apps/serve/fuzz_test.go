package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/sim"
)

// fuzzSchedule decodes one generated fault schedule into a small reliable
// serving run: four nodes, 64 keys, a 300K-cycle arrival horizon. drop, dup
// and reorder are per-frame probabilities of up to 10% (reordered frames
// are delayed by up to jitter+1 cycles). A non-zero stall opens full-stall
// windows on every node, a non-zero crash opens fail-stop crash windows,
// and ckpt sets the checkpoint period. A crashing schedule always
// checkpoints and arms deadline retries, since without them a crash loses
// requests by design.
func fuzzSchedule(seed uint64, drop, dup, reorder uint8, jitter uint16, stall, crash uint8, ckpt uint16) (core.Config, Params) {
	prob := func(b uint8) float64 { return float64(b) / 255 * 0.1 }
	f := &sim.Faults{
		Seed:      seed,
		Drop:      prob(drop),
		Dup:       prob(dup),
		Reorder:   prob(reorder),
		JitterMax: 1 + sim.Time(jitter%4000),
	}
	if stall != 0 {
		f.StallEvery = 20_000 + 2_000*sim.Time(stall)
		f.StallLen = 50 * sim.Time(stall)
	}
	cfg := core.DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = f
	cfg.CheckpointPeriod = core.Instr(ckpt % 16_000)

	p := DefaultParams(int64(seed % 1_000_000))
	p.Nodes, p.Keys = 4, 64
	p.Load.Flips = nil
	p.Load.MeanGap = 1000
	p.Load.Horizon = 300_000
	p.SLO = 40_000
	if crash != 0 {
		f.CrashEvery = 50_000 + 4_000*sim.Time(crash)
		f.CrashLen = 500 + 40*sim.Time(crash)
		cfg.CheckpointPeriod += 150
		p.RetryAfter, p.MaxRetries = 80_000, 8
	}
	return cfg, p
}

// FuzzReliable runs the reliable layer, the crash-recovery protocol and the
// serving harness under generated fault schedules (see fuzzSchedule). Every
// read-modify-write must apply exactly once and no request may be lost,
// whatever the network and the crashes did; a crash-free run must also
// quiesce with every link drained, which Run checks itself; and a rerun
// must reproduce the run's transcript. The committed corpus under
// testdata/fuzz/FuzzReliable seeds the target, so plain go test replays it
// offline; make fuzz explores from it.
func FuzzReliable(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, reorder uint8, jitter uint16, stall, crash uint8, ckpt uint16) {
		cfg, p := fuzzSchedule(seed, drop, dup, reorder, jitter, stall, crash, ckpt)
		r := Run(machine.CM5(), cfg, p)
		if r.RMWs == 0 {
			t.Fatalf("empty run: %+v", scalars(r))
		}
		if r.Applied != r.RMWs {
			t.Fatalf("applied %d of %d issued RMWs", r.Applied, r.RMWs)
		}
		if r.Lost != 0 {
			t.Fatalf("%d of %d requests lost", r.Lost, r.Requests)
		}
		a := exp.Fingerprint(serveTranscript(cfg, p))
		if b := exp.Fingerprint(serveTranscript(cfg, p)); a != b {
			t.Fatalf("rerun fingerprint %s, first run %s", b, a)
		}
	})
}
