package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// serveTranscript runs the serving workload under a tracer and flattens the
// run's observable surface — trace Timeline, scalar results, NodeStats —
// into one transcript string for exp.CheckRerun.
func serveTranscript(cfg core.Config, p Params) string {
	buf := trace.NewBuffer(1 << 16)
	cfg.Tracer = buf
	return transcript(buf, Run(machine.CM5(), cfg, p))
}

// transcript flattens a traced run's Timeline, scalar results and NodeStats.
func transcript(buf *trace.Buffer, r Result) string {
	var sb strings.Builder
	buf.Timeline(&sb, 0, 0)
	fmt.Fprintf(&sb, "result %+v\nstats %+v\n", scalars(r), r.Stats)
	return sb.String()
}

// serveTranscriptPin is the fingerprint of the threshold-migration
// serveTranscript below. A change that moves the trace, the results or
// NodeStats on purpose re-pins it, and the diff is the review record.
const serveTranscriptPin = "d7a4a7c4e3fc2f0e"

// TestServeRerunDeterministic: the adaptive serving run — migration policy
// included — matches its pin and replays byte-identically under the same
// seed.
func TestServeRerunDeterministic(t *testing.T) {
	run := func() string {
		cfg := core.DefaultHybrid()
		cfg.Migration = ThresholdPolicy()
		return serveTranscript(cfg, DefaultParams(1995))
	}
	if got := exp.Fingerprint(run()); got != serveTranscriptPin {
		t.Fatalf("transcript fingerprint %s, pinned %s", got, serveTranscriptPin)
	}
	if err := exp.CheckRerun(run); err != nil {
		t.Fatal(err)
	}
}

// TestServeRerunDeterministicParallelEngine: the serving workload through
// the sharded PDES engine replays byte-identically and matches the serial
// oracle. The migration policy is left off deliberately — a migration policy
// forces the serial fallback, and the test would silently compare serial
// against serial.
func TestServeRerunDeterministicParallelEngine(t *testing.T) {
	run := func() string {
		return serveTranscript(core.DefaultHybrid(), DefaultParams(1995))
	}
	serial := run()

	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(4))
	if err := exp.CheckRerun(run); err != nil {
		t.Fatal(err)
	}
	if par := run(); par != serial {
		t.Fatalf("parallel transcript diverges from serial oracle: fingerprints %s vs %s",
			exp.Fingerprint(par), exp.Fingerprint(serial))
	}
}

// crashTranscriptPin is the fingerprint of the crash-recovery
// serveTranscript below: it covers the reliable layer's acks,
// retransmissions and duplicate suppression, which a comparison of two runs
// of one build cannot see move. A change that moves it on purpose re-pins
// it.
const crashTranscriptPin = "071b717bd8764439"

// TestCrashRecoveryRerunDeterministic: the crash/checkpoint/restore path —
// the most state-heavy machinery in the repo — matches its pin and replays
// byte-identically too.
func TestCrashRecoveryRerunDeterministic(t *testing.T) {
	run := func() string {
		return serveTranscript(crashConfig(11), crashParams(1995))
	}
	if got := exp.Fingerprint(run()); got != crashTranscriptPin {
		t.Fatalf("transcript fingerprint %s, pinned %s", got, crashTranscriptPin)
	}
	if err := exp.CheckRerun(run); err != nil {
		t.Fatal(err)
	}
}
