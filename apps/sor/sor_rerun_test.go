package sor

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

// sorTranscript runs the small SOR kernel under a tracer and flattens the
// run's observable surface — trace Timeline, NodeStats, checksum — into one
// transcript string for exp.CheckRerun.
func sorTranscript() string {
	buf := trace.NewBuffer(1 << 16)
	cfg := core.DefaultHybrid()
	cfg.Tracer = buf
	r := Run(machine.CM5(), cfg, Params{G: 16, P: 2, B: 2, Iters: 2})
	var sb strings.Builder
	buf.Timeline(&sb, 0, 0)
	fmt.Fprintf(&sb, "stats %+v\nchecksum %v\nmessages %d\n", r.Stats, r.Checksum, r.Messages)
	return sb.String()
}

// sorTranscriptPin is exp.Fingerprint(sorTranscript()). A change that
// moves the trace, NodeStats or the checksum on purpose re-pins it, and the
// diff is the review record.
const sorTranscriptPin = "bd7c1ca859c5eee8"

// TestSORRerunDeterministic is the dynamic backstop for the static detrand
// and cellshare passes: the transcript — the full trace Timeline plus
// NodeStats and the checksum — must match its pin, and two same-seed runs
// must be byte-identical.
func TestSORRerunDeterministic(t *testing.T) {
	if got := exp.Fingerprint(sorTranscript()); got != sorTranscriptPin {
		t.Fatalf("transcript fingerprint %s, pinned %s", got, sorTranscriptPin)
	}
	if err := exp.CheckRerun(sorTranscript); err != nil {
		t.Fatal(err)
	}
}

// TestSORRerunDeterministicParallelEngine runs the same contract through the
// sharded PDES engine, twice over: two same-seed parallel runs must be
// byte-identical to each other (goroutine scheduling never reaches the
// transcript) and to the serial oracle (the engines are interchangeable).
func TestSORRerunDeterministicParallelEngine(t *testing.T) {
	serial := sorTranscript()

	defer sim.SetDefaultEngine(sim.SetDefaultEngine(sim.EngineParallel))
	defer sim.SetDefaultShards(sim.SetDefaultShards(4))
	if err := exp.CheckRerun(sorTranscript); err != nil {
		t.Fatal(err)
	}
	if par := sorTranscript(); par != serial {
		t.Fatalf("parallel transcript diverges from serial oracle: fingerprints %s vs %s",
			exp.Fingerprint(par), exp.Fingerprint(serial))
	}
}
