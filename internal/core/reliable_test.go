package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lossFaults is the standard lossy network used by these tests: drops,
// duplicates and reordering all at once.
func lossFaults(seed uint64, loss float64) *sim.Faults {
	return &sim.Faults{
		Seed:      seed,
		Drop:      loss,
		Dup:       loss / 2,
		Reorder:   loss,
		JitterMax: 500,
	}
}

// runChurnReliable runs the churn workload (each of `objects` cells bumped
// exactly `rounds` times) under cfg and asserts completion, quiescence, and
// that every bump was applied exactly once — the exactly-once invariant made
// observable as state.
func runChurnReliable(t *testing.T, cfg Config, nodes, objects int, rounds int64) *RT {
	t.Helper()
	p := NewProgram()
	driver, _ := buildChurn(p)
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(nodes)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = rt.Node(i % nodes).NewObject(&cellState{})
	}
	d := rt.Node(0).NewObject(&churnState{targets: refs})
	var res Result
	rt.StartOn(0, driver, d, &res, IntW(rounds))
	rt.Run()
	if !res.Done {
		t.Fatal("churn driver did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	// buildChurn strides by 7; with gcd(7, objects) == 1 every cell is hit
	// exactly `rounds` times. A lost request would leave a cell short; a
	// doubly-executed handler would overshoot.
	for i, ref := range refs {
		if v := rt.StateOf(ref).(*cellState).v; v != rounds {
			t.Fatalf("cell %d bumped %d times, want exactly %d", i, v, rounds)
		}
	}
	return rt
}

// TestReliableNoFaults: the reliable layer on a clean network delivers the
// same results with zero retransmissions and zero suppressed duplicates.
func TestReliableNoFaults(t *testing.T) {
	cfg := DefaultHybrid()
	cfg.Reliable = true
	rt := runChurnReliable(t, cfg, 4, 5, 6)
	s := rt.TotalStats()
	if s.Retransmits != 0 {
		t.Fatalf("Retransmits = %d on a clean network, want 0", s.Retransmits)
	}
	if s.DupSuppressed != 0 {
		t.Fatalf("DupSuppressed = %d on a clean network, want 0", s.DupSuppressed)
	}
	if s.AcksSent == 0 {
		t.Fatal("AcksSent = 0: the reliable layer never acked anything")
	}
}

// TestReliableSurvivesLoss is the tentpole end-to-end check: a lossy,
// duplicating, reordering network under the full hybrid model with chaotic
// migration, and every handler still runs exactly once.
func TestReliableSurvivesLoss(t *testing.T) {
	cfg := DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = lossFaults(11, 0.05)
	cfg.Migration = &chaosPolicy{lcg: 99, every: 5}
	rt := runChurnReliable(t, cfg, 4, 5, 8)
	s := rt.TotalStats()
	fs := rt.Eng.FaultStats()
	if fs.Drops == 0 {
		t.Fatal("the fault layer dropped nothing at 5% loss")
	}
	if s.DropsSeen != fs.Drops {
		t.Fatalf("DropsSeen = %d, engine counted %d drops", s.DropsSeen, fs.Drops)
	}
	if s.Retransmits == 0 {
		t.Fatal("messages were dropped but nothing was retransmitted")
	}
	if s.MaxBackoff == 0 {
		t.Fatal("retransmissions happened but MaxBackoff was never recorded")
	}
	if s.DupSuppressed == 0 {
		t.Fatal("duplicates were injected (or retransmits raced acks) but none were suppressed")
	}
}

// TestReliableDupOnly: a duplicate-only network needs no retransmissions,
// only suppression — and must suppress every injected duplicate.
func TestReliableDupOnly(t *testing.T) {
	cfg := DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = &sim.Faults{Seed: 5, Dup: 0.2}
	rt := runChurnReliable(t, cfg, 3, 5, 6)
	s := rt.TotalStats()
	fs := rt.Eng.FaultStats()
	if fs.Dups == 0 {
		t.Fatal("no duplicates injected at 20% dup rate")
	}
	if s.Retransmits != 0 {
		t.Fatalf("Retransmits = %d with no drops, want 0", s.Retransmits)
	}
	// Not every injected duplicate shows up in DupSuppressed: duplicated ack
	// frames are absorbed idempotently in recvAck without being counted. The
	// state check in runChurnReliable is the real exactly-once assertion.
	if s.DupSuppressed == 0 {
		t.Fatal("duplicates were injected but none were suppressed")
	}
}

// TestMsgWords pins the modeled payload size of every message kind — these
// sizes feed every transport charge in the cost model, so a drift here
// silently changes all the tables.
func TestMsgWords(t *testing.T) {
	cases := []struct {
		name string
		msg  *Msg
		want int
	}{
		{"request/0 args", &Msg{kind: msgRequest}, 4},
		{"request/3 args", &Msg{kind: msgRequest, args: make([]Word, 3)}, 7},
		{"reply", &Msg{kind: msgReply, val: IntW(1)}, 2},
		{"moved", &Msg{kind: msgMoved, loc: 3, ver: 2}, 3},
		{"migrate/default payload", &Msg{kind: msgMigrate, obj: &Object{State: &cellState{}}}, 4 + DefaultMigrateWords},
		{"migrate/sized payload", &Msg{kind: msgMigrate, obj: &Object{State: sized(17)}}, 4 + 17},
	}
	for _, c := range cases {
		if got := c.msg.words(); got != c.want {
			t.Errorf("%s: words() = %d, want %d", c.name, got, c.want)
		}
	}
	// The reliable layer's framing overheads are part of the same contract.
	if relSeqWords != 1 {
		t.Errorf("relSeqWords = %d, want 1 (one sequence-header word per data frame)", relSeqWords)
	}
	if ackWords != 2 {
		t.Errorf("ackWords = %d, want 2 (link id + cumulative cursor)", ackWords)
	}
}

// sized is a Migratable test state with an explicit serialized size.
type sized int

func (s sized) MigrateWords() int { return int(s) }

// traceChurn runs the churn workload with a tracer installed and returns the
// recorded events plus the completion time.
func traceChurn(t *testing.T, faults *sim.Faults) ([]trace.Event, sim.Time) {
	t.Helper()
	p := NewProgram()
	driver, _ := buildChurn(p)
	cfg := DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = faults
	cfg.Migration = &chaosPolicy{lcg: 7, every: 4}
	buf := trace.NewBuffer(1 << 18)
	cfg.Tracer = buf
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(4)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	refs := make([]Ref, 5)
	for i := range refs {
		refs[i] = rt.Node(i % 4).NewObject(&cellState{})
	}
	d := rt.Node(0).NewObject(&churnState{targets: refs})
	var res Result
	rt.StartOn(0, driver, d, &res, IntW(6))
	rt.Run()
	if !res.Done {
		t.Fatal("churn driver did not complete")
	}
	if buf.Dropped != 0 {
		t.Fatalf("trace overflowed (%d dropped): grow the buffer", buf.Dropped)
	}
	return buf.AppendTo(make([]trace.Event, 0, buf.Len())), rt.Eng.MaxClock()
}

// TestDeterministicReplay is the reproducibility regression: the same seed
// and fault configuration must yield a byte-identical event trace and the
// same completion time across two runs — loss-free and at 5% loss.
func TestDeterministicReplay(t *testing.T) {
	cases := []struct {
		name   string
		faults func() *sim.Faults
	}{
		{"loss-free", func() *sim.Faults { return nil }},
		{"5% loss", func() *sim.Faults { return lossFaults(23, 0.05) }},
	}
	for _, c := range cases {
		ev1, t1 := traceChurn(t, c.faults())
		ev2, t2 := traceChurn(t, c.faults())
		if t1 != t2 {
			t.Fatalf("%s: completion times differ: %d vs %d", c.name, t1, t2)
		}
		if len(ev1) != len(ev2) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", c.name, len(ev1), len(ev2))
		}
		if !reflect.DeepEqual(ev1, ev2) {
			for i := range ev1 {
				if ev1[i] != ev2[i] {
					t.Fatalf("%s: traces diverge at event %d: %+v vs %+v", c.name, i, ev1[i], ev2[i])
				}
			}
		}
	}
}

// TestValidateConfig pins the fail-fast configuration errors (satellite:
// these used to surface as panics deep inside a run, or not at all).
func TestValidateConfig(t *testing.T) {
	mdl := machine.CM5()
	cases := []struct {
		name string
		mdl  *machine.Model
		mut  func(*Config)
		want string // substring of the error; "" means must validate
	}{
		{"nil model", nil, func(c *Config) {}, "machine model is nil"},
		{"negative migration period", mdl, func(c *Config) { c.MigrationPeriod = -1 }, "MigrationPeriod"},
		{"period without policy", mdl, func(c *Config) { c.MigrationPeriod = 100 }, "without a Migration policy"},
		{"negative max words", mdl, func(c *Config) { c.MaxMsgWords = -1 }, "MaxMsgWords"},
		{"negative hop bound", mdl, func(c *Config) { c.MaxForwardHops = -2 }, "MaxForwardHops"},
		{"drop probability out of range", mdl, func(c *Config) { c.Faults = &sim.Faults{Drop: 1.5}; c.Reliable = true }, "out of range"},
		{"lossy without reliable", mdl, func(c *Config) { c.Faults = &sim.Faults{Drop: 0.01} }, "Reliable is off"},
		{"crashes without reliable", mdl, func(c *Config) { c.Faults = &sim.Faults{CrashEvery: 1000, CrashLen: 100} }, "Reliable is off"},
		{"crashes with migration", mdl, func(c *Config) {
			c.Reliable = true
			c.Faults = &sim.Faults{CrashEvery: 1000, CrashLen: 100}
			c.Migration = &chaosPolicy{}
		}, "without migration"},
		{"negative checkpoint period", mdl, func(c *Config) { c.CheckpointPeriod = -1 }, "CheckpointPeriod"},
		{"crash window too long", mdl, func(c *Config) {
			c.Reliable = true
			c.Faults = &sim.Faults{CrashEvery: 100, CrashLen: 100}
		}, "CrashLen"},
		{"valid default", mdl, func(c *Config) {}, ""},
		{"valid lossy reliable", mdl, func(c *Config) { c.Faults = lossFaults(1, 0.05); c.Reliable = true }, ""},
		{"valid crashy checkpointed", mdl, func(c *Config) {
			c.Reliable = true
			c.Faults = &sim.Faults{CrashEvery: 100_000, CrashLen: 5_000}
			c.CheckpointPeriod = 5_000
		}, ""},
	}
	for _, c := range cases {
		cfg := DefaultHybrid()
		c.mut(&cfg)
		err := ValidateConfig(c.mdl, cfg)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: config validated, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestForwardHopBound: a request that exceeds the forwarding-chain bound
// must fail loudly with a traced KHopLimit event, not ricochet forever.
func TestForwardHopBound(t *testing.T) {
	p := NewProgram()
	buildFib(p)
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHybrid()
	cfg.MaxForwardHops = 4
	buf := trace.NewBuffer(64)
	cfg.Tracer = buf
	eng := sim.NewEngine(2)
	rt := NewRT(eng, machine.CM5(), p, cfg)
	ref := rt.Node(0).NewObject(&cellState{})
	stub := &Object{Ref: ref, away: true, fwdTo: 1, fwdVer: 1, wantMove: -1}
	rt.Node(0).installEntry(ref, stub)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("forwardRequest accepted a request past the hop bound")
		}
		if !strings.Contains(r.(string), "exceeded forwarding bound") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if buf.Count(trace.KHopLimit) != 1 {
			t.Fatalf("KHopLimit count = %d, want 1", buf.Count(trace.KHopLimit))
		}
	}()
	msg := &Msg{kind: msgRequest, target: ref, from: 1, hops: 4}
	rt.forwardRequest(rt.Node(0), msg, stub)
}
