package obsv_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/apps/sor"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/trace"
)

func runSOR(t *testing.T, m *obsv.Metrics) sor.Result {
	t.Helper()
	cfg := core.DefaultHybrid()
	if m != nil {
		m.Install(&cfg)
	}
	return sor.Run(machine.CM5(), cfg, sor.Params{G: 32, P: 4, B: 4, Iters: 3})
}

// TestAttributionSumsToClock: the headline invariant — per-node attributed
// cycles are contiguous and sum to each node's final virtual clock, and
// machine-wide they equal the run's own instruction counters.
func TestAttributionSumsToClock(t *testing.T) {
	m := obsv.New()
	r := runSOR(t, m)
	if err := m.CheckAttribution(); err != nil {
		t.Fatal(err)
	}
	var counted int64
	for op := instr.Op(0); op < instr.NumOps; op++ {
		counted += int64(r.Counters[op])
	}
	if got := m.TotalAttributed(); got != counted {
		t.Fatalf("attributed %d != counters %d", got, counted)
	}
	if got, want := machine.CM5().Seconds(instr.Instr(m.MaxClock())), r.Seconds; got != want {
		t.Fatalf("metrics max clock gives %.9fs, run reported %.9fs", got, want)
	}
	// The kernel's methods must show up with cycles and counters.
	found := false
	for _, mp := range m.Methods() {
		if strings.HasPrefix(mp.Name, "sor.") && mp.Cycles > 0 && mp.Invokes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no sor method attributed any cycles")
	}
}

// TestZeroPerturbation: installing the observability layer must not change
// the simulated run at all.
func TestZeroPerturbation(t *testing.T) {
	plain := runSOR(t, nil)
	observed := runSOR(t, obsv.New())
	if plain.Seconds != observed.Seconds || plain.Checksum != observed.Checksum ||
		plain.Messages != observed.Messages || plain.Counters != observed.Counters {
		t.Fatalf("observability perturbed the run:\nplain    %+v\nobserved %+v", plain, observed)
	}
}

// TestCriticalPathPartition: the walker partitions the parallel completion
// time exactly into compute + network + waits + idle.
func TestCriticalPathPartition(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)
	p := m.CriticalPath()
	if p.Incomplete {
		t.Fatal("path incomplete on an untruncated run")
	}
	if p.Total != m.MaxClock() {
		t.Fatalf("path total %d != max clock %d", p.Total, m.MaxClock())
	}
	if sum := p.Compute + p.Network + p.FutureWait + p.LockWait + p.Idle; sum != p.Total {
		t.Fatalf("partition %d != total %d (compute %d network %d future %d lock %d idle %d)",
			sum, p.Total, p.Compute, p.Network, p.FutureWait, p.LockWait, p.Idle)
	}
	if p.Compute <= 0 {
		t.Fatal("critical path has no compute")
	}
	if p.Hops == 0 {
		t.Fatal("a 16-node SOR critical path should cross the network")
	}
}

// TestCriticalPathLockWait: a quiet gap entered by parking on a held lock
// is lock wait, and the same gap with no lock-park is idle. Node 0 runs the
// holder over [0,10) and parks at 5, sits idle over [10,20), then runs the
// waiter over [20,30).
func TestCriticalPathLockWait(t *testing.T) {
	for _, parked := range []bool{true, false} {
		m := obsv.New()
		m.ObserveCharge(0, 0, "holder", uint8(instr.OpWork), 10)
		if parked {
			m.Record(0, 5, uint8(trace.KLockBlock), "holder", 0)
		}
		m.ObserveCharge(0, 10, "", uint8(instr.OpIdle), 10)
		m.ObserveCharge(0, 20, "waiter", uint8(instr.OpWork), 10)
		p := m.CriticalPath()
		lockWait, idle := int64(10), int64(0)
		if !parked {
			lockWait, idle = 0, 10
		}
		if p.Total != 30 || p.Compute != 20 || p.LockWait != lockWait || p.Idle != idle ||
			p.Network != 0 || p.FutureWait != 0 || p.Incomplete {
			t.Fatalf("parked=%v: critical path %+v, want compute 20, lock wait %d, idle %d",
				parked, p, lockWait, idle)
		}
	}
}

// TestPerfettoSchema: the export is valid trace_event JSON — an object with
// a traceEvents array whose entries all carry name/ph/pid/tid and a known
// phase.
func TestPerfettoSchema(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)
	var buf bytes.Buffer
	if err := m.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  *int    `json:"pid"`
			Tid  *int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	phases := map[string]bool{}
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("malformed event: %+v", e)
		}
		switch e.Ph {
		case "M", "X", "i":
			phases[e.Ph] = true
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
	}
	for _, ph := range []string{"M", "X"} {
		if !phases[ph] {
			t.Fatalf("export has no %q events", ph)
		}
	}
}

// TestTruncationIsHonest: when the interval cap bites, aggregates stay
// exact and the path is flagged, not silently wrong.
func TestTruncationIsHonest(t *testing.T) {
	// A cap of 8 truncates before the first message is sent; 20000
	// truncates midway, with arrivals recorded and messages in flight.
	for _, limit := range []int{8, 20_000} {
		m := obsv.New()
		m.SetMaxIntervals(limit)
		r := runSOR(t, m)
		if !m.Truncated() {
			t.Fatalf("cap %d did not truncate", limit)
		}
		if err := m.CheckAttribution(); err != nil {
			t.Fatal(err)
		}
		var counted int64
		for op := instr.Op(0); op < instr.NumOps; op++ {
			counted += int64(r.Counters[op])
		}
		if got := m.TotalAttributed(); got != counted {
			t.Fatalf("cap %d: truncation broke aggregates: %d != %d", limit, got, counted)
		}
		p := m.CriticalPath()
		if !p.Incomplete {
			t.Fatalf("cap %d: truncated run must flag the path incomplete", limit)
		}
		if p.Compute+p.Network+p.FutureWait+p.LockWait+p.Idle != p.Total {
			t.Fatalf("cap %d: partition invariant must hold even when incomplete", limit)
		}
		// Only the walker reads arrivals, lock blocks and in-flight sends,
		// so truncation released them, and later events must not grow them
		// again.
		if a, l, f := m.WalkerLogs(); a != 0 || l != 0 || f != 0 {
			t.Fatalf("cap %d: truncated run kept %d arrivals, %d lock blocks, %d in-flight sends", limit, a, l, f)
		}
		end := instr.Instr(m.MaxClock())
		m.Record(0, end, uint8(trace.KMsgSend), "sor.x", trace.PackMsg(1, 1<<20, 3))
		m.Record(1, end+5, uint8(trace.KMsgRecv), "sor.x", trace.PackMsg(0, 1<<20, 3))
		m.Record(1, end+6, uint8(trace.KLockBlock), "sor.x", 0)
		if a, l, f := m.WalkerLogs(); a != 0 || l != 0 || f != 0 {
			t.Fatalf("cap %d: after truncation the logs grew to %d arrivals, %d lock blocks, %d in-flight sends",
				limit, a, l, f)
		}
	}
}

// TestInFlightDrains: every send of a fault-free run is received, and its
// receive takes it out of the in-flight table, so the table ends empty, with
// one arrival kept per receive.
func TestInFlightDrains(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)
	if m.Truncated() {
		t.Fatal("SOR run truncated")
	}
	arrivals, _, inFlight := m.WalkerLogs()
	if inFlight != 0 {
		t.Fatalf("%d sends still in flight after a fault-free run", inFlight)
	}
	if int64(arrivals) != m.Count(trace.KMsgRecv) || arrivals == 0 {
		t.Fatalf("kept %d arrivals for %d receives", arrivals, m.Count(trace.KMsgRecv))
	}
}
