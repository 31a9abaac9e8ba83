package obsv_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"testing"

	"repro/apps/serve"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWritePerfettoByteStable: the Perfetto export is part of the repo's
// bit-determinism surface. Exporting one observed run twice must produce
// identical bytes, and two same-seed runs must export identical bytes too —
// node tracks, exec slices and instants all emit in a pinned order, never in
// a container's incidental one.
func TestWritePerfettoByteStable(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)

	var first, second bytes.Buffer
	if err := m.WritePerfetto(&first); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePerfetto(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two exports of the same run differ byte-for-byte")
	}

	m2 := obsv.New()
	runSOR(t, m2)
	var rerun bytes.Buffer
	if err := m2.WritePerfetto(&rerun); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), rerun.Bytes()) {
		t.Fatalf("same-seed runs exported different traces (%d vs %d bytes)", first.Len(), rerun.Len())
	}

	// The bytes must also be a loadable trace_event file with one
	// thread_name track per observed node.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	lastTid := -1
	tracks := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if ev.Tid <= lastTid {
				t.Fatalf("thread_name tracks out of order: tid %d after %d", ev.Tid, lastTid)
			}
			lastTid = ev.Tid
			tracks++
		}
	}
	if tracks != m.NumNodes() {
		t.Fatalf("want %d thread_name tracks, got %d", m.NumNodes(), tracks)
	}
}

// oracleEv is one trace_event entry as the original exporter declared it.
type oracleEv struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// writePerfettoOracle is the original exporter: it builds every event and
// encodes the whole document with one encoding/json call. WritePerfetto
// must produce the same bytes.
func writePerfettoOracle(m *obsv.Metrics, w io.Writer) error {
	evs := []oracleEv{}
	for id := 0; id < m.NumNodes(); id++ {
		evs = append(evs, oracleEv{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]any{"name": "node " + strconv.Itoa(id)},
		})
	}
	for id := 0; id < m.NumNodes(); id++ {
		for _, iv := range m.RetainedIntervals(id) {
			name := iv.Method
			if name == "" {
				name = "(runtime)"
			}
			evs = append(evs, oracleEv{
				Name: name, Ph: "X", Ts: iv.Start, Dur: iv.End - iv.Start,
				Pid: 1, Tid: id, Cat: "exec",
			})
		}
	}
	for _, in := range m.RetainedInstants() {
		evs = append(evs, oracleEv{
			Name: in.Kind.String(), Ph: "i", Ts: in.At, Pid: 1, Tid: int(in.Node),
			Cat: "event", Scope: "t",
			Args: map[string]any{
				"method": in.Method,
				"aux":    in.Aux,
				"aux?":   trace.AuxMeaning(in.Kind),
			},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []oracleEv `json:"traceEvents"`
		DisplayTimeUnit string     `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// exportBoth returns WritePerfetto's bytes and the oracle's.
func exportBoth(t *testing.T, m *obsv.Metrics) (got, want []byte) {
	t.Helper()
	var g, w bytes.Buffer
	if err := m.WritePerfetto(&g); err != nil {
		t.Fatal(err)
	}
	if err := writePerfettoOracle(m, &w); err != nil {
		t.Fatal(err)
	}
	return g.Bytes(), w.Bytes()
}

// firstDiff describes where two byte slices first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return "at byte " + strconv.Itoa(i) + ":\n got  " + string(got[lo:min(i+60, len(got))]) +
		"\n want " + string(want[lo:min(i+60, len(want))])
}

// TestPerfettoMatchesOracle: on a whole kernel run the export equals the
// original encoding/json encoder byte for byte.
func TestPerfettoMatchesOracle(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)
	got, want := exportBoth(t, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("export differs from the oracle (%d vs %d bytes) %s", len(got), len(want), firstDiff(got, want))
	}
}

// TestWritePerfettoAllocs: the export streams, so its allocations do not
// grow with the run: a writer, a scratch buffer and one encoding per
// distinct string.
func TestWritePerfettoAllocs(t *testing.T) {
	m := obsv.New()
	runSOR(t, m)
	intervals := 0
	for id := 0; id < m.NumNodes(); id++ {
		intervals += len(m.RetainedIntervals(id))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := m.WritePerfetto(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("exporting %d intervals made %.0f allocations, want at most 64", intervals, allocs)
	}
	t.Logf("exporting %d intervals made %.0f allocations", intervals, allocs)
}

// TestPerfettoOracleEscaping: hand-fed events whose strings need JSON and
// HTML escaping, plus a zero-cost charge (which must carry no dur key),
// export exactly as the oracle encodes them.
func TestPerfettoOracleEscaping(t *testing.T) {
	const odd = "q<a>&\"b\"\\ é→\u2028\x7f\xff"
	work, idle := uint8(instr.OpWork), uint8(instr.OpIdle)
	m := obsv.New()
	m.ObserveCharge(0, 0, odd, work, 10)
	m.ObserveCharge(0, 10, "", work, 5)
	m.ObserveCharge(0, 15, "zero", work, 0)
	m.ObserveCharge(0, 15, "", idle, 5)
	m.ObserveCharge(1, 0, "", idle, 3)
	m.ObserveCharge(1, 3, odd, work, 4)
	m.Record(1, 5, uint8(trace.KDrop), odd, 42)
	m.Record(0, 7, uint8(trace.KMigrateStart), "", -3)
	m.Record(2, 9, uint8(trace.KRetransmit), "zero", 2)

	got, want := exportBoth(t, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("export differs from the oracle %s", firstDiff(got, want))
	}
	zero := `{"name":"zero","ph":"X","ts":15,"pid":1,"tid":0,"cat":"exec"}`
	if !bytes.Contains(got, []byte(zero)) {
		t.Fatalf("zero-cost charge not exported as %s:\n%s", zero, got)
	}
	for _, esc := range []string{`\u003c`, `\u0026`, `\"`, `\\`, `\u2028`, `\ufffd`} {
		if !bytes.Contains(got, []byte(esc)) {
			t.Fatalf("export lacks escape %s:\n%s", esc, got)
		}
	}
}

// TestPerfettoServeGolden pins the export of a small lossy serving run (drop
// and retransmit instants included) against a committed capture.
func TestPerfettoServeGolden(t *testing.T) {
	m := obsv.New()
	cfg := core.DefaultHybrid()
	cfg.Reliable = true
	cfg.Faults = &sim.Faults{Drop: 0.05, Dup: 0.02}
	m.Install(&cfg)
	p := serve.DefaultParams(7)
	p.Nodes = 4
	p.Load.Horizon = 20_000
	serve.Run(machine.CM5(), cfg, p)
	if m.Truncated() || m.Count(trace.KDrop) == 0 || m.Count(trace.KRetransmit) == 0 {
		t.Fatalf("golden run must be untruncated with drops and retransmits (truncated %v, drops %d, retransmits %d)",
			m.Truncated(), m.Count(trace.KDrop), m.Count(trace.KRetransmit))
	}
	got, oracle := exportBoth(t, m)
	if !bytes.Equal(got, oracle) {
		t.Fatalf("export differs from the oracle %s", firstDiff(got, oracle))
	}
	want, err := os.ReadFile("testdata/perfetto_serve.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export differs from testdata/perfetto_serve.golden.json (%d vs %d bytes) %s",
			len(got), len(want), firstDiff(got, want))
	}
}
