package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// TestCountTraceEvents: the -trace-out check counts the traceEvents entries
// of a valid document and rejects anything that is not one.
func TestCountTraceEvents(t *testing.T) {
	for _, c := range []struct {
		doc  string
		want int
		ok   bool
	}{
		{`{"traceEvents":[{"name":"a","args":{"x":[1,2]}},{"name":"b"}],"displayTimeUnit":"ms"}` + "\n", 2, true},
		{`{"displayTimeUnit":"ms","traceEvents":[{}]}`, 1, true},
		{`{"traceEvents":[]}`, 0, true},
		{`{"displayTimeUnit":"ms"}`, 0, true},
		{``, 0, false},
		{`{"traceEvents":[{"name":"a"},]}`, 0, false},
		{`{"traceEvents":[{"name":"a"}]`, 0, false},
		{`{"traceEvents":{"name":"a"}}`, 0, false},
		{`[{"name":"a"}]`, 0, false},
		{`{"traceEvents":[{"name":"a"}]} {}`, 0, false},
	} {
		got, err := countTraceEvents(strings.NewReader(c.doc))
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("countTraceEvents(%q) = %d, %v; want %d, ok %v", c.doc, got, err, c.want, c.ok)
		}
	}
}

// TestTailPartitionReportsDropped: requests that completed past the
// registry's record cap cannot be partitioned, so the tail header says how
// many were left out, and says nothing when every request was kept.
func TestTailPartitionReportsDropped(t *testing.T) {
	for _, c := range []struct {
		dropped int64
		left    string
	}{
		{0, ""},
		{3, "; 3 requests past the record cap left out"},
	} {
		m := obsv.New()
		for id := int64(0); id < 1000 || m.RequestsDropped() < c.dropped; id++ {
			m.Record(0, instr.Instr(id*10), uint8(trace.KReqArrive), "serve.request", id)
			m.Record(0, instr.Instr(id*10+5+id%7), uint8(trace.KReqDone), "serve.request", id)
		}
		var out bytes.Buffer
		tailPartition(&out, m, machine.CM5())
		want := fmt.Sprintf("\ntail requests (p99 and above, %d of them%s) — aggregated partition:\n",
			len(m.TailRequests(0.99)), c.left)
		if !strings.HasPrefix(out.String(), want) {
			t.Fatalf("dropped %d: output %q does not start with %q", c.dropped, out.String(), want)
		}
	}
}

// TestTraceLineReportsTruncation: the -trace-out line says when a detail-log
// cap cut the export short, here the instant cap, and says nothing of it
// when the run kept every record.
func TestTraceLineReportsTruncation(t *testing.T) {
	for _, truncated := range []bool{false, true} {
		m := obsv.New()
		m.ObserveCharge(0, 0, "sor.x", uint8(instr.OpWork), 10)
		for i := 0; i < 3 || truncated && !m.Truncated(); i++ {
			m.Record(0, instr.Instr(i), uint8(trace.KDrop), "sor.x", 1)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		var out bytes.Buffer
		if err := writeTrace(&out, m, path); err != nil {
			t.Fatal(err)
		}
		want := "trace: 5 events -> " + path + " (open in ui.perfetto.dev)\n"
		if truncated {
			want = " (open in ui.perfetto.dev); truncated: the export stops at the detail-log cap\n"
		}
		if got := out.String(); !strings.HasPrefix(got, "trace: ") || !strings.HasSuffix(got, want) {
			t.Fatalf("truncated %v: line %q, want one ending %q", truncated, got, want)
		}
	}
}
