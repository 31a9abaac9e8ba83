package main

import (
	"strings"
	"testing"
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
