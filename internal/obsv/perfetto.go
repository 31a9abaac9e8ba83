// Perfetto/Chrome trace_event export: one track (tid) per simulated node,
// complete slices for execution intervals, instant events for faults,
// retransmissions and migrations. The produced JSON loads directly in
// ui.perfetto.dev or chrome://tracing. One virtual instruction is exported
// as one microsecond — times are virtual, so the unit is only a scale.
package obsv

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/trace"
)

// WritePerfetto exports the run in Chrome trace_event JSON format.
//
// The export is streamed: each event is appended to one reused buffer with
// strconv and written through a bufio.Writer, so memory does not grow with
// the run. Each distinct string is JSON-encoded once, by encoding/json.
//
// Byte stability is part of the contract: two exports of the same run — and
// two runs with the same seed — must produce identical bytes
// (TestWritePerfettoByteStable), tracks in node order, then slices in node
// order, then instants in record order. The bytes also equal an
// encoding/json encoding of the same events (TestPerfettoMatchesOracle):
// keys in a fixed order, a zero dur omitted, and args keys sorted.
func (m *Metrics) WritePerfetto(w io.Writer) error {
	p := perfettoWriter{w: bufio.NewWriter(w), quoted: map[string][]byte{}}
	p.w.WriteString(`{"traceEvents":[`)
	for id := range m.nodes {
		b := p.event()
		b = append(b, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"args":{"name":"node `...)
		b = strconv.AppendInt(b, int64(id), 10)
		p.write(append(b, `"}}`...))
	}
	for id, np := range m.nodes {
		var last uint32 // the runtime
		name := p.quote(runtimeName)
		for _, c := range np.intervals.chunks {
			for _, iv := range c {
				if iv.method != last {
					last, name = iv.method, p.quote(cmp.Or(m.name(iv.method), runtimeName))
				}
				b := p.event()
				b = append(b, `{"name":`...)
				b = append(b, name...)
				b = append(b, `,"ph":"X","ts":`...)
				b = strconv.AppendInt(b, iv.start, 10)
				if iv.dur != 0 {
					b = append(b, `,"dur":`...)
					b = strconv.AppendUint(b, uint64(iv.dur), 10)
				}
				b = append(b, `,"pid":1,"tid":`...)
				b = strconv.AppendInt(b, int64(id), 10)
				p.write(append(b, `,"cat":"exec"}`...))
			}
		}
	}
	for _, c := range m.instants.chunks {
		for _, in := range c {
			b := p.event()
			b = append(b, `{"name":`...)
			b = append(b, p.quote(in.Kind.String())...)
			b = append(b, `,"ph":"i","ts":`...)
			b = strconv.AppendInt(b, in.At, 10)
			b = append(b, `,"pid":1,"tid":`...)
			b = strconv.AppendInt(b, int64(in.Node), 10)
			b = append(b, `,"cat":"event","s":"t","args":{"aux":`...)
			b = strconv.AppendInt(b, in.Aux, 10)
			b = append(b, `,"aux?":`...)
			b = append(b, p.quote(trace.AuxMeaning(in.Kind))...)
			b = append(b, `,"method":`...)
			b = append(b, p.quote(in.Method)...)
			p.write(append(b, `}}`...))
		}
	}
	p.w.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return p.w.Flush()
}

// runtimeName labels execution outside any method body.
const runtimeName = "(runtime)"

// perfettoWriter streams the trace_event array. A bufio.Writer keeps its
// first write error and returns it from every later call, Flush included,
// so only the final Flush is checked.
type perfettoWriter struct {
	w      *bufio.Writer
	buf    []byte            // the event being built, reused
	events int               // array elements written
	quoted map[string][]byte // string -> its JSON encoding
}

// event returns the reused buffer, emptied, with the array separator the
// next element needs.
func (p *perfettoWriter) event() []byte {
	b := p.buf[:0]
	if p.events > 0 {
		b = append(b, ',')
	}
	p.events++
	return b
}

// write emits one finished element and keeps its buffer for the next.
func (p *perfettoWriter) write(b []byte) {
	p.buf = b
	p.w.Write(b)
}

// quote returns s as a JSON string. encoding/json encodes it, so HTML
// characters, U+2028/U+2029 and invalid UTF-8 escape as they always have.
func (p *perfettoWriter) quote(s string) []byte {
	q, ok := p.quoted[s]
	if !ok {
		q, _ = json.Marshal(s) // a string always marshals
		p.quoted[s] = q
	}
	return q
}
