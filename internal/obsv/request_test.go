package obsv

import (
	"testing"

	"repro/internal/instr"
	"repro/internal/stats"
	"repro/internal/trace"
)

// feedServeRun builds a tiny hand-authored two-node run:
//
//	node0: busy [0,100), idle [100,300) waiting on a reply, busy [300,400)
//	node1: idle [0,200), busy [200,250), sends the reply at 250
//	reply flight: node1@250 -> node0@300
//	request 7: arrives at 0 on node0, done at 400 on node0
func feedServeRun() *Metrics {
	m := New()
	work := uint8(instr.OpWork)
	idle := uint8(instr.OpIdle)

	m.ObserveCharge(0, 0, "serve.request", work, 100)
	m.ObserveCharge(0, 100, "", idle, 200)
	m.ObserveCharge(0, 300, "serve.request", work, 100)

	m.ObserveCharge(1, 0, "", idle, 200)
	m.ObserveCharge(1, 200, "serve.read", work, 50)

	m.Record(0, 0, uint8(trace.KReqArrive), "serve.request", 7)
	m.Record(1, 250, uint8(trace.KMsgSend), "serve.read", trace.PackMsg(0, 5, 2))
	m.Record(0, 300, uint8(trace.KMsgRecv), "", trace.PackMsg(1, 5, 2)) // "" = reply
	m.Record(0, 400, uint8(trace.KReqDone), "serve.request", 7)
	return m
}

func TestRequestPairing(t *testing.T) {
	m := feedServeRun()
	if err := m.CheckAttribution(); err != nil {
		t.Fatal(err)
	}
	h := m.RequestLatencies()
	if h.Count() != 1 {
		t.Fatalf("latency count %d, want 1", h.Count())
	}
	relErr := stats.RelErr // typed, so the truncating conversion is legal
	bound := int64(relErr*400) + 1
	if got := h.Quantile(0.5); got < 400-bound || got > 400+bound {
		t.Fatalf("latency %d, want ~400 within the histogram error bound", got)
	}
	reqs := m.Requests()
	if len(reqs) != 1 {
		t.Fatalf("got %d request records, want 1", len(reqs))
	}
	rq := reqs[0]
	if rq.ID != 7 || rq.Node != 0 || rq.Arrive != 0 || rq.Done != 400 {
		t.Fatalf("request record %+v", rq)
	}
	if m.RequestsDropped() != 0 {
		t.Fatalf("dropped %d", m.RequestsDropped())
	}
}

func TestReqDoneWithoutArriveIgnored(t *testing.T) {
	m := New()
	m.Record(0, 100, uint8(trace.KReqDone), "serve.request", 99)
	if m.RequestLatencies().Count() != 0 || len(m.Requests()) != 0 {
		t.Fatal("unpaired KReqDone must not record a latency")
	}
}

// TestPartitionRequest: the walker explains the request's whole span and the
// partition sums exactly.
func TestPartitionRequest(t *testing.T) {
	m := feedServeRun()
	r := m.PartitionRequest(m.Requests()[0])
	if r.Incomplete {
		t.Fatal("partition flagged incomplete")
	}
	if r.Total != 400 || r.Compute != 150 || r.Network != 50 || r.Idle != 200 ||
		r.FutureWait != 0 || r.LockWait != 0 || r.Hops != 1 {
		t.Fatalf("partition %+v", r)
	}
	if sum := r.Compute + r.Network + r.FutureWait + r.LockWait + r.Idle; sum != r.Total {
		t.Fatalf("partition does not sum: %d != %d", sum, r.Total)
	}
}

// TestPartitionWindowClamps: segments are credited only inside the window.
func TestPartitionWindowClamps(t *testing.T) {
	m := feedServeRun()

	// Entirely inside node0's trailing busy interval.
	r := m.PartitionWindow(0, 350, 400)
	if r.Total != 50 || r.Compute != 50 {
		t.Fatalf("trailing window partition %+v", r)
	}

	// The reply's send predates the floor: the remaining span is flight.
	r = m.PartitionWindow(0, 280, 400)
	if r.Total != 120 || r.Compute != 100 || r.Network != 20 || r.Hops != 1 {
		t.Fatalf("floor-crossing window partition %+v", r)
	}

	// Degenerate or out-of-range windows are zero reports, not panics.
	for _, r := range []PathReport{
		m.PartitionWindow(0, 400, 400),
		m.PartitionWindow(5, 0, 400),
		m.PartitionWindow(-1, 0, 400),
	} {
		if r.Total != 0 || r.Compute != 0 {
			t.Fatalf("degenerate window partition %+v", r)
		}
	}
}

// TestCriticalPathMatchesWalk: the whole-run critical path is the walk from
// the slowest node with floor zero (refactor guard).
func TestCriticalPathMatchesWalk(t *testing.T) {
	m := feedServeRun()
	cp := m.CriticalPath()
	if cp.Total != 400 || cp.Compute != 150 || cp.Network != 50 || cp.Idle != 200 {
		t.Fatalf("critical path %+v", cp)
	}
}

// TestRequestRecordCap: beyond the record cap the identities are dropped (and
// counted) but the histogram stays exact, and Truncated() is not raised —
// the whole-run critical path must remain available.
func TestRequestRecordCap(t *testing.T) {
	m := New()
	m.maxInstants = 4
	for id := int64(0); id < 10; id++ {
		m.Record(0, instr.Instr(id*10), uint8(trace.KReqArrive), "serve.request", id)
		m.Record(0, instr.Instr(id*10+5), uint8(trace.KReqDone), "serve.request", id)
	}
	if got := m.RequestLatencies().Count(); got != 10 {
		t.Fatalf("histogram count %d, want all 10", got)
	}
	if len(m.Requests()) != 4 || m.RequestsDropped() != 6 {
		t.Fatalf("records %d dropped %d", len(m.Requests()), m.RequestsDropped())
	}
	if m.Truncated() {
		t.Fatal("request-record overflow must not mark the run truncated")
	}
}

func TestTailRequests(t *testing.T) {
	m := New()
	for id := int64(0); id < 100; id++ {
		lat := int64(100)
		if id >= 98 {
			lat = 10_000 // two stragglers
		}
		m.Record(0, instr.Instr(id*100_000), uint8(trace.KReqArrive), "serve.request", id)
		m.Record(0, instr.Instr(id*100_000+lat), uint8(trace.KReqDone), "serve.request", id)
	}
	tail := m.TailRequests(0.97)
	if len(tail) != 2 {
		t.Fatalf("got %d tail requests, want the 2 stragglers", len(tail))
	}
	for _, r := range tail {
		if r.Done-r.Arrive != 10_000 {
			t.Fatalf("tail request %+v is not a straggler", r)
		}
	}
	if m.TailRequests(0.5) == nil {
		t.Fatal("median tail must be non-empty")
	}
}
