package sim

import (
	"fmt"
	"testing"
)

// withParallel scopes the package defaults to a parallel engine with the
// given shard target for one test body.
func withParallel(t *testing.T, shards int, body func()) {
	t.Helper()
	defer SetDefaultEngine(SetDefaultEngine(EngineParallel))
	defer SetDefaultShards(SetDefaultShards(shards))
	body()
}

// parTranscript runs a ping-pong message storm across all node pairs and
// renders the observable outcome (clocks, counters, message stats, event
// count) so engines can be compared byte-wise at the sim level, with no
// runtime layer on top.
func parTranscript(nodes int, lookahead Time, parallel bool) string {
	eng := NewEngine(nodes)
	fifo := newFifo(eng, 7)
	if parallel {
		if !eng.EnableParallel(lookahead) {
			panic("EnableParallel refused")
		}
	}
	// Each node volleys a message to the next node until the hop budget runs
	// out; several interleaved volleys per node create same-instant collisions
	// between deliveries and local work.
	var volley func(n *Node, hops int)
	volley = func(n *Node, hops int) {
		if hops == 0 {
			return
		}
		to := eng.Node((n.ID + 1) % nodes)
		eng.SendAt(n, to, n.Clock, lookahead+Time(n.ID%3), 4, func() {
			fifo.push(to.ID, func(m *Node) { volley(m, hops-1) })
		})
	}
	for i := 0; i < nodes; i++ {
		n := eng.Node(i)
		for k := 0; k < 3; k++ {
			fifo.push(i, func(m *Node) { volley(m, 40) })
		}
		eng.Wake(n)
	}
	eng.Run()
	out := fmt.Sprintf("maxclock=%d events=%d msgs=%d\n",
		eng.MaxClock(), eng.EventCount(), eng.TotalMessages())
	for i := 0; i < nodes; i++ {
		n := eng.Node(i)
		out += fmt.Sprintf("node %d clock=%d sent=%d recv=%d\n", i, n.Clock, n.MsgsSent, n.MsgsRecv)
	}
	return out
}

// TestParallelEngineMatchesSerial pins byte-identity at the sim level: the
// sharded engine must produce the same clocks, counts and message statistics
// as the serial oracle for a cross-shard message storm.
func TestParallelEngineMatchesSerial(t *testing.T) {
	const lookahead = 50
	serial := parTranscript(8, lookahead, false)
	withParallel(t, 4, func() {
		if par := parTranscript(8, lookahead, true); par != serial {
			t.Fatalf("parallel transcript diverges:\nserial:\n%s\nparallel:\n%s", serial, par)
		}
	})
}

// TestTimerStopShardLocal is the regression test for Timer.Stop's
// cancelled-event compaction under concurrent shards: every node arms a pile
// of far-future timers from inside its own window events and cancels them
// there too, on two shards concurrently, while cross-shard traffic keeps
// windows rolling. Stop's counter and compaction sweep must touch only the
// owning shard's queue — the race detector fails this test if they do not —
// and no stopped timer may fire.
func TestTimerStopShardLocal(t *testing.T) {
	withParallel(t, 2, func() {
		const nodes = 4
		eng := NewEngine(nodes)
		fifo := newFifo(eng, 5)
		if !eng.EnableParallel(20) {
			t.Fatal("EnableParallel refused")
		}
		if eng.Workers() != 2 {
			t.Fatalf("workers = %d, want 2", eng.Workers())
		}
		fired := make([]int, nodes)
		for i := 0; i < nodes; i++ {
			fifo.push(i, func(n *Node) {
				// Arm enough dead weight to cross the compaction trigger,
				// then cancel it all within this node's own context.
				timers := make([]Timer, 3*compactMinQueue)
				for j := range timers {
					timers[j].Init(n, func() { fired[n.ID]++ })
					timers[j].Reset(1_000_000 + Time(j))
				}
				fifo.push(n.ID, func(m *Node) {
					for j := range timers {
						timers[j].Stop()
					}
				})
				// Cross-shard sends force real windows around the cancels.
				to := eng.Node((n.ID + nodes/2) % nodes)
				eng.SendAt(n, to, n.Clock, 20, 2, func() {})
			})
			eng.Wake(eng.Node(i))
		}
		eng.Run()
		for i, f := range fired {
			if f != 0 {
				t.Fatalf("node %d: %d stopped timers fired", i, f)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events pending after Run; cancelled timers not reclaimed", eng.Pending())
		}
		if w := eng.PendingWork(); w != 0 {
			t.Fatalf("PendingWork = %d after quiescence", w)
		}
	})
}

// TestEnableParallelGuards pins EnableParallel's refusals: wrong kind, no
// lookahead, too few nodes — and the scheduled-events panic.
func TestEnableParallelGuards(t *testing.T) {
	if e := NewEngine(8); e.EnableParallel(10) {
		t.Fatal("serial-kind engine accepted EnableParallel")
	}
	withParallel(t, 2, func() {
		if e := NewEngine(8); e.EnableParallel(0) {
			t.Fatal("zero lookahead accepted")
		}
		if e := NewEngine(1); e.EnableParallel(10) {
			t.Fatal("single-node machine accepted")
		}
		e := NewEngine(8)
		e.Schedule(5, func() {})
		defer func() {
			if recover() == nil {
				t.Fatal("EnableParallel after scheduling did not panic")
			}
		}()
		e.EnableParallel(10)
	})
}
