package serve

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instr"
	"repro/internal/load"
	"repro/internal/machine"
	"repro/internal/trace"
)

// winModel is what a window should hold: every request filed, with its
// running attempts and whether it has completed. Request id's keys are
// carved from one shared block, as load.Gen carves them, and always read
// {3*id, 3*id+1}.
type winModel struct {
	block   []int
	running []int32
	done    []bool
}

func (m *winModel) add(w *window) {
	id := len(m.done)
	keys := m.block[2*id : 2*id+2 : 2*id+2]
	keys[0], keys[1] = 3*id, 3*id+1
	w.add(load.Req{ID: id, At: int64(10 * id), Front: id % 3, Keys: keys})
	m.running = append(m.running, 0)
	m.done = append(m.done, false)
}

// check compares w with the model: base is the oldest unfinished request,
// every id reads finished exactly when it has completed, every request from
// base on reads back as filed, and below base exactly the finished requests
// with a running attempt remain, as stragglers whose keys live in memory of
// their own: scribbling over the request's keys in the block leaves them
// alone.
func (m *winModel) check(w *window) error {
	base := len(m.done)
	for id, d := range m.done {
		if !d {
			base = id
			break
		}
	}
	if w.base != base || w.next != len(m.done) {
		return fmt.Errorf("window [%d, %d), want [%d, %d)", w.base, w.next, base, len(m.done))
	}
	if n := len(w.slots); n&(n-1) != 0 || n < w.next-w.base {
		return fmt.Errorf("ring of %d slots for %d requests", n, w.next-w.base)
	}
	strays := 0
	for id := range m.done {
		if got := w.finished(id); got != m.done[id] {
			return fmt.Errorf("finished(%d) = %v, want %v", id, got, m.done[id])
		}
		var s *slot
		switch {
		case id >= base:
			s = w.at(id)
		case m.running[id] > 0:
			if s = w.stray[id]; s == nil {
				return fmt.Errorf("request %d retired with %d attempts running", id, m.running[id])
			}
			strays++
			k := &m.block[2*id]
			*k = -1
			aliased := s.rq.Keys[0] == -1
			*k = 3 * id
			if aliased {
				return fmt.Errorf("straggler %d aliases the block's keys", id)
			}
		default:
			continue
		}
		want := []int{3 * id, 3*id + 1}
		if s.rq.ID != id || !slices.Equal(s.rq.Keys, want) || s.running != m.running[id] || s.done != m.done[id] {
			return fmt.Errorf("request %d reads %+v running %d done %v, want keys %v running %d done %v",
				id, s.rq, s.running, s.done, want, m.running[id], m.done[id])
		}
	}
	if len(w.stray) != strays {
		return fmt.Errorf("%d stragglers, want %d", len(w.stray), strays)
	}
	return nil
}

// TestWindow drives a window through scripted attempts and checks it against
// the model after every step. A step files n requests ('a'), starts an
// attempt of request n ('s'), or ends one ('e'), which must report the
// request's first completion exactly once.
func TestWindow(t *testing.T) {
	type step struct {
		op byte
		n  int
	}
	starts := func(from, to int) []step {
		var s []step
		for id := from; id < to; id++ {
			s = append(s, step{'s', id})
		}
		return s
	}
	ends := func(from, to int) []step {
		var s []step
		for id := from; id < to; id++ {
			s = append(s, step{'e', id})
		}
		return s
	}
	cat := func(parts ...[]step) []step { return slices.Concat(parts...) }
	cases := []struct {
		name  string
		steps []step
	}{
		{"requests retire in id order", cat(
			[]step{{'a', 3}}, starts(0, 3),
			[]step{{'e', 1}, {'e', 0}, {'e', 2}})},
		{"a hedged request becomes a straggler whose keys survive its slot's reuse", cat(
			[]step{{'a', 2}, {'s', 0}, {'s', 0}, {'e', 0}, {'a', minSlots - 1}},
			starts(1, minSlots+1), ends(1, minSlots+1),
			[]step{{'e', 0}})},
		{"a crash-killed attempt leaves a straggler for good", cat(
			[]step{{'a', 3}, {'s', 0}, {'s', 1}, {'s', 2}, {'s', 1}, {'e', 1}, {'e', 0}, {'e', 2}})},
		{"an unfinished request holds the base back", cat(
			[]step{{'a', 4}}, starts(0, 4), ends(1, 4),
			[]step{{'a', 2 * minSlots}}, starts(4, 2*minSlots+4), ends(4, 2*minSlots+4),
			[]step{{'e', 0}})},
		{"doubling a wrapped ring keeps every live id readable", cat(
			[]step{{'a', 10}}, starts(0, 10), ends(0, 6),
			[]step{{'a', 3 * minSlots}}, starts(10, 3*minSlots+10), ends(6, 3*minSlots+10))},
		{"ids below the base read as finished when their slot is reused", cat(
			[]step{{'a', 2}, {'s', 0}, {'e', 0}, {'a', minSlots - 1}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w window
			m := &winModel{block: make([]int, 2*256)}
			for i, st := range tc.steps {
				switch st.op {
				case 'a':
					for range st.n {
						m.add(&w)
					}
				case 's':
					w.start(st.n)
					m.running[st.n]++
				case 'e':
					if first := w.end(st.n); first == m.done[st.n] {
						t.Fatalf("step %d: end(%d) reported first completion %v after one was recorded: %v",
							i, st.n, first, m.done[st.n])
					}
					m.running[st.n]--
					m.done[st.n] = true
				}
				if err := m.check(&w); err != nil {
					t.Fatalf("step %d (%c %d): %v", i, st.op, st.n, err)
				}
			}
		})
	}
}

// TestWindowBounded: a long serving run that does not saturate (the Table 9
// traffic without its hotspot flip) issues over 100,000 requests, yet its
// window never needs more than 1,024 slots, and the crash-free run ends with
// every request retired and no straggler.
func TestWindowBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("a 100,000-request run")
	}
	p := DefaultParams(1995)
	p.Load.Flips = nil
	p.Load.Horizon = 62_000_000
	var app App
	r := run(machine.CM5(), core.DefaultHybrid(), p, &app)
	if r.Requests < 100_000 {
		t.Fatalf("only %d requests", r.Requests)
	}
	if n := len(app.win.slots); n > 1024 {
		t.Fatalf("the window grew to %d slots over %d requests", n, r.Requests)
	}
	if w := &app.win; w.base != w.next || len(w.stray) != 0 {
		t.Fatalf("run ended with window [%d, %d) and %d stragglers", w.base, w.next, len(w.stray))
	}
}

// strayWatch records a run's trace and, at every record, checks the
// window's stragglers: each must hold its request's keys in memory of its
// own, not in the generator's block the request was filed with.
type strayWatch struct {
	*trace.Buffer
	app  *App
	keys map[int][]int // each request's keys as filed, by id
	seen map[int]bool  // ids that were ever stragglers
	bad  int           // a straggler found sharing or missing its keys, or -1
}

func (s *strayWatch) Record(node int, at instr.Instr, kind uint8, method string, aux int64) {
	s.Buffer.Record(node, at, kind, method, aux)
	if kind == uint8(trace.KReqArrive) {
		s.keys[int(aux)] = s.app.win.req(int(aux)).Keys
	}
	for id, st := range s.app.win.stray {
		s.seen[id] = true
		if filed := s.keys[id]; &st.rq.Keys[0] == &filed[0] || !slices.Equal(st.rq.Keys, filed) {
			s.bad = id
		}
	}
}

// hedgeParams is a hedged serving run: the Table 9 traffic without the
// flip at two thirds of its rate, with a retry deadline of 2,000 cycles,
// below the unhedged run's p50 of about 2,460. Most requests are re-issued,
// so many finish while a duplicate attempt is still fanning out.
func hedgeParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Load.Flips = nil
	p.Load.MeanGap = 1500
	p.RetryAfter = 2_000
	p.MaxRetries = 2
	return p
}

// hedgeTranscriptPin is the fingerprint of TestHedgedDuplicates's
// transcript. A change that moves it on purpose re-pins it.
const hedgeTranscriptPin = "cfac4acdc1d48463"

// TestHedgedDuplicates: hedged duplicate attempts that outlive their
// request's first completion become stragglers holding copies of their
// keys, none is left when the run ends, the run stays exactly-once and
// quiescent (Run itself panics if a crash-free run does not quiesce or
// leaves a request unanswered), and it matches its pin.
func TestHedgedDuplicates(t *testing.T) {
	var app App
	watch := &strayWatch{Buffer: trace.NewBuffer(1 << 16), app: &app,
		keys: map[int][]int{}, seen: map[int]bool{}, bad: -1}
	cfg := core.DefaultHybrid()
	cfg.Tracer = watch
	r := run(machine.CM5(), cfg, hedgeParams(1995), &app)
	if got := exp.Fingerprint(transcript(watch.Buffer, r)); got != hedgeTranscriptPin {
		t.Fatalf("transcript fingerprint %s, pinned %s", got, hedgeTranscriptPin)
	}
	if r.Retries == 0 || len(watch.seen) == 0 {
		t.Fatalf("%d retries made %d stragglers", r.Retries, len(watch.seen))
	}
	if watch.bad >= 0 {
		t.Fatalf("straggler %d does not hold a copy of its keys", watch.bad)
	}
	if w := &app.win; w.base != w.next || len(w.stray) != 0 {
		t.Fatalf("run ended with window [%d, %d) and %d stragglers", w.base, w.next, len(w.stray))
	}
	if r.RMWs == 0 || r.Applied != r.RMWs {
		t.Fatalf("applied %d of %d issued RMWs", r.Applied, r.RMWs)
	}
	if r.Lost != 0 {
		t.Fatalf("%d of %d requests lost", r.Lost, r.Requests)
	}
	t.Logf("%d requests, %d retries, %d stragglers, ring of %d slots", r.Requests, r.Retries, len(watch.seen), len(app.win.slots))
}
