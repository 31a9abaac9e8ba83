package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// ckptState is a one-word checkpointable object.
type ckptState struct{ v Word }

func (s *ckptState) CheckpointWords() []Word { return []Word{s.v} }
func (s *ckptState) RestoreWords(w []Word)   { s.v = w[0] }

// TestShipNodeDirtySet pins the set of objects a checkpoint visits in place
// of every object on the node: an object durably mutated at home, or
// mutated while away and then back home, is shipped; once its backup has
// acked it, or a crash has lost it, it leaves the set.
func TestShipNodeDirtySet(t *testing.T) {
	p := NewProgram()
	put := &Method{Name: "put", Durable: true, Body: func(rt *RT, fr *Frame) Status {
		rt.Reply(fr, 0)
		return Done
	}}
	p.Add(put)
	cfg := DefaultHybrid()
	cfg.CheckpointPeriod = 5_000
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(2), machine.CM5(), p, cfg)
	n := rt.Node(0)
	for i := 0; i < 130; i++ {
		n.NewObject(&ckptState{})
	}
	taken := func() int64 { return n.Stats.CkptsTaken }
	clean := func() bool {
		for _, w := range n.dirty {
			if w != 0 {
				return false
			}
		}
		return true
	}

	rt.noteDurable(n, put, n.objects[3])
	rt.noteDurable(n, put, n.objects[100])
	rt.shipNode(n)
	if got := taken(); got != 2 {
		t.Fatalf("shipped %d objects after two mutations at home, want 2", got)
	}

	// Object 70 moves to node 1, is mutated there, and comes home.
	obj := n.objects[70]
	n.installEntry(obj.Ref, &Object{Ref: obj.Ref, away: true, fwdTo: 1, wantMove: -1})
	rt.noteDurable(rt.Node(1), put, obj)
	n.installEntry(obj.Ref, obj)
	rt.shipNode(n)
	if got := taken(); got != 3 {
		t.Fatalf("shipped %d objects after a mutation away from home, want 3", got)
	}

	// The backup acks all three; object 5 is mutated and then crash-lost.
	for _, i := range []int{3, 70, 100} {
		d := n.objects[i].dur
		d.ackVer = d.mutVer
	}
	rt.noteDurable(n, put, n.objects[5])
	n.objects[5].lost = true
	rt.shipNode(n)
	if got := taken(); got != 3 {
		t.Fatalf("shipped %d objects with nothing unacked, want 3", got)
	}
	if !clean() {
		t.Fatalf("dirty set %x after every object was acked or lost, want empty", n.dirty)
	}
}

// TestFragment: a checkpoint batch splits into chunks that each fit
// DefaultMaxMsgWords (or hold one oversized item), cover the batch in
// order, and share its storage — so a batch that fits one message, the
// usual case, allocates nothing.
func TestFragment(t *testing.T) {
	// Items of a tenth of the limit, give or take, so about ten share a
	// chunk.
	const unit = DefaultMaxMsgWords / 10
	batch := make([]ckptItem, 40)
	for i := range batch {
		batch[i] = ckptItem{ref: Ref{Index: int32(i)}, words: make([]Word, unit-2+i%5)}
	}
	batch[17].words = make([]Word, DefaultMaxMsgWords+60) // alone exceeds the limit

	var got []int
	chunks := 0
	for chunk, rest := fragment(batch); len(chunk) > 0; chunk, rest = fragment(rest) {
		chunks++
		if w := (&Msg{kind: msgCkpt, ckptBatch: chunk}).words(); w > DefaultMaxMsgWords && len(chunk) > 1 {
			t.Fatalf("chunk of %d items is %d words, over the %d-word limit", len(chunk), w, DefaultMaxMsgWords)
		}
		for _, it := range chunk {
			got = append(got, int(it.ref.Index))
		}
	}
	if len(got) != len(batch) {
		t.Fatalf("chunks carry items %v, want all %d in order", got, len(batch))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("chunks carry items %v, want all %d in order", got, len(batch))
		}
	}
	if chunks < 5 {
		t.Fatalf("%d items split into %d chunks, want at least 5", len(batch), chunks)
	}

	fits := batch[:3]
	if allocs := testing.AllocsPerRun(100, func() {
		chunk, rest := fragment(fits)
		if len(chunk) != len(fits) || len(rest) != 0 {
			t.Fatalf("a batch that fits split into %d + %d items", len(chunk), len(rest))
		}
	}); allocs != 0 {
		t.Fatalf("fragmenting a batch that fits one message allocates %.0f times, want 0", allocs)
	}
}

// TestCrashKillsLiveFrames: a crash kills every frame its node has checked
// out, by generation: two suspended and one still queued to run. The frames
// live at the crash are counted as lost and no longer live; the queued one
// never runs; a reply that later reaches a suspended one fills nothing and
// wakes nothing; and a frame checked out after the rejoin is a fresh one
// that runs normally.
func TestCrashKillsLiveFrames(t *testing.T) {
	p := NewProgram()
	sum, _ := buildRemoteSum(p)
	var frames []*Frame
	body := sum.Body
	sum.Body = func(rt *RT, fr *Frame) Status {
		if fr.PC == 0 {
			frames = append(frames, fr)
		}
		return body(rt, fr)
	}
	cfg := DefaultHybrid()
	if err := p.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	rt := NewRT(sim.NewEngine(2), machine.CM5(), p, cfg)
	n0, n1 := rt.Node(0), rt.Node(1)
	results := make([]Result, 4)
	startSum := func(res *Result) {
		driver := n0.NewObject(nil)
		a := n1.NewObject(&cellState{1})
		c := n1.NewObject(&cellState{2})
		rt.StartOn(0, sum, driver, res, RefW(a), RefW(c))
	}
	startSum(&results[0])
	startSum(&results[1])
	for n0.Stats.Suspends < 2 && rt.Eng.Step() {
	}
	startSum(&results[2])
	if n0.Stats.Suspends != 2 || n0.LiveFrames() != 3 || n0.runq.len() != 1 || n0.inbox.n != 0 {
		t.Fatalf("before the crash: %d suspends, %d live frames, %d runnable, %d queued messages; want 2, 3, 1, 0",
			n0.Stats.Suspends, n0.LiveFrames(), n0.runq.len(), n0.inbox.n)
	}

	rt.onCrash(n0, 0)
	if n0.Stats.LostFrames != 3 {
		t.Fatalf("LostFrames = %d, want the 3 frames live at the crash", n0.Stats.LostFrames)
	}
	if live := rt.LiveFrames(); live != 0 {
		t.Fatalf("LiveFrames = %d right after the crash, want 0", live)
	}
	rt.onRejoin(n0)
	rt.Run()
	if n1.Stats.Replies != 4 || n0.Stats.LostMsgs != 0 {
		t.Fatalf("node 1 sent %d replies and node 0 lost %d messages; want all 4 replies delivered after the crash",
			n1.Stats.Replies, n0.Stats.LostMsgs)
	}
	if len(frames) != 2 || results[2].Done {
		t.Fatalf("%d sums ran (third done %v), want the 2 that ran before the crash", len(frames), results[2].Done)
	}
	for i, fr := range frames {
		if !n0.pool.dead(fr) || !fr.waiting || fr.FutFull(0) || fr.FutFull(1) || results[i].Done {
			t.Fatalf("frame %d after its replies arrived: dead %v, waiting %v, futures full %v/%v, result done %v; want a dead frame left as the crash found it",
				i, n0.pool.dead(fr), fr.waiting, fr.FutFull(0), fr.FutFull(1), results[i].Done)
		}
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}

	startSum(&results[3])
	rt.Run()
	if !results[3].Done || results[3].Val.Int() != 3 {
		t.Fatalf("sum after the rejoin = %d (done %v), want 3", results[3].Val.Int(), results[3].Done)
	}
	if fr := frames[2]; fr == frames[0] || fr == frames[1] {
		t.Fatal("a frame killed by the crash was checked out again")
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}
