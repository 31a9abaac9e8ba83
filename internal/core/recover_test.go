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

// TestFragment: a checkpoint batch splits into chunks that each fit the
// message-size limit (or hold one oversized item), cover the batch in
// order, and share its storage — so a batch that fits one message, the
// usual case, allocates nothing.
func TestFragment(t *testing.T) {
	p := NewProgram()
	if err := p.Resolve(Interfaces3); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHybrid()
	cfg.MaxMsgWords = 40
	rt := NewRT(sim.NewEngine(1), machine.CM5(), p, cfg)
	batch := make([]ckptItem, 12)
	for i := range batch {
		batch[i] = ckptItem{ref: Ref{Index: int32(i)}, words: make([]Word, i%5)}
	}
	batch[7].words = make([]Word, 60) // alone exceeds the limit

	var got []int
	for chunk, rest := rt.fragment(batch); len(chunk) > 0; chunk, rest = rt.fragment(rest) {
		if w := (&Msg{kind: msgCkpt, ckptBatch: chunk}).words(); w > cfg.MaxMsgWords && len(chunk) > 1 {
			t.Fatalf("chunk of %d items is %d words, over the %d-word limit", len(chunk), w, cfg.MaxMsgWords)
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

	fits := batch[:3]
	if allocs := testing.AllocsPerRun(100, func() {
		chunk, rest := rt.fragment(fits)
		if len(chunk) != len(fits) || len(rest) != 0 {
			t.Fatalf("a batch that fits split into %d + %d items", len(chunk), len(rest))
		}
	}); allocs != 0 {
		t.Fatalf("fragmenting a batch that fits one message allocates %.0f times, want 0", allocs)
	}
}
