package instr

import (
	"testing"
	"testing/quick"
)

func TestCountersBusyExcludesIdle(t *testing.T) {
	var c Counters
	c.Add(OpWork, 100)
	c.Add(OpMsg, 50)
	c.Add(OpIdle, 1000)
	if got := c.Busy(); got != 150 {
		t.Fatalf("Busy = %d, want 150", got)
	}
	if got := c.Overhead(); got != 50 {
		t.Fatalf("Overhead = %d, want 50", got)
	}
	if got := c.Get(OpIdle); got != 1000 {
		t.Fatalf("idle = %d, want 1000", got)
	}
}

func TestAddAllAndReset(t *testing.T) {
	var a, b Counters
	a.Add(OpCall, 3)
	b.Add(OpCall, 4)
	b.Add(OpCtx, 7)
	a.AddAll(&b)
	if a.Get(OpCall) != 7 || a.Get(OpCtx) != 7 {
		t.Fatalf("AddAll wrong: %+v", a)
	}
}

func TestOpStrings(t *testing.T) {
	seen := map[string]bool{}
	for op := Op(0); op < NumOps; op++ {
		s := op.String()
		if s == "" || s == "op?" {
			t.Fatalf("op %d has no name", op)
		}
		if seen[s] {
			t.Fatalf("duplicate op name %q", s)
		}
		seen[s] = true
	}
	if Op(200).String() != "op?" {
		t.Fatal("out-of-range op should print op?")
	}
}

// Property: AddAll is the same as summing category-wise.
func TestQuickAddAllCommutes(t *testing.T) {
	f := func(xs, ys [NumOps]int32) bool {
		var a, b, sum Counters
		for op := Op(0); op < NumOps; op++ {
			a.Add(op, Instr(xs[op]))
			b.Add(op, Instr(ys[op]))
			sum.Add(op, Instr(xs[op])+Instr(ys[op]))
		}
		a.AddAll(&b)
		return a == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
