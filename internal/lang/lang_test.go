package lang

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

const fibSrc = `
// doubly-recursive fib: every call is a concurrent invocation
method fib(n) {
    work 5;
    if n < 2 { return n; }
    a = spawn fib(n - 1) on self;
    b = spawn fib(n - 2) on self;
    touch a, b;
    return a + b;
}
`

const takSrc = `
method tak(x, y, z) {
    work 8;
    if y >= x { return z; }
    a = spawn tak(x - 1, y, z) on self;
    b = spawn tak(y - 1, z, x) on self;
    c = spawn tak(z - 1, x, y) on self;
    touch a, b, c;
    r = spawn tak(a, b, c) on self;
    touch r;
    return r;
}
`

// run compiles src and executes entry(args) on a machine with `nodes`
// processors, the object living on node 0.
func run(t *testing.T, src, entry string, cfg core.Config, nodes int, args ...core.Word) int64 {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := c.Prog.Resolve(cfg.Interfaces); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(nodes)
	rt := core.NewRT(eng, machine.CM5(), c.Prog, cfg)
	self := rt.Node(0).NewObject(nil)
	var res core.Result
	rt.StartOn(0, c.Methods[entry], self, &res, args...)
	rt.Run()
	if !res.Done {
		t.Fatalf("%s did not complete", entry)
	}
	if qerr := rt.CheckQuiescence(); qerr != nil {
		t.Fatal(qerr)
	}
	return res.Val.Int()
}

func nativeFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return nativeFib(n-1) + nativeFib(n-2)
}

func nativeTak(x, y, z int64) int64 {
	if y >= x {
		return z
	}
	return nativeTak(nativeTak(x-1, y, z), nativeTak(y-1, z, x), nativeTak(z-1, x, y))
}

func TestCompiledFib(t *testing.T) {
	for _, cfg := range []core.Config{core.DefaultHybrid(), core.ParallelOnly()} {
		for n := int64(0); n <= 12; n++ {
			got := run(t, fibSrc, "fib", cfg, 1, core.IntW(n))
			if got != nativeFib(n) {
				t.Fatalf("hybrid=%v: fib(%d) = %d, want %d", cfg.Hybrid, n, got, nativeFib(n))
			}
		}
	}
}

func TestCompiledTak(t *testing.T) {
	got := run(t, takSrc, "tak", core.DefaultHybrid(), 1, core.IntW(10), core.IntW(6), core.IntW(3))
	if want := nativeTak(10, 6, 3); got != want {
		t.Fatalf("tak = %d, want %d", got, want)
	}
}

// TestSchemaDerivation: the compiler must classify methods from syntax —
// no spawn/touch/forward means a non-blocking leaf; spawn+touch means
// may-block; a forward-only chain to an NB leaf stays NB (forwarding is a
// Forwards edge, not a continuation capture, so NeedsCont only arrives from
// a forwarded-to method that captures — which minic cannot express).
func TestSchemaDerivation(t *testing.T) {
	src := `
method leaf(x) { return x * 2; }
method caller(x) {
    a = spawn leaf(x) on self;
    touch a;
    return a;
}
method relay(x) { forward leaf(x + 1) on self; }
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	if got := c.Methods["leaf"].Required; got != core.SchemaNB {
		t.Errorf("leaf schema = %v, want NB", got)
	}
	if got := c.Methods["caller"].Required; got != core.SchemaMB {
		t.Errorf("caller schema = %v, want MB", got)
	}
	if got := c.Methods["relay"].Required; got != core.SchemaNB {
		t.Errorf("relay schema = %v, want NB: forward-only chain to an NB leaf", got)
	}
	if len(c.Methods["relay"].Forwards) != 1 || c.Methods["relay"].Forwards[0] != c.Methods["leaf"] {
		t.Errorf("relay must carry a Forwards edge to leaf")
	}
	if c.Methods["relay"].Captures {
		t.Errorf("forwarding must not be compiled as a continuation capture")
	}
}

// TestForwardChainSchemas: satellite check for the compiler fix — a
// forward-only chain into a may-blocking leaf resolves to MB, not CP, and
// the pure chain to an NB leaf resolves to NB.
func TestForwardChainSchemas(t *testing.T) {
	src := `
method nbleaf(x) { return x + 1; }
method mbleaf(x) {
    a = spawn nbleaf(x) on self;
    touch a;
    return a;
}
method hop2(x) { forward nbleaf(x) on self; }
method hop1(x) { forward hop2(x) on self; }
method bhop(x) { forward mbleaf(x) on self; }
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]core.Schema{
		"nbleaf": core.SchemaNB,
		"mbleaf": core.SchemaMB,
		"hop2":   core.SchemaNB,
		"hop1":   core.SchemaNB,
		"bhop":   core.SchemaMB,
	} {
		if got := c.Methods[name].Required; got != want {
			t.Errorf("%s schema = %v, want %v", name, got, want)
		}
	}
	// The chain must still run correctly end to end.
	got := run(t, src, "hop1", core.DefaultHybrid(), 2, core.IntW(41))
	if got != 42 {
		t.Fatalf("hop1(41) = %d, want 42", got)
	}
}

// TestDistributedForwardChain: a compiled forwarding ring whose reply goes
// straight back to the caller, across nodes.
func TestDistributedForwardChain(t *testing.T) {
	src := `
method hop(k, x, home) {
    work 4;
    if k == 0 { return x; }
    forward hop(k - 1, x + 10, home) on home;
}
method start(k, remote) {
    a = spawn hop(k, 0, remote) on remote;
    touch a;
    return a;
}
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	rt := core.NewRT(eng, machine.CM5(), c.Prog, core.DefaultHybrid())
	self := rt.Node(0).NewObject(nil)
	remote := rt.Node(1).NewObject(nil)
	var res core.Result
	rt.StartOn(0, c.Methods["start"], self, &res, core.IntW(5), core.RefW(remote))
	rt.Run()
	if !res.Done || res.Val.Int() != 50 {
		t.Fatalf("chain = %v done=%v, want 50", res.Val.Int(), res.Done)
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestWhileLoopWithSpawn: loops with slot reuse across iterations.
func TestWhileLoopWithSpawn(t *testing.T) {
	src := `
method inc(x) { return x + 1; }
method count(n) {
    i = 0;
    acc = 0;
    while i < n {
        a = spawn inc(acc) on self;
        touch a;
        acc = a;
        i = i + 1;
    }
    return acc;
}
`
	for _, cfg := range []core.Config{core.DefaultHybrid(), core.ParallelOnly()} {
		got := run(t, src, "count", cfg, 1, core.IntW(9))
		if got != 9 {
			t.Fatalf("hybrid=%v: count(9) = %d, want 9", cfg.Hybrid, got)
		}
	}
}

// TestInterfaceSetsAgree: restricted interfaces change cost only.
func TestInterfaceSetsAgree(t *testing.T) {
	for _, set := range []core.SchemaSet{core.Interfaces1, core.Interfaces2, core.Interfaces3} {
		cfg := core.DefaultHybrid()
		cfg.Interfaces = set
		if got := run(t, fibSrc, "fib", cfg, 1, core.IntW(11)); got != nativeFib(11) {
			t.Fatalf("set %b: fib(11) = %d", set, got)
		}
	}
}

func TestOperatorsAndControlFlow(t *testing.T) {
	src := `
method ops(a, b) {
    x = a * b + a % 5 - b / 2;
    if a > b && !(a == 0) { x = x + 100; }
    if a < b || b >= 10 { x = x + 1000; }
    y = -x;
    if y <= 0 { return x; } else { return y; }
}
`
	got := run(t, src, "ops", core.DefaultHybrid(), 1, core.IntW(7), core.IntW(3))
	// x = 21 + 2 - 1 = 22; a>b && a!=0 -> +100 => 122; a<b false, b>=10 false; y=-122 <= 0 -> return 122.
	if got != 122 {
		t.Fatalf("ops = %d, want 122", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`method f() { return x; }`, `undefined name "x"`},
		{`method f() { g = spawn nosuch() on self; touch g; return g; }`, `undefined method "nosuch"`},
		{`method g(a) { return a; } method f() { h = spawn g() on self; touch h; return h; }`, "takes 1 arguments, got 0"},
		{`method f() { a = spawn f() on self; return a; }`, `read before touch`},
		{`method f(n) { n = 3; return n; }`, "cannot assign to parameter"},
		{`method f() { a = 1; a = spawn f() on self; touch a; return a; }`, `not a future variable`},
		{`method f() { touch a; return 0; }`, "not a future variable"},
		{`method f() { return 1; } method f() { return 2; }`, "redeclared"},
		{`method f(a, a) { return a; }`, "repeated or shadows"},
		{`method f() { return 1 + ; }`, "unexpected"},
		{`method f() { return 1 `, "expected"},
		{`@`, "unexpected character"},
		{``, "empty program"},
		{`method main() { return 99999999999999999999; }`, "1:24: integer literal 99999999999999999999 overflows int64"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("no error for %q", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error for %q = %q, want contains %q", tc.src, err.Error(), tc.want)
		}
	}
}

// TestHybridFasterCompiledToo: the headline result holds for compiled
// programs as well.
func TestHybridFasterCompiledToo(t *testing.T) {
	timeOf := func(cfg core.Config) sim.Time {
		c, err := Compile(fibSrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prog.Resolve(cfg.Interfaces); err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(1)
		rt := core.NewRT(eng, machine.SPARCStation(), c.Prog, cfg)
		self := rt.Node(0).NewObject(nil)
		var res core.Result
		rt.StartOn(0, c.Methods["fib"], self, &res, core.IntW(15))
		rt.Run()
		if !res.Done {
			t.Fatal("incomplete")
		}
		return eng.MaxClock()
	}
	h, p := timeOf(core.DefaultHybrid()), timeOf(core.ParallelOnly())
	if h*2 >= p {
		t.Fatalf("compiled hybrid %d not at least 2x faster than parallel-only %d", h, p)
	}
}

// TestObjectState: state[] reads and writes against word-array objects.
func TestObjectState(t *testing.T) {
	src := `
method bump(k) {
    state[0] = state[0] + k;
    return state[0];
}
method main(k) {
    a = spawn bump(k) on self;
    touch a;
    b = spawn bump(k * 2) on self;
    touch b;
    return b;
}
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	rt := core.NewRT(eng, machine.SPARCStation(), c.Prog, core.DefaultHybrid())
	self := rt.Node(0).NewObject(make([]core.Word, 1))
	var res core.Result
	rt.StartOn(0, c.Methods["main"], self, &res, core.IntW(5))
	rt.Run()
	if !res.Done || res.Val.Int() != 15 {
		t.Fatalf("main(5) = %v done=%v, want 15", res.Val.Int(), res.Done)
	}
}

// TestLockedMethods: `locked method` serializes activations on one object.
func TestLockedMethods(t *testing.T) {
	// Two concurrent read-modify-write sequences on a counter; the lock
	// must make them atomic despite the remote fetch in the middle.
	src := `
method slowGet(cell) {
    g = spawn readCell(0) on cell;
    touch g;
    return g;
}
method readCell(unused) { return state[0]; }
locked method addRemote(cell) {
    v = spawn readCell(0) on cell;   // suspends holding the lock
    touch v;
    state[0] = state[0] + v;
    return state[0];
}
method main(counter, cell) {
    a = spawn addRemote(cell) on counter;
    b = spawn addRemote(cell) on counter;
    touch a, b;
    return a + b;
}
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	if !c.Methods["addRemote"].Locks {
		t.Fatal("locked keyword not honored")
	}
	eng := sim.NewEngine(2)
	rt := core.NewRT(eng, machine.CM5(), c.Prog, core.DefaultHybrid())
	counter := rt.Node(0).NewObject(make([]core.Word, 1))
	cell := rt.Node(1).NewObject([]core.Word{core.IntW(7)})
	driver := rt.Node(0).NewObject(nil)
	var res core.Result
	rt.StartOn(0, c.Methods["main"], driver, &res, core.RefW(counter), core.RefW(cell))
	rt.Run()
	if !res.Done {
		t.Fatal("incomplete")
	}
	// Serialized: first add sees 0+7=7, second 7+7=14; sum 21.
	if res.Val.Int() != 21 {
		t.Fatalf("main = %d, want 21 (lock failed to serialize)", res.Val.Int())
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicObjects: newobj builds a linked list at run time (dynamic
// irregular structure, in-language), then a traversal sums it.
func TestDynamicObjects(t *testing.T) {
	src := `
// list node state: [0] = value, [1] = next ref (0 = nil; refs from newobj
// are never the zero word on node 0 index 0 because the driver is obj 0).
method build(n) {
    head = 0;
    i = n;
    while i > 0 {
        node = newobj(2);
        w = spawn initNode(node, i, head) on self;
        touch w;
        head = node;
        i = i - 1;
    }
    return head;
}
method initNode(node, v, next) {
    s = spawn setNode(v, next) on node;
    touch s;
    return s;
}
method setNode(v, next) {
    state[0] = v;
    state[1] = next;
    return 0;
}
method sum(acc) {
    total = acc + state[0];
    next = state[1];
    if next == 0 { return total; }
    forward sum(total) on next;
}
method main(n) {
    h = spawn build(n) on self;
    touch h;
    s = spawn sum(0) on h;
    touch s;
    return s;
}
`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	// sum forwards through the list but never blocks or captures: the
	// self-forward cycle stays NB (forwarding alone is not a capture).
	if c.Methods["sum"].Required != core.SchemaNB {
		t.Fatalf("sum schema = %v, want NB", c.Methods["sum"].Required)
	}
	eng := sim.NewEngine(1)
	rt := core.NewRT(eng, machine.SPARCStation(), c.Prog, core.DefaultHybrid())
	driver := rt.Node(0).NewObject(make([]core.Word, 0))
	var res core.Result
	rt.StartOn(0, c.Methods["main"], driver, &res, core.IntW(10))
	rt.Run()
	if !res.Done || res.Val.Int() != 55 {
		t.Fatalf("main(10) = %v done=%v, want 55", res.Val.Int(), res.Done)
	}
	if err := rt.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestStateErrors: state use on a stateless object fails loudly; parser
// rejects malformed state syntax.
func TestStateErrors(t *testing.T) {
	if _, err := Compile(`method f() { state[0 = 1; return 0; }`); err == nil {
		t.Error("malformed state index accepted")
	}
	if _, err := Compile(`method f() { x = newobj; return x; }`); err == nil {
		t.Error("malformed newobj accepted")
	}
}

// TestCompiledCostParity: the compiler must add no hidden simulated cost —
// a compiled method with the same structure as a hand-written body charges
// exactly the same virtual instructions (the IR interpreter only spends
// through the same runtime primitives).
func TestCompiledCostParity(t *testing.T) {
	// Hand-written fib with the same shape as fibSrc (work 5 up front, two
	// spawns, one touch, reply of the sum).
	hand := core.NewProgram()
	fib := &core.Method{Name: "fib", NArgs: 1, NFutures: 2, MayBlockLocal: true}
	fib.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		switch fr.PC {
		case 0:
			rt.Work(fr, 5)
			if fr.Arg(0).Int() < 2 {
				rt.Reply(fr, fr.Arg(0))
				return core.Done
			}
			st := rt.Invoke(fr, fib, fr.Self, 0, core.IntW(fr.Arg(0).Int()-1))
			fr.PC = 1
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			st := rt.Invoke(fr, fib, fr.Self, 1, core.IntW(fr.Arg(0).Int()-2))
			fr.PC = 2
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 2:
			if !rt.TouchAll(fr, core.Mask(0, 1)) {
				return core.Unwound
			}
			rt.Reply(fr, core.IntW(fr.Fut(0).Int()+fr.Fut(1).Int()))
			return core.Done
		}
		panic("bad pc")
	}
	fib.Calls = []*core.Method{fib}
	hand.Add(fib)
	if err := hand.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}

	exec := func(p *core.Program, m *core.Method) sim.Time {
		eng := sim.NewEngine(1)
		rt := core.NewRT(eng, machine.SPARCStation(), p, core.DefaultHybrid())
		self := rt.Node(0).NewObject(nil)
		var res core.Result
		rt.StartOn(0, m, self, &res, core.IntW(17))
		rt.Run()
		if !res.Done {
			t.Fatal("incomplete")
		}
		return eng.MaxClock()
	}
	handClock := exec(hand, fib)

	c, err := Compile(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	compClock := exec(c.Prog, c.Methods["fib"])
	if handClock != compClock {
		t.Fatalf("compiled fib costs %d instructions, hand-written %d; must be identical",
			compClock, handClock)
	}
}

// TestRespawnBeforeTouchRejected: reusing a future variable while its
// previous spawn is still undetermined would double-fill the slot; the
// compiler must reject it.
func TestRespawnBeforeTouchRejected(t *testing.T) {
	src := `
method leaf(x) { return x; }
method f() {
    a = spawn leaf(1) on self;
    a = spawn leaf(2) on self;
    touch a;
    return a;
}
`
	_, err := Compile(src)
	if err == nil || !strings.Contains(err.Error(), "respawned before being touched") {
		t.Fatalf("expected respawn error, got %v", err)
	}
}

// TestOperatorPrecedence: the binary operators have Go's five precedence
// levels and all associate to the left, comparisons included; unary
// operators bind tighter than any of them. Each expression's value is
// checked against Go's on several arguments.
func TestOperatorPrecedence(t *testing.T) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	cases := []struct {
		expr string
		want func(a, b, c int64) int64
	}{
		{"a - b - c", func(a, b, c int64) int64 { return a - b - c }},
		{"a - b + c", func(a, b, c int64) int64 { return a - b + c }},
		{"a * b / c", func(a, b, c int64) int64 { return a * b / c }},
		{"a / b / c", func(a, b, c int64) int64 { return a / b / c }},
		{"a % b * c", func(a, b, c int64) int64 { return a % b * c }},
		{"a + b * c", func(a, b, c int64) int64 { return a + b*c }},
		{"a * b - c % b", func(a, b, c int64) int64 { return a*b - c%b }},
		{"a << 3 >> 1", func(a, b, c int64) int64 { return a << 3 >> 1 }},
		{"a | b & c", func(a, b, c int64) int64 { return a | b&c }},
		{"a ^ b | c", func(a, b, c int64) int64 { return a ^ b | c }},
		{"a & 12 << 1", func(a, b, c int64) int64 { return a & 12 << 1 }},
		{"a + b << 2", func(a, b, c int64) int64 { return a + b<<2 }},
		{"a - b ^ c", func(a, b, c int64) int64 { return a - b ^ c }},
		{"a + b < c * 2", func(a, b, c int64) int64 { return b2i(a+b < c*2) }},
		{"a < b == b < c", func(a, b, c int64) int64 { return b2i(b2i(b2i(a < b) == b) < c) }},
		{"a != b >= c", func(a, b, c int64) int64 { return b2i(b2i(a != b) >= c) }},
		{"a == b || b < c && c > a", func(a, b, c int64) int64 { return b2i(a == b || b < c && c > a) }},
		{"a || b && c", func(a, b, c int64) int64 { return b2i(a != 0 || b != 0 && c != 0) }},
		{"a && b || c", func(a, b, c int64) int64 { return b2i(a != 0 && b != 0 || c != 0) }},
		{"-a * b", func(a, b, c int64) int64 { return -a * b }},
		{"- -a - -b", func(a, b, c int64) int64 { return a + b }},
		{"!a + b", func(a, b, c int64) int64 { return b2i(a == 0) + b }},
		{"!!a == !c", func(a, b, c int64) int64 { return b2i(b2i(a != 0) == b2i(c == 0)) }},
		{"a - (b - c)", func(a, b, c int64) int64 { return a - (b - c) }},
		{"(a + b) * c", func(a, b, c int64) int64 { return (a + b) * c }},
	}
	args := [][3]int64{{7, 3, 2}, {-9, 2, 5}, {0, 4, 1}, {6, -1, 3}, {5, 5, -7}}
	for _, tc := range cases {
		src := "method f(a, b, c) { return " + tc.expr + "; }"
		for _, v := range args {
			got := run(t, src, "f", core.DefaultHybrid(), 1, core.IntW(v[0]), core.IntW(v[1]), core.IntW(v[2]))
			if want := tc.want(v[0], v[1], v[2]); got != want {
				t.Errorf("%s with a, b, c = %v: got %d, want %d", tc.expr, v, got, want)
			}
		}
	}
}

// wideSpawn is a method that spawns into n distinct futures.
func wideSpawn(n int) string {
	var b strings.Builder
	b.WriteString("method f() {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " f%d = spawn f() on self;", i)
	}
	b.WriteString(" return 0; }")
	return b.String()
}

// TestFutureLimit: a method may use 64 futures, the width of the touch
// mask, and no more.
func TestFutureLimit(t *testing.T) {
	if _, err := Compile(wideSpawn(64)); err != nil {
		t.Fatalf("64 futures: %v", err)
	}
	_, err := Compile(wideSpawn(65))
	if want := `lang: 1:1: method "f" uses 65 futures; the touch mask holds at most 64`; err == nil || err.Error() != want {
		t.Fatalf("65 futures: got %v, want %s", err, want)
	}
}
