package lang

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/instr"
)

// Compiled is a fully compiled program: its methods are registered in Prog
// and ready to resolve and run under any configuration.
type Compiled struct {
	Prog    *core.Program
	Methods map[string]*core.Method
}

// Compile parses, checks and compiles source text onto the hybrid runtime.
// The caller resolves the program with its chosen interface set
// (Prog.Resolve) before executing. A compile error is returned as an
// *Error: the first one the lexer, the parser or the lowering finds.
func Compile(src string) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*Error)
			if !ok {
				panic(r)
			}
			c, err = nil, e
		}
	}()
	decls := parseProgram(src)
	byName := map[string]*methodDecl{}
	classes := map[string][]string{}
	for i, d := range decls {
		if _, dup := byName[d.name]; dup {
			fail(d.line, d.col, "method %q redeclared", d.name)
		}
		d.index = i
		byName[d.name] = d
		if d.className != "" {
			classes[d.className] = d.fields
		}
	}

	prog := core.NewProgram()
	codes := make([]*methodCode, len(decls))
	methods := make([]*core.Method, len(decls))
	for i, d := range decls {
		mc := lower(d, byName, classes)
		codes[i] = mc
		m := &core.Method{
			Name:          d.name,
			NArgs:         len(d.params),
			NLocals:       len(mc.locals),
			NFutures:      len(mc.futures),
			Locks:         d.locked,
			MayBlockLocal: mc.mayBlock,
			// minic has no first-class continuation construct, so Captures
			// stays false: tail-forwarding flows through the Forwards edges
			// built below, and analysis.Solve propagates NeedsCont along
			// them only when some forwarded-to method actually captures.
		}
		m.Body = makeBody(mc)
		prog.Add(m)
		methods[i] = m
	}
	// Second pass: resolve call-graph edges and callee method pointers.
	for i, mc := range codes {
		mc.methods = methods
		seenCall := map[int]bool{}
		seenFwd := map[int]bool{}
		for _, in := range mc.code {
			switch in.op {
			case irSpawn:
				if !seenCall[in.callee] {
					seenCall[in.callee] = true
					methods[i].Calls = append(methods[i].Calls, methods[in.callee])
				}
			case irForward:
				if !seenFwd[in.callee] {
					seenFwd[in.callee] = true
					methods[i].Forwards = append(methods[i].Forwards, methods[in.callee])
				}
			}
		}
	}
	out := &Compiled{Prog: prog, Methods: map[string]*core.Method{}}
	for i, d := range decls {
		out.Methods[d.name] = methods[i]
	}
	return out, nil
}

// --- lowering ---

type irOp uint8

const (
	irAssign      irOp = iota // local[a] = e
	irSpawn                   // fut[slot] = callee(args) on target
	irTouch                   // wait for mask
	irReturn                  // reply e
	irForward                 // tail-forward callee(args) on target
	irWork                    // charge e instructions
	irJump                    // pc = a
	irJumpIfFalse             // if !e: pc = a
	irStateStore              // state[target] = e (target holds the index expr)
	irNewObj                  // local[a] = ref of a fresh k-word object (e = size)
)

type irInstr struct {
	op     irOp
	a      int // local slot (assign) or jump target
	slot   int // future slot (spawn)
	callee int // method index (spawn/forward)
	mask   uint64
	e      expr
	args   []expr
	target expr
}

// varInfo classifies a method-body name.
type varInfo struct {
	kind varKind
	slot int
}

type varKind uint8

const (
	vkParam varKind = iota
	vkLocal
	vkFuture
	vkField
)

type methodCode struct {
	name     string
	decl     *methodDecl
	byName   map[string]*methodDecl
	classes  map[string][]string
	code     []irInstr
	vars     map[string]varInfo
	locals   []string
	futures  []string
	touched  map[string]bool // futures touched since their last spawn, in lowering order
	live     map[string]bool // spawned but not yet touched
	mayBlock bool
	methods  []*core.Method
}

// lower converts one method declaration to IR, performing the semantic
// checks: names must be defined before use, arities must match, a name is
// either a future variable or a plain local (never both), and future reads
// must be preceded by a touch on every path (checked conservatively: a
// touch anywhere earlier in the lowering order).
func lower(d *methodDecl, byName map[string]*methodDecl, classes map[string][]string) *methodCode {
	mc := &methodCode{name: d.name, decl: d, byName: byName, classes: classes,
		vars: map[string]varInfo{}, touched: map[string]bool{}, live: map[string]bool{}}
	for i, f := range d.fields {
		if _, dup := mc.vars[f]; dup {
			fail(d.line, d.col, "field %q repeated", f)
		}
		mc.vars[f] = varInfo{kind: vkField, slot: i}
	}
	for i, p := range d.params {
		if _, dup := mc.vars[p]; dup {
			fail(d.line, d.col, "parameter %q repeated or shadows a field", p)
		}
		mc.vars[p] = varInfo{kind: vkParam, slot: i}
	}
	mc.lowerBlock(d.body)
	// Implicit `return 0` guards fall-off-the-end paths.
	mc.emit(irInstr{op: irReturn, e: &intLit{v: 0}})
	if len(mc.futures) > 64 {
		fail(d.line, d.col, "method %q uses %d futures; the touch mask holds at most 64", d.name, len(mc.futures))
	}
	return mc
}

func (mc *methodCode) emit(in irInstr) int {
	mc.code = append(mc.code, in)
	return len(mc.code) - 1
}

func (mc *methodCode) lowerBlock(body []stmt) {
	for _, s := range body {
		mc.lowerStmt(s)
	}
}

func (mc *methodCode) lowerStmt(s stmt) {
	switch st := s.(type) {
	case *assignStmt:
		mc.checkExpr(st.rhs)
		switch v := mc.local(st.name); v.kind {
		case vkFuture:
			fail(st.line, st.col, "%q is a future variable; assign it with spawn", st.name)
		case vkParam:
			fail(st.line, st.col, "cannot assign to parameter %q", st.name)
		case vkField:
			mc.emit(irInstr{op: irStateStore, target: &intLit{v: int64(v.slot)}, e: st.rhs})
		default:
			mc.emit(irInstr{op: irAssign, a: v.slot, e: st.rhs})
		}

	case *spawnStmt:
		callee := mc.lowerCall(st.pos, st.call, "spawn of")
		v, ok := mc.vars[st.name]
		if ok && v.kind != vkFuture {
			fail(st.line, st.col, "%q is not a future variable", st.name)
		}
		if mc.live[st.name] {
			fail(st.line, st.col, "future %q respawned before being touched", st.name)
		}
		if !ok {
			v = varInfo{kind: vkFuture, slot: len(mc.futures)}
			mc.futures = append(mc.futures, st.name)
			mc.vars[st.name] = v
		}
		delete(mc.touched, st.name) // respawned: must be touched again
		mc.live[st.name] = true
		mc.mayBlock = true
		mc.emit(irInstr{op: irSpawn, slot: v.slot, callee: callee, args: st.args, target: st.target})

	case *touchStmt:
		var mask uint64
		for _, n := range st.names {
			v, ok := mc.vars[n]
			if !ok || v.kind != vkFuture {
				fail(st.line, st.col, "touch of %q, which is not a future variable", n)
			}
			mask |= 1 << uint(v.slot)
			mc.touched[n] = true
			delete(mc.live, n)
		}
		mc.mayBlock = true
		mc.emit(irInstr{op: irTouch, mask: mask})

	case *returnStmt:
		mc.checkExpr(st.value)
		mc.emit(irInstr{op: irReturn, e: st.value})

	case *forwardStmt:
		callee := mc.lowerCall(st.pos, st.call, "forward to")
		mc.emit(irInstr{op: irForward, callee: callee, args: st.args, target: st.target})

	case *workStmt:
		mc.checkExpr(st.amount)
		mc.emit(irInstr{op: irWork, e: st.amount})

	case *ifStmt:
		mc.checkExpr(st.cond)
		jf := mc.emit(irInstr{op: irJumpIfFalse, e: st.cond})
		mc.lowerBlock(st.then)
		if len(st.els) == 0 {
			mc.code[jf].a = len(mc.code)
			return
		}
		jend := mc.emit(irInstr{op: irJump})
		mc.code[jf].a = len(mc.code)
		mc.lowerBlock(st.els)
		mc.code[jend].a = len(mc.code)

	case *stateAssign:
		mc.checkExpr(st.idx)
		mc.checkExpr(st.rhs)
		mc.emit(irInstr{op: irStateStore, target: st.idx, e: st.rhs})

	case *newClassStmt:
		fields, ok := mc.classes[st.class]
		if !ok {
			fail(st.line, st.col, "new of undefined class %q", st.class)
		}
		a := mc.objLocal(st.pos, st.name, "new "+st.class)
		mc.emit(irInstr{op: irNewObj, a: a, e: &intLit{v: int64(len(fields))}})

	case *newObjStmt:
		mc.checkExpr(st.size)
		mc.emit(irInstr{op: irNewObj, a: mc.objLocal(st.pos, st.name, "newobj"), e: st.size})

	case *whileStmt:
		top := len(mc.code)
		mc.checkExpr(st.cond)
		jf := mc.emit(irInstr{op: irJumpIfFalse, e: st.cond})
		mc.lowerBlock(st.body)
		mc.emit(irInstr{op: irJump, a: top})
		mc.code[jf].a = len(mc.code)

	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

// lowerCall checks the part of a spawn or forward at `at` that the two
// share, and returns the callee's method index. The callee is looked up in
// the current class's namespace first; verb names the statement in the
// undefined-method error.
func (mc *methodCode) lowerCall(at pos, c call, verb string) int {
	var d *methodDecl
	ok := false
	if mc.decl.className != "" {
		d, ok = mc.byName[mc.decl.className+"."+c.callee]
	}
	if !ok {
		d, ok = mc.byName[c.callee]
	}
	if !ok {
		fail(at.line, at.col, "%s undefined method %q", verb, c.callee)
	}
	if len(c.args) != len(d.params) {
		fail(at.line, at.col, "%q takes %d arguments, got %d", c.callee, len(d.params), len(c.args))
	}
	for _, a := range c.args {
		mc.checkExpr(a)
	}
	mc.checkExpr(c.target)
	return d.index
}

// local returns the variable name is assigned to, declaring it as a plain
// local on its first assignment.
func (mc *methodCode) local(name string) varInfo {
	v, ok := mc.vars[name]
	if !ok {
		v = varInfo{kind: vkLocal, slot: len(mc.locals)}
		mc.locals = append(mc.locals, name)
		mc.vars[name] = v
	}
	return v
}

// objLocal returns the slot of the plain local that the statement at `at`
// assigns a new object to; what names the object in the error when name is
// some other kind of variable.
func (mc *methodCode) objLocal(at pos, name, what string) int {
	v := mc.local(name)
	if v.kind != vkLocal {
		fail(at.line, at.col, "cannot assign %s to %q", what, name)
	}
	return v.slot
}

// checkExpr verifies names resolve and future reads come after a touch.
func (mc *methodCode) checkExpr(e expr) {
	switch x := e.(type) {
	case *intLit, *selfRef:
	case *stateRef:
		mc.checkExpr(x.idx)
	case *varRef:
		v, ok := mc.vars[x.name]
		if !ok {
			fail(x.line, x.col, "undefined name %q", x.name)
		}
		if v.kind == vkFuture && !mc.touched[x.name] {
			fail(x.line, x.col, "future %q read before touch", x.name)
		}
	case *unaryExpr:
		mc.checkExpr(x.x)
	case *binExpr:
		mc.checkExpr(x.x)
		mc.checkExpr(x.y)
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// --- execution ---

// makeBody builds the runtime body: an interpreter over the method's IR
// whose PC is the frame's resume point. Suspension points are exactly the
// spawns and touches, so this is the same resumable shape the Concert
// compiler emitted as C.
func makeBody(mc *methodCode) core.BodyFunc {
	return func(rt *core.RT, fr *core.Frame) core.Status {
		for {
			in := &mc.code[fr.PC]
			switch in.op {
			case irAssign:
				fr.SetLocal(in.a, mc.eval(fr, in.e))
				fr.PC++
			case irWork:
				rt.Work(fr, instr.Instr(mc.eval(fr, in.e).Int()))
				fr.PC++
			case irJump:
				fr.PC = in.a
			case irJumpIfFalse:
				if mc.eval(fr, in.e).Int() == 0 {
					fr.PC = in.a
				} else {
					fr.PC++
				}
			case irSpawn:
				if fr.FutFull(in.slot) {
					fr.ClearFut(in.slot) // slot reuse across loop iterations
				}
				args := make([]core.Word, len(in.args))
				for i, a := range in.args {
					args[i] = mc.eval(fr, a)
				}
				target := mc.eval(fr, in.target).Ref()
				fr.PC++ // resume after the spawn
				if st := rt.Invoke(fr, mc.methods[in.callee], target, in.slot, args...); st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			case irTouch:
				if !rt.TouchAll(fr, in.mask) {
					return core.Unwound // PC stays here; resume re-touches
				}
				fr.PC++
			case irStateStore:
				st := objState(mc, fr)
				st[mc.eval(fr, in.target).Int()] = mc.eval(fr, in.e)
				fr.PC++
			case irNewObj:
				k := mc.eval(fr, in.e).Int()
				ref := fr.Node.NewObject(make([]core.Word, k))
				fr.SetLocal(in.a, core.RefW(ref))
				fr.PC++
			case irReturn:
				rt.Reply(fr, mc.eval(fr, in.e))
				return core.Done
			case irForward:
				args := make([]core.Word, len(in.args))
				for i, a := range in.args {
					args[i] = mc.eval(fr, a)
				}
				target := mc.eval(fr, in.target).Ref()
				return rt.ForwardTail(fr, mc.methods[in.callee], target, args...)
			default:
				panic(fmt.Sprintf("lang: %s: bad opcode at pc %d", mc.name, fr.PC))
			}
		}
	}
}

// objState returns the receiving object's word-array state; objects used
// with `state[...]` must be created with []core.Word state (newobj does
// this; host setup must match).
func objState(mc *methodCode, fr *core.Frame) []core.Word {
	st, ok := fr.Node.State(fr.Self).([]core.Word)
	if !ok {
		panic(fmt.Sprintf("lang: %s: object %v has no word-array state", mc.name, fr.Self))
	}
	return st
}

// eval evaluates an expression against the frame.
func (mc *methodCode) eval(fr *core.Frame, e expr) core.Word {
	switch x := e.(type) {
	case *intLit:
		return core.IntW(x.v)
	case *selfRef:
		return core.RefW(fr.Self)
	case *stateRef:
		return objState(mc, fr)[mc.eval(fr, x.idx).Int()]
	case *varRef:
		v := mc.vars[x.name]
		switch v.kind {
		case vkParam:
			return fr.Arg(v.slot)
		case vkLocal:
			return fr.Local(v.slot)
		case vkField:
			return objState(mc, fr)[v.slot]
		default:
			return fr.Fut(v.slot)
		}
	case *unaryExpr:
		v := mc.eval(fr, x.x).Int()
		if x.op == tokMinus {
			return core.IntW(-v)
		}
		return core.BoolW(v == 0)
	case *binExpr:
		a := mc.eval(fr, x.x).Int()
		switch x.op {
		case tokAndAnd:
			if a == 0 {
				return core.BoolW(false)
			}
			return core.BoolW(mc.eval(fr, x.y).Int() != 0)
		case tokOrOr:
			if a != 0 {
				return core.BoolW(true)
			}
			return core.BoolW(mc.eval(fr, x.y).Int() != 0)
		}
		b := mc.eval(fr, x.y).Int()
		switch x.op {
		case tokPlus:
			return core.IntW(a + b)
		case tokMinus:
			return core.IntW(a - b)
		case tokStar:
			return core.IntW(a * b)
		case tokSlash:
			if b == 0 {
				panic(fmt.Sprintf("lang: %s: division by zero at %d:%d", mc.name, x.line, x.col))
			}
			return core.IntW(a / b)
		case tokPercent:
			if b == 0 {
				panic(fmt.Sprintf("lang: %s: modulo by zero at %d:%d", mc.name, x.line, x.col))
			}
			return core.IntW(a % b)
		case tokLT:
			return core.BoolW(a < b)
		case tokLE:
			return core.BoolW(a <= b)
		case tokGT:
			return core.BoolW(a > b)
		case tokGE:
			return core.BoolW(a >= b)
		case tokEQ:
			return core.BoolW(a == b)
		case tokNE:
			return core.BoolW(a != b)
		case tokAmp:
			return core.IntW(a & b)
		case tokPipe:
			return core.IntW(a | b)
		case tokCaret:
			return core.IntW(a ^ b)
		case tokShl:
			return core.IntW(a << uint(b&63))
		case tokShr:
			return core.IntW(a >> uint(b&63))
		}
	}
	panic("lang: bad expression")
}
