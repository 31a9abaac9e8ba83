package lang

// AST node types. Positions point at the construct's first token.

type methodDecl struct {
	name      string // qualified: "Class.method" for class methods
	className string // "" for global methods
	fields    []string
	params    []string
	body      []stmt
	locked    bool
	line      int
	col       int
	index     int // position in the program, set by Compile
}

// stmt is a statement node.
type stmt interface{ stmtPos() (int, int) }

type pos struct{ line, col int }

func (p pos) stmtPos() (int, int) { return p.line, p.col }

// assignStmt: name = expr;
type assignStmt struct {
	pos
	name string
	rhs  expr
}

// call is the part spawn and forward share: callee(args) on target.
type call struct {
	callee string
	args   []expr
	target expr
}

// spawnStmt: name = spawn callee(args) on target;
type spawnStmt struct {
	pos
	name string
	call
}

// touchStmt: touch a, b, ...;
type touchStmt struct {
	pos
	names []string
}

// returnStmt: return expr;
type returnStmt struct {
	pos
	value expr
}

// forwardStmt: forward callee(args) on target;
type forwardStmt struct {
	pos
	call
}

// workStmt: work expr;
type workStmt struct {
	pos
	amount expr
}

// ifStmt: if cond { ... } else { ... }
type ifStmt struct {
	pos
	cond expr
	then []stmt
	els  []stmt
}

// whileStmt: while cond { ... }
type whileStmt struct {
	pos
	cond expr
	body []stmt
}

// stateAssign: state[idx] = expr;
type stateAssign struct {
	pos
	idx expr
	rhs expr
}

// newObjStmt: name = newobj(size);
type newObjStmt struct {
	pos
	name string
	size expr
}

// newClassStmt: name = new Class();
type newClassStmt struct {
	pos
	name  string
	class string
}

// expr is an expression node.
type expr interface{ exprPos() (int, int) }

func (p pos) exprPos() (int, int) { return p.line, p.col }

// intLit is an integer literal.
type intLit struct {
	pos
	v int64
}

// varRef names a parameter, local, or future variable.
type varRef struct {
	pos
	name string
}

// selfRef is the receiving object.
type selfRef struct{ pos }

// stateRef reads state[idx] of the receiving object.
type stateRef struct {
	pos
	idx expr
}

// unaryExpr: -x or !x.
type unaryExpr struct {
	pos
	op tokKind
	x  expr
}

// binExpr: x op y.
type binExpr struct {
	pos
	op   tokKind
	x, y expr
}
