// Package lang implements a small fine-grained concurrent object-oriented
// language and its compiler onto the hybrid runtime — the analog of the
// paper's ICC++/CA front end. Programs are classes and methods in which
// every call is a concurrent method invocation producing a future:
//
//	class Counter {
//	    field count;
//	    locked method bump(k) { count = count + k; return count; }
//	    method read() { return count; }
//	}
//
//	method fib(n) {
//	    if n < 2 { return n; }
//	    a = spawn fib(n - 1) on self;
//	    b = spawn fib(n - 2) on self;
//	    touch a, b;
//	    return a + b;
//	}
//
// Beyond spawn/touch futures and tail `forward`, the language has objects
// with named fields (`new Counter()`, field reads/writes run on the owner),
// implicit per-object locking (`locked method`), raw word-array objects
// (`newobj`, `state[i]`), and the usual expression operators including
// bitwise and shifts.
//
// The compiler performs the paper's role: it derives each method's analysis
// properties from the syntax (a method with no spawn, touch or forward is a
// non-blocking leaf; forwarding methods may require their continuation),
// lowers bodies to a resumable instruction list whose suspension points are
// exactly the spawns and touches, and registers the result as ordinary
// runtime methods — so compiled programs run under every execution-model
// configuration, machine model and placement, like hand-written ones.
package lang

import "fmt"

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	// punctuation
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokSemi
	// operators
	tokAssign // =
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokLT
	tokLE
	tokGT
	tokGE
	tokEQ
	tokNE
	tokAndAnd
	tokOrOr
	tokBang
	tokAmp   // &
	tokPipe  // |
	tokCaret // ^
	tokShl   // <<
	tokShr   // >>
	// keywords
	tokMethod
	tokReturn
	tokSpawn
	tokForward
	tokTouch
	tokOn
	tokIf
	tokElse
	tokWhile
	tokWork
	tokSelf
	tokState
	tokNewObj
	tokLocked
	tokLBracket
	tokRBracket
	tokClass
	tokField
	tokNew
	tokDot
)

var keywords = map[string]tokKind{
	"method":  tokMethod,
	"return":  tokReturn,
	"spawn":   tokSpawn,
	"forward": tokForward,
	"touch":   tokTouch,
	"on":      tokOn,
	"if":      tokIf,
	"else":    tokElse,
	"while":   tokWhile,
	"work":    tokWork,
	"self":    tokSelf,
	"state":   tokState,
	"newobj":  tokNewObj,
	"locked":  tokLocked,
	"class":   tokClass,
	"field":   tokField,
	"new":     tokNew,
}

var tokNames = map[tokKind]string{
	tokEOF: "end of input", tokIdent: "identifier", tokInt: "integer",
	tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'", tokRBrace: "'}'",
	tokComma: "','", tokSemi: "';'", tokAssign: "'='",
	tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'",
	tokPercent: "'%'", tokLT: "'<'", tokLE: "'<='", tokGT: "'>'",
	tokGE: "'>='", tokEQ: "'=='", tokNE: "'!='", tokAndAnd: "'&&'",
	tokOrOr: "'||'", tokBang: "'!'", tokAmp: "'&'", tokPipe: "'|'",
	tokCaret: "'^'", tokShl: "'<<'", tokShr: "'>>'", tokMethod: "'method'",
	tokReturn: "'return'", tokSpawn: "'spawn'", tokForward: "'forward'",
	tokTouch: "'touch'", tokOn: "'on'", tokIf: "'if'", tokElse: "'else'",
	tokWhile: "'while'", tokWork: "'work'", tokSelf: "'self'",
	tokState: "'state'", tokNewObj: "'newobj'", tokLocked: "'locked'",
	tokLBracket: "'['", tokRBracket: "']'", tokClass: "'class'",
	tokField: "'field'", tokNew: "'new'", tokDot: "'.'",
}

func (k tokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", k)
}

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	val  int64
	line int
	col  int
}

// Error is a compile error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lang: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// fail reports a compile error at line:col by panicking with its *Error.
// The lexer, the parser and the lowering all report errors this way, and
// Compile is the only function that recovers one, so the first error found
// is the one returned. Any other panic is a bug and keeps unwinding.
func fail(line, col int, format string, args ...any) {
	panic(&Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}
